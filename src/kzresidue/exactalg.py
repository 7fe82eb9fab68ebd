"""Exact arithmetic: sparse multivariate polynomials over Q, factored
Laurent sums over a point-difference alphabet, unreduced polynomial
fractions, and small polynomial matrices.

No floating point is used anywhere; coefficients are Python ints or
fractions.Fraction.  Polynomial fractions are deliberately never reduced
(no multivariate gcd exists in this package): identities between them
are always decided by cross-multiplication, and denominators are cleared
once, globally, when a factored sum is expanded.

A polynomial keys each monomial on one int (Kronecker packing): the
exponent of z_i sits in bits [24(i-1), 24i), so z_n is most significant
and the integer order of keys is the lexicographic order with z_n most
significant, the order in which `sorted_terms`, `leading_term` and
`to_json` emit terms.  Exponents stay below 2^23, which leaves the top
bit of every field as a guard: adding two keys adds their exponents field
by field without carrying between fields, and a field that reaches 2^23
sets its guard bit, which one mask test catches and turns into
OverflowError.  Products, sums, derivatives, substitutions, permutations,
divisions and evaluation work on keys with additions, shifts and masks;
exponent tuples appear only at the boundary (`from_terms`, `items`,
`sorted_terms`, `leading_term`).
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from operator import or_

from ._frozen import Frozen

MAX_VARS = 8

Coefficient = Fraction  # ints are accepted anywhere a Coefficient is

_BITS = 24  # bits per exponent field of a monomial key
_FIELD = (1 << _BITS) - 1
EXPONENT_CAP = 1 << (_BITS - 1)  # every exponent stays below this
_SHIFTS = tuple(range(0, _BITS * MAX_VARS, _BITS))
_GUARDS = sum(EXPONENT_CAP << s for s in _SHIFTS)
# the key of z_i
_UNIT = {i: 1 << s for i, s in enumerate(_SHIFTS, 1)}
# bits 21..23 of every field: while they are all clear, each exponent is
# below 2^21, so at most eight of them sum to less than 2^24 - 1, and that
# sum is the key's residue mod 2^24 - 1 (as 2^24 = 1 mod 2^24 - 1)
_WIDE = sum(0b111 << (s + _BITS - 3) for s in _SHIFTS)


def _check_nvars(nvars: int) -> None:
    if not 1 <= nvars <= MAX_VARS:
        raise ValueError(f"variable count must be 1..{MAX_VARS}, got {nvars}")


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> s) & _FIELD for s in _SHIFTS[:nvars])


def _total_degrees(keys):
    """The total degree of each key: its residue mod 2^24 - 1 while no
    exponent reaches 2^21 (see _WIDE), else the sum of its fields."""
    if reduce(or_, keys, 0) & _WIDE:
        return (sum((k >> s) & _FIELD for s in _SHIFTS) for k in keys)
    return map(_FIELD.__rmod__, keys)


def demote(c):
    """Integral Fractions become plain ints (plain int arithmetic is far
    cheaper, and most coefficients in this package are integers that
    merely passed through a rational step)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _add_into(acc: dict, terms: dict, negate: bool = False) -> dict:
    """acc += terms, or acc -= terms when `negate`, in place on two
    key -> coefficient maps, dropping the keys that cancel; returns acc."""
    for key, c in terms.items():
        cur = acc.get(key, 0) - c if negate else acc.get(key, 0) + c
        if cur:
            acc[key] = cur
        elif key in acc:
            del acc[key]
    return acc


def _check_cap(keys) -> None:
    """OverflowError when a key made by adding to fields has an exponent
    at the cap (its field's guard bit is set)."""
    if reduce(or_, keys, 0) & _GUARDS:
        raise OverflowError(f"an exponent reached 2^{_BITS - 1}, beyond its key field")


class SparsePolynomial(Frozen):
    """Polynomial in z_1..z_n: a map from packed monomial keys (see the
    module docstring) to rationals.

    Zero coefficients are never stored, so the zero polynomial has an
    empty term map.  The fields cannot be reassigned, and the term map
    is never changed after construction; arithmetic always builds fresh
    objects.

    >>> z1 = SparsePolynomial.variable(2, 1)
    >>> z2 = SparsePolynomial.variable(2, 2)
    >>> str((z1 - z2) ** 2)
    'z2^2 - 2*z1*z2 + z1^2'
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        _check_nvars(nvars)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms if terms is not None else {})

    # ------------------------------------------------------------------
    # constructors
    @classmethod
    def zero(cls, nvars: int) -> "SparsePolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "SparsePolynomial":
        c = demote(c)
        return cls(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "SparsePolynomial":
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        return cls(nvars, {_UNIT[i]: 1})

    @classmethod
    def z_diff(cls, nvars: int, i: int, j: int) -> "SparsePolynomial":
        """The linear form z_i - z_j."""
        return cls.variable(nvars, i) - cls.variable(nvars, j)

    @classmethod
    def from_terms(cls, nvars: int, items) -> "SparsePolynomial":
        """From (exponent tuple, coefficient) pairs; each exponent must be
        an integer in 0..2^23 - 1, else ValueError."""
        terms: dict = {}
        for exp, c in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(not 0 <= e < EXPONENT_CAP for e in exp):
                raise ValueError(
                    f"bad exponent vector {exp} for {nvars} variables"
                    f" (exponents 0..{EXPONENT_CAP - 1})"
                )
            key = sum(e << s for e, s in zip(exp, _SHIFTS))
            cur = terms.get(key, 0) + c
            if cur:
                terms[key] = demote(cur)
            elif key in terms:
                del terms[key]
        return cls(nvars, terms)

    # ------------------------------------------------------------------
    # predicates and scalars
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self):
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(_total_degrees(self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len(set(_total_degrees(self.terms))) <= 1

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    # ------------------------------------------------------------------
    # arithmetic
    def _require_same_ring(self, other: "SparsePolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i} out of range")

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.nvars, other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_ring(other)
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        return SparsePolynomial(self.nvars, _add_into(dict(large), small))

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.nvars, other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_ring(other)
        return SparsePolynomial(self.nvars, _add_into(dict(self.terms), other.terms, True))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return SparsePolynomial.zero(self.nvars)
            return SparsePolynomial(
                self.nvars, {k: demote(c * other) for k, c in self.terms.items()}
            )
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_ring(other)
        small, large = self.terms, other.terms
        if len(small) > len(large):  # the longer operand in the inner loop
            small, large = large, small
        terms: dict = {}
        get = terms.get
        inner = large.items()
        for k1, c1 in small.items():
            for k2, c2 in inner:
                k = k1 + k2
                cur = get(k, 0) + c1 * c2
                if cur:
                    terms[k] = cur
                else:  # coefficients are non-zero, so k was present
                    del terms[k]
        _check_cap(terms)
        return SparsePolynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("polynomial powers must have non-negative exponent")
        result = SparsePolynomial.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # calculus and structure
    def partial_derivative(self, i: int) -> "SparsePolynomial":
        """d/dz_i."""
        self._check_index(i)
        s = _SHIFTS[i - 1]
        unit = _UNIT[i]
        terms = {}
        for k, c in self.terms.items():
            e = (k >> s) & _FIELD
            if e:  # distinct keys stay distinct after one unit comes off
                terms[k - unit] = c * e
        return SparsePolynomial(self.nvars, terms)

    def antiderivative(self, i: int) -> "SparsePolynomial":
        """The primitive in z_i with zero constant term."""
        self._check_index(i)
        s = _SHIFTS[i - 1]
        unit = _UNIT[i]
        terms = {
            k + unit: demote(Fraction(c, ((k >> s) & _FIELD) + 1))
            for k, c in self.terms.items()
        }
        _check_cap(terms)
        return SparsePolynomial(self.nvars, terms)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Maximal monomial under lexicographic order with z_n most significant."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        key = max(self.terms)
        return _unpack(key, self.nvars), self.terms[key]

    def items(self):
        """(exponent tuple, coefficient) pairs, in no particular order."""
        n = self.nvars
        return ((_unpack(k, n), c) for k, c in self.terms.items())

    def evaluate(self, values):
        """Exact value at a point (one number per variable)."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        # each exponent is read off its key field; v**e is memoized per variable
        fields = [(s, v, {}) for s, v in zip(_SHIFTS, values)]
        total = 0
        for k, c in self.terms.items():
            for s, v, powers in fields:
                if e := (k >> s) & _FIELD:
                    p = powers.get(e)
                    if p is None:
                        p = powers[e] = v**e
                    c *= p
            total += c
        return total

    def permute_variables(self, image: tuple[int, ...]) -> "SparsePolynomial":
        """Substitute z_i -> z_image[i-1]; image must be a permutation of 1..n."""
        n = self.nvars
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {image}")
        # fields that move by the same distance move together, with one mask
        # and one shift; fields that stay are kept with one mask
        fixed = 0
        moves: dict = {}
        for s, target in zip(_SHIFTS, image):
            d = _SHIFTS[target - 1] - s
            if d:
                moves[d] = moves.get(d, 0) | (_FIELD << s)
            else:
                fixed |= _FIELD << s
        if not moves:
            return self  # the identity: an immutable value serves as its own image
        up = [(mask, d) for d, mask in moves.items() if d > 0]
        down = [(mask, -d) for d, mask in moves.items() if d < 0]
        terms = {}
        for k, c in self.terms.items():
            new = k & fixed
            for mask, d in up:
                new |= (k & mask) << d
            for mask, d in down:
                new |= (k & mask) >> d
            terms[new] = c
        return SparsePolynomial(n, terms)

    def substitute_variable(self, i: int, j: int) -> "SparsePolynomial":
        """Substitute z_i -> z_j (i and j may collide with other exponents)."""
        self._check_index(i)
        self._check_index(j)
        if i == j:
            return self
        si, sj = _SHIFTS[i - 1], _SHIFTS[j - 1]
        terms: dict = {}
        for k, c in self.terms.items():
            e = (k >> si) & _FIELD
            key = k - (e << si) + (e << sj)
            cur = terms.get(key, 0) + c
            if cur:
                terms[key] = cur
            elif key in terms:
                del terms[key]
        _check_cap(terms)
        return SparsePolynomial(self.nvars, terms)

    def restrict_last_to_zero(self) -> "SparsePolynomial":
        """The slice z_n = 0, in the same ring: the terms free of z_n,
        whose keys are the ones below z_n's unit."""
        unit = _UNIT[self.nvars]
        terms = {k: c for k, c in self.terms.items() if k < unit}
        return SparsePolynomial(self.nvars, terms)

    def drop_last_variable(self) -> "SparsePolynomial":
        """Forget a trailing variable that no term uses (keys are unchanged)."""
        if max(self.terms, default=0) >> _SHIFTS[self.nvars - 1]:
            raise ValueError("last variable still occurs")
        return SparsePolynomial(self.nvars - 1, self.terms)

    # ------------------------------------------------------------------
    # presentation
    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending z_n-major lexicographic order (deterministic)."""
        n = self.nvars
        return [(_unpack(k, n), self.terms[k]) for k in sorted(self.terms, reverse=True)]

    def to_json(self) -> dict:
        return {
            "vars": self.nvars,
            "terms": [
                {
                    "exp": list(exp),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for exp, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SparsePolynomial":
        """Inverse of `to_json`, accepting only what it writes: `vars` and
        exponents as JSON integers, `num` and `den` as integers or ASCII
        strings -?[0-9]+.  Any other document raises ValueError."""

        def whole(v, text: bool = False) -> int:
            # int() would truncate floats, take bools, and parse non-ASCII
            # digits, '1_0', ' 2 ' and '+3', none of which `to_json` writes
            if isinstance(v, int) and not isinstance(v, bool):
                return v
            digits = v.removeprefix("-") if text and isinstance(v, str) else ""
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"expected an integer, got {v!r}")
            return int(v)

        try:
            nvars = whole(data["vars"])
            items = []
            for t in data["terms"]:
                if not isinstance(t["exp"], list):
                    raise ValueError(f"exponent vector must be a list: {t['exp']!r}")
                exp = tuple(whole(e) for e in t["exp"])
                items.append((exp, Fraction(whole(t["num"], True), whole(t["den"], True))))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed polynomial document: {exc!r}") from exc
        return cls.from_terms(nvars, items)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, c in self.sorted_terms():
            c = Fraction(c)
            mono = "*".join(
                f"z{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            mag = abs(c)
            head = "- " if c < 0 else ("+ " if chunks else "")
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            chunks.append(head + body)
        return " ".join(chunks).replace("+ -", "- ")

    __repr__ = __str__


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division failed; carries the non-zero remainder."""

    def __init__(self, remainder: SparsePolynomial):
        super().__init__("polynomial division left a non-zero remainder")
        self.remainder = remainder


def _divide_by_z_diff(p, i: int, j: int) -> SparsePolynomial:
    """Exact division by (z_i - z_j) via synthetic division in z_i.

    `p` is a polynomial or a combination sum_k c_k f_k, given as
    (c_k, f_k) pairs of scalars and polynomials in one ring; a
    combination is expanded as its terms are sorted by their power of
    z_i, so it is never built as a polynomial of its own.  Terms that
    cancel at one power, or everywhere, are dropped by the same additions
    that run the division.

    With p = sum_t p_t z_i^t, the quotient is sum_t q_t z_i^t with
    q_top = 0 and q_(t-1) = p_t + z_j q_t, and the remainder is
    p_0 + z_j q_0.  On keys, q_t z_i^t becomes z_j q_t z_i^(t-1) by adding
    z_j's unit and taking off z_i's."""
    if isinstance(p, SparsePolynomial):
        p = ((1, p),)
    nvars = p[0][1].nvars
    si = _SHIFTS[i - 1]
    unit_i, unit_j = _UNIT[i], _UNIT[j]
    down = unit_j - unit_i
    levels: dict[int, list] = {}
    for scale, f in p:
        f._require_same_ring(p[0][1])
        if scale == 1:
            for k, c in f.terms.items():
                levels.setdefault((k >> si) & _FIELD, []).append((k, c))
        elif scale:
            for k, c in f.terms.items():
                levels.setdefault((k >> si) & _FIELD, []).append((k, c * scale))
    if not levels:
        return SparsePolynomial.zero(nvars)
    quo: dict = {}
    carry: dict = {}  # q_(t-1) z_i^(t-1)
    for t in range(max(levels), 0, -1):
        carry = {k + down: c for k, c in carry.items()}
        for k, c in levels.get(t, ()):
            k -= unit_i
            cur = carry.get(k, 0) + c
            if cur:
                carry[k] = cur
            else:
                del carry[k]
        quo.update(carry)
    rem = {k + unit_j: c for k, c in carry.items()}
    for k, c in levels.get(0, ()):
        cur = rem.get(k, 0) + c
        if cur:
            rem[k] = cur
        else:
            del rem[k]
    if rem:
        # z_j's exponent can pass the cap only in a remainder
        _check_cap(rem)
        raise NonDivisibleError(SparsePolynomial(nvars, rem))
    return SparsePolynomial(nvars, quo)


@cache
def _zdiff_power(nvars: int, i: int, j: int, e: int) -> SparsePolynomial:
    return SparsePolynomial.z_diff(nvars, i, j) ** e


def _times_content(p: SparsePolynomial, content) -> SparsePolynomial:
    """p times (z_i - z_j)^e for each (i, j): e of `content`."""
    # smallest powers first: the product grows most slowly that way
    for (i, j), e in sorted(content.items(), key=lambda kv: (kv[1], kv[0])):
        p = p * _zdiff_power(p.nvars, i, j, e)
    return p


@cache
def discriminant_power(nvars: int, e: int) -> SparsePolynomial:
    """The expanded product of (z_i - z_j)^e over all pairs i < j."""
    pairs = combinations(range(1, nvars + 1), 2)
    return _times_content(SparsePolynomial.constant(nvars, 1), dict.fromkeys(pairs, e))


# ----------------------------------------------------------------------
# factored Laurent sums


def z_atom(i: int) -> tuple:
    """Fixed point z_i."""
    return ("z", i)


def t_atom(row: int, col: int, level: int) -> tuple:
    """Level-`level` variable attached to box (row, col)."""
    return ("t", row, col, level)


def is_t_atom(a: tuple) -> bool:
    return a[0] == "t"


def atom_sort_key(a: tuple) -> tuple:
    """Total order on atoms: fixed points first (by index), then variables
    by (level, row, column)."""
    if a[0] == "z":
        return (0, a[1], 0, 0)
    return (1, a[3], a[1], a[2])


def _freeze(fmap: dict) -> tuple:
    return tuple(sorted(fmap.items()))


class FactoredSum:
    """Sum of terms  coefficient * prod (a - b)^e  over distinct atoms a, b.

    Factor orientation is canonical (a before b in the atom order) with
    the sign folded into the coefficient; terms with identical factor
    maps are merged and zero terms dropped, so equality of the maps is
    equality of the sums term by term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls) -> "FactoredSum":
        return cls()

    @classmethod
    def term(cls, coeff, factors=()) -> "FactoredSum":
        """One term from (a, b, exponent) triples; orientation is normalized."""
        if not coeff:
            return cls()
        fmap: dict = {}
        sign = 1
        for a, b, e in factors:
            if a == b:
                raise ValueError(f"degenerate difference at atom {a}")
            e = int(e)
            if not e:
                continue
            if atom_sort_key(a) > atom_sort_key(b):
                a, b = b, a
                if e % 2:
                    sign = -sign
            key = (a, b)
            cur = fmap.get(key, 0) + e
            if cur:
                fmap[key] = cur
            elif key in fmap:
                del fmap[key]
        return cls({_freeze(fmap): coeff * sign})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredSum):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "FactoredSum") -> "FactoredSum":
        return FactoredSum(_add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "FactoredSum") -> "FactoredSum":
        return FactoredSum(_add_into(dict(self.terms), other.terms, True))

    def scale(self, c) -> "FactoredSum":
        if not c:
            return FactoredSum()
        return FactoredSum({key: v * c for key, v in self.terms.items()})

    def __mul__(self, other: "FactoredSum") -> "FactoredSum":
        terms: dict = {}
        for k1, c1 in self.terms.items():
            base = dict(k1)
            for k2, c2 in other.terms.items():
                fmap = dict(base)
                for pd, e in k2:
                    cur = fmap.get(pd, 0) + e
                    if cur:
                        fmap[pd] = cur
                    elif pd in fmap:
                        del fmap[pd]
                key = _freeze(fmap)
                cur = terms.get(key, 0) + c1 * c2
                if cur:
                    terms[key] = cur
                elif key in terms:
                    del terms[key]
        return FactoredSum(terms)

    def relabel(self, mapping: dict) -> "FactoredSum":
        """Apply an atom relabeling; orientation signs are re-normalized."""
        out = FactoredSum()
        for key, c in self.terms.items():
            out = out + FactoredSum.term(
                c,
                [
                    (mapping.get(a, a), mapping.get(b, b), e)
                    for (a, b), e in key
                ],
            )
        return out

    def live_variables(self) -> set:
        vs = set()
        for key in self.terms:
            for (a, b), _ in key:
                if is_t_atom(a):
                    vs.add(a)
                if is_t_atom(b):
                    vs.add(b)
        return vs

    def iter_terms(self):
        """(coefficient, factor key) pairs; the key is a sorted tuple of
        ((atom, atom), exponent) entries."""
        return ((coeff, key) for key, coeff in self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in sorted(self.terms.items()):
            fac = "*".join(
                f"({_atom_str(a)}-{_atom_str(b)})^{e}" for (a, b), e in key
            )
            parts.append(f"{c}" + (f"*{fac}" if fac else ""))
        return " + ".join(parts)

    __repr__ = __str__


def _atom_str(a: tuple) -> str:
    if a[0] == "z":
        return f"z{a[1]}"
    return f"t[{a[1]},{a[2]}]_{a[3]}"


class NormalizeError(ArithmeticError):
    """A factored sum expected to be polynomial was not; carries the remainder."""

    def __init__(self, remainder: SparsePolynomial):
        super().__init__("factored sum does not expand to a polynomial")
        self.remainder = remainder


def normalize_factored(fs: FactoredSum, nvars: int) -> SparsePolynomial:
    """Expand a fixed-point-only factored sum into a polynomial.

    With lo(a, b) the least exponent of a - b over all terms (0 where a
    term lacks the factor), the sum is

        sum_k c_k prod (a - b)^e_k  =  prod (a - b)^lo * sum_k c_k prod (a - b)^(e_k - lo),

    so only the residual sum on the right, whose exponents are all
    non-negative, is expanded.  It is divided exactly by the pairs with
    lo < 0, and the pairs with lo > 0 are multiplied back once.  Failure
    to divide raises NormalizeError with the offending remainder.
    """
    terms = []
    for coeff, key in fs.iter_terms():
        for (a, b), _ in key:
            if is_t_atom(a) or is_t_atom(b):
                raise ValueError("normalize_factored needs fixed-point atoms only")
        terms.append((coeff, dict(key)))
    pairs = sorted({pd for _, fmap in terms for pd in fmap})
    lo = {pd: min(fmap.get(pd, 0) for _, fmap in terms) for pd in pairs}
    num = SparsePolynomial.zero(nvars)
    for coeff, fmap in terms:
        poly = SparsePolynomial.constant(nvars, coeff)
        for (a, b), least in lo.items():
            e = fmap.get((a, b), 0) - least
            if e:
                poly = poly * _zdiff_power(nvars, a[1], b[1], e)
        num = num + poly
    quo = num
    for (a, b), least in lo.items():
        for _ in range(-least):
            try:
                quo = _divide_by_z_diff(quo, a[1], b[1])
            except NonDivisibleError as exc:
                raise NormalizeError(exc.remainder) from None
    return _times_content(quo, {(a[1], b[1]): e for (a, b), e in lo.items() if e > 0})


# ----------------------------------------------------------------------
# fractions and matrices


class PolyFraction(Frozen):
    """Unreduced quotient of two polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePolynomial, den: SparsePolynomial) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        num._require_same_ring(den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePolynomial):
            other = PolyFraction(other, SparsePolynomial.constant(self.num.nvars, 1))
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):  # pragma: no cover - fractions are not dict keys here
        return hash(self.num.nvars)

    def __add__(self, other: "PolyFraction") -> "PolyFraction":
        if self.den is other.den or self.den == other.den:
            return PolyFraction(self.num + other.num, self.den)
        return PolyFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "PolyFraction":
        return PolyFraction(-self.num, self.den)

    def __sub__(self, other: "PolyFraction") -> "PolyFraction":
        return self + (-other)

    def __mul__(self, other) -> "PolyFraction":
        if isinstance(other, (int, Fraction)):
            return PolyFraction(self.num * other, self.den)
        if isinstance(other, SparsePolynomial):
            return PolyFraction(self.num * other, self.den)
        return PolyFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


class PolyMatrix(Frozen):
    """Rectangular matrix of polynomial (or fraction) entries."""

    __slots__ = ("entries",)
    __hash__ = None  # a matrix is never a dictionary key

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one entry")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shapes do not compose")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = None
                for k in range(self.ncols):
                    p = self.entries[i][k] * other.entries[k][j]
                    acc = p if acc is None else acc + p
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)


def z_diff_content(polys, nvars: int) -> tuple[list, dict]:
    """The largest power of each z_i - z_j dividing every one of `polys`.

    Returns `(quotients, content)`: `content` maps (i, j), i < j, to that
    power where it is positive, and `quotients` are the polynomials with
    all of it divided out.  ValueError if every one of `polys` is zero:
    zero is divisible by every power."""
    polys = list(polys)
    if not any(polys):
        raise ValueError("z-difference content of zero polynomials is unbounded")
    content: dict = {}
    for i in range(1, nvars + 1):
        for j in range(i + 1, nvars + 1):
            while True:
                try:
                    polys = [_divide_by_z_diff(p, i, j) for p in polys]
                except NonDivisibleError:
                    break
                content[(i, j)] = content.get((i, j), 0) + 1
    return polys, content


def _stripped(rows, nvars: int) -> tuple[list, list, list]:
    """`(columns, row_parts, col_parts)` with M[r][c] == f_r * g_c *
    M'[r][c]: `columns` are the columns of M', and `row_parts[r]`
    (`col_parts[c]`) counts the powers of each z_i - z_j in f_r (g_c), the
    largest product of them dividing row r of M (column c of the
    row-stripped matrix).  An all-zero row or column is left as it is,
    with empty content, since every power divides zero."""

    def strip(lines):
        out, parts = [], []
        for line in lines:
            line, part = z_diff_content(line, nvars) if any(line) else (list(line), {})
            out.append(line)
            parts.append(Counter(part))
        return out, parts

    reduced, row_parts = strip(rows)
    columns, col_parts = strip(zip(*reduced))
    return columns, row_parts, col_parts


def _square_rows(matrix) -> list:
    rows = matrix.entries if isinstance(matrix, PolyMatrix) else [list(r) for r in matrix]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant needs a square matrix")
    return rows


def _subset_minors(lines, one) -> dict:
    """D[S] for every set S of len(lines) positions, S a bitmask: the
    determinant of `lines`, taken as rows, on the positions in S (see
    `determinant`).  Zero minors are left out; no lines give D[{}] = one,
    the unit of the entries' ring (1 for integers)."""
    minors = {0: one}
    for line in lines:
        grown: dict = {}
        for s, minor in minors.items():
            for c, a in enumerate(line):
                if s >> c & 1 or not a:
                    continue
                piece = minor * a
                if (s >> c).bit_count() % 2:  # c's own bit is clear
                    piece = -piece
                t = s | 1 << c
                grown[t] = grown[t] + piece if t in grown else piece
        minors = {s: p for s, p in grown.items() if p}
    return minors


def _stripped_det(matrix) -> tuple[list, list, list, Counter, SparsePolynomial]:
    """The pass `determinant` and `det_adjugate` share: `_stripped`'s
    `(columns, row_parts, col_parts)`, the total `content` of the parts,
    and det(M'), D of all columns of M' (see `determinant`)."""
    rows = _square_rows(matrix)
    nvars = rows[0][0].nvars
    columns, row_parts, col_parts = _stripped(rows, nvars)
    minors = _subset_minors(columns, SparsePolynomial.constant(nvars, 1))
    det = minors.get((1 << len(rows)) - 1, SparsePolynomial.zero(nvars))
    return columns, row_parts, col_parts, sum(row_parts + col_parts, Counter()), det


def determinant(matrix) -> SparsePolynomial:
    """Determinant alone.

    Rests on multilinearity in rows and columns: if M[r][c] equals
    f_r * g_c * M'[r][c] for all r, c, then

        det(M)  =  prod_r f_r * prod_c g_c * det(M').

    Each f_r (then each g_c) is the largest product of powers of
    z_i - z_j dividing the whole row (column); det(M') is computed and
    the stripped powers are multiplied back once.  An all-zero row or
    column is left unstripped (f_r = 1, or g_c = 1): it has no largest
    such power, and it makes det(M') zero on the same path.

    det(M') is expanded by Laplace along rows with no division (exact
    division of sparse polynomials costs more than the products it
    saves).  Write D[S] for the determinant of the first |S| rows on the
    columns in the set S; then D[{}] = 1, and expanding D[T] along its
    last row |T| - 1 gives

        D[T]  =  sum over c in T of  (-1)^#{c' in T : c' > c} * D[T - c] * M'[|T| - 1][c].

    One pass computes each D[S] once, row by row, with zero entries and
    zero minors skipped: at most n * 2^(n-1) products, and det(M') is D
    of all columns.  M' is kept transposed (det(M'^T) == det(M')), so its
    columns play the rows.  `det_adjugate` runs the same pass, and once
    more for each column of M' left out."""
    *_, content, det = _stripped_det(matrix)
    return _times_content(det, content)


def det_adjugate(matrix) -> tuple[SparsePolynomial, PolyMatrix]:
    """Determinant and adjugate of a square polynomial matrix.

    With M[r][c] = f_r * g_c * M'[r][c] as in `determinant` (an all-zero
    row or column left unstripped), and F, G the products of all f_r,
    all g_c: every minor of M is the minor of M' times the content of its
    rows and columns, so

        det(M) = F G det(M'),   adj(M)[i][j] = F G / (f_j g_i) adj(M')[i][j],

    and (M adj(M))[r][s] = F G f_r / f_s (M' adj(M'))[r][s].  Hence
    M adj(M) == det(M) I holds exactly when M' adj(M') == det(M') I,
    which is asserted on the stripped matrix (ArithmeticError otherwise);
    the content is then multiplied back once per entry.

    det(M') comes from the pass of `determinant` over all columns of M'.
    Row j of adj(M') comes from one more pass that leaves column j out:
    its entries D[all - {i}] are the minors of M' without row i and
    column j, so adj(M')[j][i] = (-1)^(i+j) D[all - {i}].  That is n + 1
    passes, and no minor is stripped or expanded on its own."""
    columns, row_parts, col_parts, total, det = _stripped_det(matrix)
    n, full = len(columns), (1 << len(columns)) - 1
    one, zero = SparsePolynomial.constant(det.nvars, 1), SparsePolynomial.zero(det.nvars)
    adj = []
    for j in range(n):
        minors = _subset_minors(columns[:j] + columns[j + 1 :], one)
        row = [minors.get(full ^ 1 << i, zero) for i in range(n)]
        adj.append([-a if (i + j) % 2 else a for i, a in enumerate(row)])
    reduced = [list(r) for r in zip(*columns)]
    prod = PolyMatrix(reduced).matmul(PolyMatrix(adj))
    for i in range(n):
        for j in range(n):
            expected = det if i == j else zero
            if prod.entry(i, j) != expected:
                raise ArithmeticError("adjugate identity failed; matrix arithmetic bug")
    adj = [
        [_times_content(a, total - row_parts[i] - col_parts[j]) for i, a in enumerate(row)]
        for j, row in enumerate(adj)
    ]
    return _times_content(det, total), PolyMatrix(adj)

