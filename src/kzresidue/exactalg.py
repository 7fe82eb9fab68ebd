"""Exact arithmetic: sparse multivariate polynomials over Q, the same
polynomials factored as a z-difference content times a core, factored
Laurent sums over a point-difference alphabet, and the determinant and
adjugate of a square matrix of polynomials, given as a sequence of rows.

No floating point is used anywhere; coefficients are Python ints or
fractions.Fraction.  There is no polynomial fraction type (and no
multivariate gcd): denominators are cleared once, globally, when a
factored sum is expanded, and a family of rational solutions keeps
polynomial numerators over the one denominator its holder stores
(`solve.SolutionTable.den`, `DualMatrix.det`, `ReflectionSolution.den`),
so identities between them are decided on numerators, cross-multiplied
against that denominator.

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

Key -> coefficient maps (polynomial terms, factored-sum terms, factor
maps) are summed by one kernel, `_add_into`, as polynomials are
multiplied by one, `_mul_into`; both drop the keys that cancel.

The solutions are integer polynomials of which most is a product of
z-differences, so `normalize_factored` returns a `ContentPolynomial`:
the content prod (z_i - z_j)^e as a map of exponents and the small core
left when it is divided out.  Relabeling, sums, evaluation and the shape
of the value work on the core, and the content is multiplied back only
when a caller expands it (`expand`, `to_json`, `str`).
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from operator import or_

from ._frozen import Frozen
from .shapes import EXPONENT_CAP, MAX_VARS

# bits per exponent field of a monomial key: 24, the cap's guard bit on top
_BITS = EXPONENT_CAP.bit_length()
_FIELD = (1 << _BITS) - 1
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


def _add_into(acc: dict, pairs) -> dict:
    """acc += sum of `pairs`, in place on a key -> coefficient map: the
    one sum kernel, dropping the keys that cancel; returns acc.  `pairs`
    is any iterable of (key, coefficient) pairs in which a key may repeat,
    such as a map's `items()` or a generator.  A difference is the sum
    with the negation."""
    for key, c in pairs:
        cur = acc.get(key, 0) + c
        if cur:
            acc[key] = cur
        elif key in acc:
            del acc[key]
    return acc


def _mul_into(acc: dict, a: dict, b: dict) -> dict:
    """acc += a * b, in place on key -> coefficient maps: the one product
    kernel, its term products summed by `_add_into`; returns acc."""
    small, large = a, b
    if len(small) > len(large):  # the longer operand in the inner loop
        small, large = large, small
    inner = large.items()
    _add_into(acc, ((k1 + k2, c1 * c2) for k1, c1 in small.items() for k2, c2 in inner))
    _check_cap(acc)
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
        pairs = []
        for exp, c in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(not 0 <= e < EXPONENT_CAP for e in exp):
                raise ValueError(
                    f"bad exponent vector {exp} for {nvars} variables"
                    f" (exponents 0..{EXPONENT_CAP - 1})"
                )
            pairs.append((sum(e << s for e, s in zip(exp, _SHIFTS)), c))
        terms = _add_into({}, pairs)
        return cls(nvars, {k: demote(c) for k, c in terms.items()})

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
        return SparsePolynomial(self.nvars, _add_into(dict(large), small.items()))

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, SparsePolynomial)):
            return NotImplemented
        return self + (-other)

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
        return SparsePolynomial(self.nvars, _mul_into({}, self.terms, other.terms))

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
        field = _FIELD << si  # z_i's exponent moves to z_j's field
        moved = ((k & ~field) + ((k & field) >> si << sj) for k in self.terms)
        terms = _add_into({}, zip(moved, self.terms.values()))
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
        """The terms in `sorted_terms` order, exponents read by shift."""
        shifts = _SHIFTS[: self.nvars]
        return {
            "vars": self.nvars,
            "terms": [
                {"exp": [(k >> s) & _FIELD for s in shifts],
                 "num": str(c.numerator),
                 "den": str(c.denominator)}
                for k, c in sorted(self.terms.items(), reverse=True)
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


def _translation_defect(f: SparsePolynomial) -> SparsePolynomial:
    """E f = sum_i d/dz_i f, the generator of z -> z + t (1, ..., 1), in
    one pass over the terms: c z^k gives c k_i to key - unit_i for every
    z_i in the monomial."""
    fields = [(s, 1 << s) for s in _SHIFTS[: f.nvars]]  # (shift, unit key) of each z_i
    pairs = (
        (k - unit, c * e)
        for k, c in f.terms.items()
        for s, unit in fields
        if (e := (k >> s) & _FIELD)
    )
    return SparsePolynomial(f.nvars, _add_into({}, pairs))


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
        for k, c in f.terms.items():
            levels.setdefault((k >> si) & _FIELD, []).append((k, c * scale))
    if not levels:
        return SparsePolynomial.zero(nvars)
    quo: dict = {}
    carry: dict = {}  # q_(t-1) z_i^(t-1)
    for t in range(max(levels), 0, -1):
        carry = {k + down: c for k, c in carry.items()}
        _add_into(carry, ((k - unit_i, c) for k, c in levels.get(t, ())))
        quo.update(carry)
    rem = _add_into({k + unit_j: c for k, c in carry.items()}, levels.get(0, ()))
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
    if not content:
        return p
    # smallest powers first: the product grows most slowly that way
    for (i, j), e in sorted(content.items(), key=lambda kv: (kv[1], kv[0])):
        p = p * _zdiff_power(p.nvars, i, j, e)
    return p


def discriminant_power(nvars: int, e: int) -> SparsePolynomial:
    """The expanded product of (z_i - z_j)^e over all pairs i < j."""
    return _discriminant(nvars, e).expand()


@cache
def _discriminant(nvars: int, e: int) -> "ContentPolynomial":
    """The same in content form, one value per (nvars, e), which every
    family over it holds as its denominator."""
    content = dict.fromkeys(combinations(range(1, nvars + 1), 2), e) if e else {}
    return ContentPolynomial._of(content, SparsePolynomial.constant(nvars, 1))


def _quotient(p: SparsePolynomial, i: int, j: int) -> SparsePolynomial | None:
    """p / (z_i - z_j), or None when z_i - z_j does not divide p.  A term
    free of both z_i and z_j is the only one of p to keep its key when
    z_i is set to z_j, so p does not vanish there: no division is tried."""
    if not all(k & (_FIELD << _SHIFTS[i - 1] | _FIELD << _SHIFTS[j - 1]) for k in p.terms):
        return None
    try:
        return _divide_by_z_diff(p, i, j)
    except NonDivisibleError:
        return None


def _least_content(contents) -> dict:
    """Each pair's least exponent over the content maps `contents` (0, so
    left out, where a map lacks the pair); empty for no maps."""
    contents = iter(contents)
    least = dict(next(contents, {}))
    for content in contents:
        least = {pd: min(e, content[pd]) for pd, e in least.items() if pd in content}
    return least


def _linear_combination(pairs):
    """sum of c * v over (scalar, value) pairs, one pair at least: values
    of `ContentPolynomial` through `ContentPolynomial.combine`, which
    factors the sum once however many pairs there are, other values (ints,
    `SparsePolynomial`) by `*` and `+`.  A lone pair (1, v) is v itself."""
    c, v = pairs[0]
    if len(pairs) == 1 and c == 1:
        return v
    if type(v) is ContentPolynomial:
        return ContentPolynomial.combine(pairs)
    return sum((c * v for c, v in pairs[1:]), c * v)


class ContentPolynomial(Frozen):
    """A polynomial in z_1..z_n held as its z-difference content times a
    core:

        prod over (i, j) in content of (z_i - z_j)^content[(i, j)]  *  core,

    `content` mapping pairs i < j to positive exponents and `core` a
    `SparsePolynomial` that no z_i - z_j divides (zero has empty content).
    Each z_i - z_j is prime in Q[z], so the largest power of it dividing a
    polynomial is unique: the form is canonical, and equality is equality
    of the fields.  The constructor refuses (ValueError) a core that some
    z_i - z_j divides, by trial division on the core; `factor` moves every
    such power into the content instead.

    Degree, homogeneity, integrality and the leading term are read off
    the core: the content is homogeneous and primitive (so, by Gauss's
    lemma, the value is integral exactly when the core is), and leading
    terms multiply, (z_i - z_j)^e leading with (-1)^e z_j^e.  Relabeling
    maps pairs to pairs, with a sign (-1)^e for each pair that turns
    round, so it keeps the form canonical; so do negation and products,
    since a product of cores no z_i - z_j divides is one.  A sum or a
    difference multiplies each core by its content in excess of the
    common one, and then extracts whatever content the sum gained.

    `expand` multiplies the content back in (`_times_content`) once and
    keeps the result.  `to_json`, `str` and a comparison with a
    `SparsePolynomial` expand; `hash` is that of the expansion, which a
    `SparsePolynomial` equal to the value shares."""

    __slots__ = ("content", "core", "_expanded")

    def __init__(self, content: dict, core: SparsePolynomial):
        if type(core) is not SparsePolynomial:
            raise ValueError("the core must be a SparsePolynomial")
        pairs = list(combinations(range(1, core.nvars + 1), 2))
        if not all(type(pd) is tuple and pd in pairs and type(e) is int and e > 0
                   for pd, e in content.items()):
            raise ValueError(f"bad content {content!r} in {core.nvars} variables")
        if content and not core:
            raise ValueError("zero has no z-difference content")
        if core and (divides := [pd for pd in pairs if _quotient(core, *pd) is not None]):
            raise ValueError("z{} - z{} divides the core".format(*divides[0]))
        self._set(dict(content), core, None)

    @classmethod
    def _of(cls, content: dict, core: SparsePolynomial) -> "ContentPolynomial":
        """A value that is canonical by construction."""
        value = object.__new__(cls)
        setattr = object.__setattr__  # direct stores skip `_set`'s loop
        setattr(value, "content", content)
        setattr(value, "core", core)
        setattr(value, "_expanded", None)
        return value

    @classmethod
    def factor(cls, p, content: dict | None = None) -> "ContentPolynomial":
        """p times prod (z_i - z_j)^content[(i, j)] (default: p), in
        canonical form: each power of a z_i - z_j that divides p is
        divided out and moved into the content.  A `ContentPolynomial` p
        with no `content` is returned as it is."""
        if type(p) is cls and not content:
            return p
        content = dict(content or {}) if p else {}
        for i, j in combinations(range(1, p.nvars + 1), 2):
            while p and (q := _quotient(p, i, j)) is not None:
                p = q
                content[(i, j)] = content.get((i, j), 0) + 1
        return cls._of(content, p)

    @property
    def nvars(self) -> int:
        return self.core.nvars

    def expand(self) -> SparsePolynomial:
        """The value as a `SparsePolynomial`, built once."""
        if (out := self._expanded) is None:
            out = _times_content(self.core, self.content)
            object.__setattr__(self, "_expanded", out)
        return out

    def expand_over(self, content: dict) -> SparsePolynomial:
        """The value divided by prod (z_i - z_j)^content[(i, j)], expanded;
        `content` must be at most the value's own (any, for zero)."""
        excess = {pd: e - content.get(pd, 0) for pd, e in self.content.items()}
        return _times_content(self.core, {pd: e for pd, e in excess.items() if e})

    # ------------------------------------------------------------------
    # predicates, read off the core
    def is_zero(self) -> bool:
        return not self.core

    def __bool__(self) -> bool:
        return bool(self.core)

    def degree(self) -> int:
        """Total degree; -1 for zero."""
        return self.core.degree() + sum(self.content.values()) if self.core else -1

    def is_homogeneous(self) -> bool:
        return self.core.is_homogeneous()

    def has_integer_coefficients(self) -> bool:
        return self.core.has_integer_coefficients()

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """As `SparsePolynomial.leading_term`, of the product."""
        exps, c = self.core.leading_term()
        exps = list(exps)
        for (_, j), e in self.content.items():
            exps[j - 1] += e
            if e & 1:
                c = -c
        return tuple(exps), c

    def discriminant_form(self) -> tuple[int, object] | None:
        """`(p, C)` when the value is C * Delta^p, Delta = prod_{i<j}
        (z_i - z_j), C a non-zero constant (the core), read off the
        fields: every pair has exponent p, or none has (p = 0).  Else None."""
        exps = {self.content.get(pd, 0) for pd in combinations(range(1, self.nvars + 1), 2)}
        if len(exps) > 1 or not self.core or not self.core.is_constant():
            return None
        return max(exps, default=0), self.core.constant_value()

    def evaluate(self, values):
        """Exact value at a point (one number per variable)."""
        total = self.core.evaluate(values)
        for (i, j), e in self.content.items():
            total *= (values[i - 1] - values[j - 1]) ** e
        return total

    def restrict_last_to_zero(self) -> "ContentPolynomial":
        """The slice z_n = 0, with nothing expanded: each (z_i - z_n)^e
        becomes z_i^e, a shift of the sliced core's keys.  The other pairs
        stay content, with any power of them the sliced core gains
        (`factor`, before the shift: z_i^e is prime to every z_a - z_b)."""
        n = self.nvars
        shift = sum(e << _SHIFTS[i - 1] for (i, j), e in self.content.items() if j == n)
        content = {pd: e for pd, e in self.content.items() if pd[1] != n}
        value = ContentPolynomial.factor(self.core.restrict_last_to_zero(), content)
        terms = {k + shift: c for k, c in value.core.terms.items()}
        _check_cap(terms)
        return ContentPolynomial._of(value.content, SparsePolynomial(n, terms))

    def permute_variables(self, image: tuple[int, ...]) -> "ContentPolynomial":
        """Substitute z_i -> z_image[i-1]; image must be a permutation of 1..n."""
        core = self.core.permute_variables(image)
        if core is self.core:
            return self  # the identity
        content, sign = {}, 1
        for (i, j), e in self.content.items():
            a, b = image[i - 1], image[j - 1]
            if a > b:
                a, b = b, a
                sign = -sign if e & 1 else sign
            content[(a, b)] = e
        return ContentPolynomial._of(content, core if sign > 0 else -core)

    # ------------------------------------------------------------------
    # arithmetic
    def _operand(self, other):
        """`other` as a value of this ring, a scalar or a `SparsePolynomial`
        factored, or None for any other type."""
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.nvars, other)
        if not isinstance(other, (SparsePolynomial, ContentPolynomial)):
            return None
        other = ContentPolynomial.factor(other)
        self.core._require_same_ring(other.core)
        return other

    @classmethod
    def combine(cls, pairs) -> "ContentPolynomial":
        """sum of c * v over (c, v) pairs, one at least, of non-zero
        scalars c and values v of one ring (a `SparsePolynomial` v is
        factored first): each core is multiplied by its value's content
        in excess of the content the non-zero values share, the products
        are added in one map, and the sum is factored once.  A lone pair
        (1, v) is v itself."""
        pairs = list(pairs)
        nvars = pairs[0][1].nvars
        pairs = [(c, cls.factor(v)) for c, v in pairs if v]
        if len(pairs) == 1 and pairs[0][0] == 1:
            return pairs[0][1]
        common = _least_content(v.content for _, v in pairs)
        terms: dict = {}
        for c, v in pairs:
            core = v.expand_over(common).terms
            scaled = ((k, demote(x * c)) for k, x in core.items())
            _add_into(terms, core.items() if c == 1 else scaled)
        return cls.factor(SparsePolynomial(nvars, terms), common)

    def __add__(self, other):
        if (other := self._operand(other)) is None:
            return NotImplemented
        return ContentPolynomial.combine(((1, self), (1, other)))

    __radd__ = __add__

    def __sub__(self, other):
        if (other := self._operand(other)) is None:
            return NotImplemented
        return ContentPolynomial.combine(((1, self), (-1, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ContentPolynomial._of(self.content, -self.core)

    def __mul__(self, other):
        if (other := self._operand(other)) is None:
            return NotImplemented
        core = self.core * other.core
        content = _add_into(dict(self.content), other.content.items()) if core else {}
        return ContentPolynomial._of(content, core)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ContentPolynomial):
            return self.core == other.core and self.content == other.content
        if isinstance(other, SparsePolynomial):
            return self.expand() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.expand())

    # ------------------------------------------------------------------
    # presentation: the expansion's
    def to_json(self) -> dict:
        return self.expand().to_json()

    def __str__(self) -> str:
        return str(self.expand())

    __repr__ = __str__


# ----------------------------------------------------------------------
# factored Laurent sums


def z_atom(i: int) -> tuple:
    """Fixed point z_i, as (0, i).  Atoms are tuples whose own order is
    the canonical one, fixed points by index and then variables by
    (level, row, column); it orients every factor of a `FactoredSum`."""
    return (0, i)


def t_atom(row: int, col: int, level: int) -> tuple:
    """Level-`level` variable of box (row, col), as (1, level, row, col)."""
    return (1, level, row, col)


def is_t_atom(a: tuple) -> bool:
    return a[0] == 1


def _freeze(fmap: dict) -> tuple:
    return tuple(sorted(fmap.items()))


class FactoredSum(Frozen):
    """Sum of terms  coefficient * prod (a - b)^e  over distinct atoms a, b.

    Factor orientation is canonical (a < b in the atom order of `z_atom`),
    with the sign folded into the coefficient, and each term key lists
    its pairs in that order; terms with identical factor maps are merged
    and zero terms dropped, so equality of the maps is equality of the
    sums term by term.
    """

    __slots__ = ("terms",)
    __hash__ = None  # its terms are a dict

    def __init__(self, terms: dict | None = None):
        object.__setattr__(self, "terms", terms if terms is not None else {})

    @classmethod
    def zero(cls) -> "FactoredSum":
        return cls()

    @classmethod
    def term(cls, coeff, factors=()) -> "FactoredSum":
        """One term from (a, b, exponent) triples; orientation is normalized."""
        if not coeff:
            return cls()
        pairs = []
        sign = 1
        for a, b, e in factors:
            if a == b:
                raise ValueError(f"degenerate difference at atom {atom_str(a)}")
            if type(e) is not int:
                raise ValueError(f"exponent must be an int, got a {type(e).__name__}: {e!r}")
            if a > b:
                a, b = b, a
                if e % 2:
                    sign = -sign
            pairs.append(((a, b), e))
        return cls({_freeze(_add_into({}, pairs)): coeff * sign})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "FactoredSum") -> "FactoredSum":
        return FactoredSum(_add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "FactoredSum") -> "FactoredSum":
        return self + other.scale(-1)

    def scale(self, c) -> "FactoredSum":
        if not c:
            return FactoredSum()
        return FactoredSum({key: v * c for key, v in self.terms.items()})

    def __mul__(self, other: "FactoredSum") -> "FactoredSum":
        products = (
            (_freeze(_add_into(dict(k1), k2)), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        )
        return FactoredSum(_add_into({}, products))

    def relabel(self, mapping: dict) -> "FactoredSum":
        """Apply an atom relabeling; orientation signs are re-normalized."""
        out: dict = {}
        for key, c in self.terms.items():
            moved = [(mapping.get(a, a), mapping.get(b, b), e) for (a, b), e in key]
            _add_into(out, FactoredSum.term(c, moved).terms.items())
        return FactoredSum(out)

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
                f"({atom_str(a)}-{atom_str(b)})^{e}" for (a, b), e in key
            )
            parts.append(f"{c}" + (f"*{fac}" if fac else ""))
        return " + ".join(parts)

    __repr__ = __str__


def atom_str(a: tuple) -> str:
    """An atom as it prints: `z3` for z_atom(3), `t[2,1]_1` for t_atom(2, 1, 1)."""
    if is_t_atom(a):
        return f"t[{a[2]},{a[3]}]_{a[1]}"
    return f"z{a[1]}"


class NormalizeError(ArithmeticError):
    """A factored sum expected to be polynomial was not; carries the remainder."""

    def __init__(self, remainder: SparsePolynomial):
        super().__init__("factored sum does not expand to a polynomial")
        self.remainder = remainder


def normalize_factored(fs: FactoredSum, nvars: int) -> ContentPolynomial:
    """A fixed-point-only factored sum as a polynomial, in content form.

    With lo(a, b) the least exponent of a - b over all terms (0 where a
    term lacks the factor), the sum is

        sum_k c_k prod (a - b)^e_k  =  prod (a - b)^lo * sum_k c_k prod (a - b)^(e_k - lo),

    so only the residual sum on the right, whose exponents are all
    non-negative, is expanded.  It is divided exactly by the pairs with
    lo < 0; the pairs with lo > 0 stay as content, with whatever power of
    a z_i - z_j still divides the quotient (`ContentPolynomial.factor`),
    and nothing is multiplied back.  Failure to divide raises
    NormalizeError with the offending remainder.
    """
    terms = []
    for coeff, key in fs.iter_terms():
        for (a, b), _ in key:
            if is_t_atom(a) or is_t_atom(b):
                raise ValueError("normalize_factored needs fixed-point atoms only")
        terms.append((coeff, dict(key)))
    pairs = sorted({pd for _, fmap in terms for pd in fmap})
    lo = {pd: min(fmap.get(pd, 0) for _, fmap in terms) for pd in pairs}
    num: dict = {}  # the residual sum, accumulated in place
    for coeff, fmap in terms:
        poly = SparsePolynomial.constant(nvars, coeff)
        for (a, b), least in lo.items():
            e = fmap.get((a, b), 0) - least
            if e:
                poly = poly * _zdiff_power(nvars, a[1], b[1], e)
        _add_into(num, poly.terms.items())
    quo = SparsePolynomial(nvars, num)
    for (a, b), least in lo.items():
        for _ in range(-least):
            try:
                quo = _divide_by_z_diff(quo, a[1], b[1])
            except NonDivisibleError as exc:
                raise NormalizeError(exc.remainder) from None
    content = {(a[1], b[1]): e for (a, b), e in lo.items() if e > 0}
    return ContentPolynomial.factor(quo, content)


# ----------------------------------------------------------------------
# matrices


def _stripped(rows) -> tuple[list, list, list]:
    """`(columns, row_parts, col_parts)` with M[r][c] == f_r * g_c *
    M'[r][c]: `columns` are the columns of M', expanded, and `row_parts[r]`
    (`col_parts[c]`) counts the powers of each z_i - z_j in f_r (g_c), the
    largest product of them dividing row r of M (column c of the
    row-stripped matrix).  Each z_i - z_j is prime, so that power is the
    least over the line's non-zero entries of each entry's own, read off
    its content (a `SparsePolynomial` entry is factored once).  An
    all-zero row or column is left as it is, with empty content, since
    every power divides zero."""
    rows = [[ContentPolynomial.factor(a) for a in row] for row in rows]
    row_parts = [Counter(_least_content(a.content for a in row if a)) for row in rows]
    col_parts = [
        Counter(_least_content(Counter(a.content) - f for a, f in zip(col, row_parts) if a))
        for col in zip(*rows)
    ]
    columns = [
        [a.expand_over(f + g) for a, f in zip(col, row_parts)]
        for col, g in zip(zip(*rows), col_parts)
    ]
    return columns, row_parts, col_parts


def _square_rows(matrix) -> list:
    rows = [list(r) for r in matrix]
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
    columns, row_parts, col_parts = _stripped(rows)
    minors = _subset_minors(columns, SparsePolynomial.constant(nvars, 1))
    det = minors.get((1 << len(rows)) - 1, SparsePolynomial.zero(nvars))
    return columns, row_parts, col_parts, sum(row_parts + col_parts, Counter()), det


def determinant(matrix) -> SparsePolynomial:
    """Determinant alone.

    Rests on multilinearity in rows and columns: if M[r][c] equals
    f_r * g_c * M'[r][c] for all r, c, then

        det(M)  =  prod_r f_r * prod_c g_c * det(M').

    Each f_r (then each g_c) is the largest product of powers of
    z_i - z_j dividing the whole row (column), read off the entries'
    content (`_stripped`); det(M') is computed and the stripped powers
    are multiplied back once.  An all-zero row or
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


def det_adjugate(matrix) -> tuple[ContentPolynomial, tuple]:
    """Determinant and adjugate, as a tuple of rows, of a square matrix
    of polynomials given as a sequence of rows.

    With M[r][c] = f_r * g_c * M'[r][c] as in `determinant` (an all-zero
    row or column left unstripped), and F, G the products of all f_r,
    all g_c: every minor of M is the minor of M' times the content of its
    rows and columns, so

        det(M) = F G det(M'),   adj(M)[i][j] = F G / (f_j g_i) adj(M')[i][j],

    and (M adj(M))[r][s] = F G f_r / f_s (M' adj(M'))[r][s].  Hence
    M adj(M) == det(M) I holds exactly when M' adj(M') == det(M') I,
    which is asserted on the stripped matrix, one product of sparse
    term maps per entry (ArithmeticError otherwise).
    Nothing is multiplied back: the results are `ContentPolynomial`s,
    the stripped content kept as content (`ContentPolynomial.factor`).

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
    for i, row in enumerate(zip(*columns)):  # row i of M' times column j of adj(M')
        for j in range(n):
            acc: dict = {}
            for a, line in zip(row, adj):
                _mul_into(acc, a.terms, line[j].terms)
            if acc != (det.terms if i == j else {}):
                raise ArithmeticError("adjugate identity failed; matrix arithmetic bug")
    adj = tuple(
        tuple(ContentPolynomial.factor(a, total - row_parts[i] - col_parts[j])
              for i, a in enumerate(row))
        for j, row in enumerate(adj)
    )
    return ContentPolynomial.factor(det, total), adj

