"""Iterated residues of factored Laurent forms.

A cycle is encoded purely as an ordered schedule of single-variable
residue extractions; no radius parameter is ever represented.  The
geometry behind the schedule: each integration variable of level s runs
anti-clockwise on a circle of radius proportional to s around its
assigned fixed point.  Extracting residues innermost-first (levels
ascending) is then exact, because at the moment a level-s variable is
integrated

* every factor tying it to a level-(s+1) variable of the same chain has
  its other zero outside the circle (larger radius, same center),
* every factor tying it to a variable of level >= s around a different
  center stays bounded away from zero (centers are distinct fixed
  points, radii are small),
* every lower-level variable has already been eliminated.

Orientation convention: variables are ordered level-ascending, then by
box reading order; the volume element is taken in that order; each
circle is anti-clockwise, so a single extraction is literally "the
coefficient of tau^{-1} after substituting var = center + tau", with no
extra sign anywhere.  This fixes the global sign of every computed
solution.

One extraction is one coefficient.  With var = center + tau a term reads
c S tau^(-order-1) prod_j (D_j + s_j tau)^e_j, where S holds the factors
free of var, D_j is the difference of the center with the j-th other
atom joined to var and s_j = +/-1.  By the generalized binomial series
its residue is the sum over the picks k_1 + ... + k_r = order of
    c S prod_j C(e_j, k_j) s_j^k_j D_j^(e_j - k_j).
Distinct picks (k_1, ..., k_r) differ in the exponent of some D_j, so no
two picks of a term merge; only equal monomials of different terms add.
The orientation of each D_j is fixed once per term, not once per pick.
"""
from __future__ import annotations

from functools import cache
from math import comb

from .exactalg import FactoredSum, _add_into, atom_str, is_t_atom, t_atom, z_atom
from .shapes import Numbering


def binom_int(e: int, k: int) -> int:
    """Generalized binomial coefficient C(e, k) for integer e of any sign.

    Always an integer: for e >= 0 it is the ordinary binomial (zero when
    k > e), for e < 0 it equals (-1)^k C(-e+k-1, k).
    """
    if k < 0:
        return 0
    if e >= 0:
        return comb(e, k) if k <= e else 0
    c = comb(-e + k - 1, k)
    return -c if k % 2 else c


class ScheduleError(ValueError):
    """A residue schedule references variables in an impossible order."""


def residue_at(fs: FactoredSum, var: tuple, center: tuple) -> FactoredSum:
    """Residue of `fs` in the variable `var` on a small anti-clockwise
    circle around `center`: the coefficient of tau^{-1} after var =
    center + tau, term by term, as the module docstring states.  Each
    pick of a term, pruned once its tau degree passes the order, becomes
    one output term; terms with no pole at the center contribute nothing.

    Orientation is fixed once per term: each expander's output factor
    D_j is stored in the canonical order of `FactoredSum` (the smaller
    atom tuple first), the sign (-1)^(e_j - k) of a flipped pair
    folded into its series, and a complete pick's factors are merged
    into the term's spectators and sorted once into the output key.
    """
    if var == center:
        raise ValueError("residue center must differ from the variable")
    if not is_t_atom(var):
        raise ValueError(f"cannot integrate over the fixed point {atom_str(var)}")
    out: dict = {}  # the residue's terms, summed in place
    for coeff, key in fs.iter_terms():
        spectators = {}  # canonical pair -> exponent, as in the input key
        expanders = []  # (a, b, e, tau_sign): factor (a-b)^e with +/- tau
        tau_exp = 0
        sign = 1
        for pair, e in key:
            a, b = pair
            if a != var and b != var:
                spectators[pair] = e
            elif pair == (center, var) or pair == (var, center):
                tau_exp += e
                if b == var and e % 2:
                    sign = -sign  # (center - var)^e = (-tau)^e
            elif a == var:
                expanders.append((center, b, e, 1))  # (center - b + tau)^e
            else:
                expanders.append((a, center, e, -1))  # (a - center - tau)^e
        if tau_exp >= 0:
            continue  # analytic at the center
        order = -tau_exp - 1  # want the coefficient of tau^order
        picks = [(coeff * sign, 0, ())]  # (coefficient, tau degree, chosen factors)
        for a, b, e, tau_sign in expanders:
            # (a - b)^x = (-1)^x (b - a)^x keeps a flipped pair canonical
            flip = a > b
            pair = (b, a) if flip else (a, b)
            series = [
                binom_int(e, k) * tau_sign**k * (-1 if flip and (e - k) % 2 else 1)
                for k in range(order + 1)
            ]
            picks = [
                (c * series[k], d + k, chosen + ((pair, e - k),))
                for c, d, chosen in picks
                for k in range(order - d + 1)
                if series[k]
            ]
        residue = (
            (tuple(sorted(_add_into(dict(spectators), chosen).items())), c)
            for c, d, chosen in picks
            if d == order
        )
        _add_into(out, residue)
    return FactoredSum(out)


@cache
def residue_plan(cycle: Numbering) -> tuple[tuple[tuple, tuple], ...]:
    """The residue schedule realizing the torus cycle of a numbering.

    One step per integration variable t^b_s: levels ascending, boxes in
    row-major reading order within a level, each expanded about the
    fixed point carrying the label of its box.  Same-level steps commute
    (disjoint circles), so the reading order is a determinism choice,
    not a mathematical one.  Memoized per numbering.
    """
    lam = cycle.shape
    steps = []
    for s in range(1, lam.nrows):
        for r, c in lam.boxes():
            if r >= s + 1:
                steps.append((t_atom(r, c, s), z_atom(cycle.label(r, c))))
    return tuple(steps)


def iterated_residue(fs: FactoredSum, plan) -> FactoredSum:
    """Fold residue_at over the plan, innermost step first.

    The plan must cover every live variable of the form.  A schedule
    whose step centers on a variable still awaiting integration is
    rejected: the series expansion around such a center would not be
    valid on the nested circles.
    """
    plan = tuple(plan)
    planned = {var for var, _ in plan}
    if len(planned) != len(plan):
        raise ScheduleError("schedule integrates some variable twice")
    live = fs.live_variables()
    if not live <= planned:
        extra = ", ".join(map(atom_str, sorted(live - planned)))
        raise ScheduleError(f"form has variables outside the schedule: {extra}")
    for idx, (var, center) in enumerate(plan):
        if any(center == later_var for later_var, _ in plan[idx + 1 :]):
            raise ScheduleError(
                f"step for {atom_str(var)} expands about {atom_str(center)}, which is itself "
                "integrated later"
            )
        fs = residue_at(fs, var, center)
        if not fs:
            break
    return fs
