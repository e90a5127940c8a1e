"""Most powerful randomized tests between two single charges.

This is the classical two-measure construction on atoms, where the density
ratio of the alternative q to the null p is q_i / p_i whatever the reference
measure: sort atoms by that ratio, accept greedily from the top until the
level budget alpha runs out, and randomize with one constant on the class
where it runs out. Atoms where p vanishes but q does not have ratio
+infinity: they cost no level and are always accepted first.

When the alternative's support is too small to spend the whole budget the
test simply accepts that support and stops short of alpha; that situation
is flagged on the result rather than papered over by randomizing on atoms
that add level but no power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .charge_model import (
    ONE,
    ZERO,
    Charge,
    TestFunction,
    expectation,
    frac,
)


@dataclass(frozen=True)
class NpResult:
    """A most powerful level-alpha test for one pair of charges.

    ``test`` equals 1 where q_i > kappa * p_i, 0 where q_i < kappa * p_i, and
    on the boundary q_i = kappa * p_i the constant ``b`` if p_i > 0 and 0 if
    p_i = q_i = 0. ``attained_level`` is below ``alpha`` exactly when
    ``level_slack`` is set, and then kappa = b = 0. A ratio class whose null
    mass equals the budget left is accepted whole: kappa is the next class's
    ratio (0 if there is none) and b = 0.
    """

    kappa: Fraction
    b: Fraction
    test: TestFunction
    attained_level: Fraction
    power: Fraction
    level_slack: bool


def _ratio_classes(p, q, n: int) -> list[tuple[tuple[int, int], list[int]]]:
    """The first ``n`` slots of two charges' ``scaled`` forms grouped by the ratio q_i / p_i.

    A ratio is its lowest-terms pair ``(num, den)``, largest first by cross-multiplying.
    The class where p_i = 0 < q_i, ratio +infinity or (1, 0), is always first and
    may be empty; slots with p_i = q_i = 0 are in no class.
    """
    (pm, dp), (qm, dq) = p, q
    classes: dict[tuple[int, int], list[int]] = {(1, 0): []}
    for i in range(n):
        num, den = qm[i] * dp, pm[i] * dq
        if num or den:
            g = math.gcd(num, den)
            classes.setdefault((num // g, den // g), []).append(i)
    by_ratio = cmp_to_key(lambda r, s: s[0][0] * r[0][1] - r[0][0] * s[0][1])
    return sorted(classes.items(), key=by_ratio)  # largest first


def np_test(p: Charge, q: Charge, alpha: Fraction) -> NpResult:
    """Most powerful test of ``p`` against ``q`` at level ``alpha``.

    Both charges must be countably additive probability charges on one
    space. The returned test is exactly optimal: its power equals the
    maximum of the alternative expectation over all [0, 1]-valued tests
    with null expectation at most alpha.
    """
    alpha = frac(alpha)
    if not (ZERO < alpha < ONE):
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if p.space != q.space:
        raise ValueError("both charges must live on one sample space")
    if not p.is_countably_additive or not q.is_countably_additive:
        raise ValueError("tail mass present; this construction needs countably additive charges")
    if not p.is_probability or not q.is_probability:
        raise ValueError("both charges must be probability charges")

    space = p.space
    values = [ZERO] * space.n_atoms
    remaining = alpha
    kappa = ZERO
    b = ZERO
    for ratio, idxs in _ratio_classes(p.scaled, q.scaled, space.n_atoms):
        if not ratio[0]:
            break
        pmass = sum((p.atom_mass[i] for i in idxs), ZERO)
        if pmass <= remaining:
            for i in idxs:
                values[i] = ONE
            remaining -= pmass
            continue
        b = remaining / pmass
        for i in idxs:
            values[i] = b
        kappa = Fraction(*ratio)  # never +infinity: that class has null mass 0
        break

    test = TestFunction(space, tuple(values), ZERO)
    attained = expectation(p, test)
    power = expectation(q, test)
    return NpResult(
        kappa=kappa,
        b=b,
        test=test,
        attained_level=attained,
        power=power,
        level_slack=attained < alpha,
    )
