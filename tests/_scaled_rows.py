"""Rational LPs through the integer-only :func:`robustnp.simplex.solve_lp`.

``solve_lp`` takes ``c`` and every ``a_ub`` row as ints, as the minimax
programs write them from the charges' ``scaled`` integers. The tests draw
rational LPs, so :func:`solve_scaled` writes each row, and its right-hand
side, over the least common denominator L of the row's entries
(``charge_model._scale``), and ``c`` over its own, solves, and maps the
answer back to the rational program: the value and every dual over ``c``'s
scale, and each row's dual times its L. The Fraction reference in
``_fraction_simplex.py`` prices a slack at its reduced cost over L, which
is the library's price on the scaled row, so the two make the same pivots
and must return equal solutions.
"""

from __future__ import annotations

from fractions import Fraction

from robustnp.charge_model import _scale
from robustnp.simplex import LpSolution, solve_lp


def solve_scaled(c, a_ub=None, b_ub=None, *, upper=None) -> LpSolution:
    """``solve_lp`` of the rational program, on its rows' integer forms."""
    cost, kc = _scale([Fraction(v) for v in c])
    rows = [_scale([Fraction(v) for v in row]) for row in a_ub or []]
    b_ub = [Fraction(b) * k for b, (_, k) in zip(b_ub or [], rows)]
    sol = solve_lp(cost, [row for row, _ in rows], b_ub, upper=upper)
    if sol.status != "optimal":
        return sol
    return LpSolution(
        status=sol.status,
        x=sol.x,
        value=sol.value / kc,
        y_ub=tuple(y * k / kc for y, (_, k) in zip(sol.y_ub, rows)),
        y_eq=sol.y_eq,
        y_upper=None if sol.y_upper is None else tuple(y / kc for y in sol.y_upper),
    )
