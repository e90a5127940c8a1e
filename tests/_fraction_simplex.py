"""The Fraction-tableau two-phase simplex, kept as a test reference.

This is the original all-`Fraction` implementation of
:func:`robustnp.simplex.solve_lp`, with the library's entering rule: the
most negative reduced cost, ties to the smaller index, and Bland's
smallest index right after a step whose winning ratio is 0. An ``a_ub``
row's slack is priced at its reduced cost over the least common
denominator L of the row's entries. The library takes only rows of ints,
and ``_scaled_rows.solve_scaled`` hands it each rational row times its L,
where the slack's price is exactly that: so the library on the scaled rows
makes the same pivots as this reference on the rational ones, and the two
must return equal :class:`~robustnp.simplex.LpSolution` values on every
input once the duals are mapped back; the tests in ``test_simplex.py``
compare them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from robustnp.simplex import _MAX_PIVOTS, LpSolution

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: "Sequence[Sequence[Fraction]] | None" = None,
    b_ub: "Sequence[Fraction] | None" = None,
    a_eq: "Sequence[Sequence[Fraction]] | None" = None,
    b_eq: "Sequence[Fraction] | None" = None,
    sense: str = "min",
) -> LpSolution:
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    c_raw = [Fraction(v) for v in c]
    n = len(c_raw)
    if n == 0:
        raise ValueError("need at least one variable")
    rows_ub = [[Fraction(v) for v in row] for row in (a_ub or [])]
    rhs_ub = [Fraction(v) for v in (b_ub or [])]
    rows_eq = [[Fraction(v) for v in row] for row in (a_eq or [])]
    rhs_eq = [Fraction(v) for v in (b_eq or [])]
    if len(rows_ub) != len(rhs_ub):
        raise ValueError("a_ub and b_ub disagree on the number of rows")
    if len(rows_eq) != len(rhs_eq):
        raise ValueError("a_eq and b_eq disagree on the number of rows")
    for row in rows_ub + rows_eq:
        if len(row) != n:
            raise ValueError(f"constraint row has {len(row)} entries, expected {n}")

    c_int = [-v for v in c_raw] if sense == "max" else list(c_raw)

    # Normalize to equality form with nonnegative right-hand sides.
    # meta: (kind, original index within its kind, flipped?)
    meta: list[tuple[str, int, bool]] = []
    body: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i, (row, b) in enumerate(zip(rows_ub, rhs_ub)):
        flipped = b < 0
        body.append([-v for v in row] if flipped else list(row))
        rhs.append(-b if flipped else b)
        meta.append(("ub", i, flipped))
    for i, (row, b) in enumerate(zip(rows_eq, rhs_eq)):
        flipped = b < 0
        body.append([-v for v in row] if flipped else list(row))
        rhs.append(-b if flipped else b)
        meta.append(("eq", i, flipped))
    m = len(body)

    # Column layout: x, then one slack/surplus per ub row, then artificials
    # for every eq row and every flipped ub row (those became >= rows).
    slack_col: dict[int, int] = {}
    art_col: dict[int, int] = {}
    col = n
    for r, (kind, _, _) in enumerate(meta):
        if kind == "ub":
            slack_col[r] = col
            col += 1
    for r, (kind, _, flipped) in enumerate(meta):
        if kind == "eq" or flipped:
            art_col[r] = col
            col += 1
    n_cols = col
    art_cols = frozenset(art_col.values())
    # The library, given a ub row times the least common denominator L of
    # its entries, prices that row's slack at cbar / L.
    weight = [ONE] * n_cols
    for r, (kind, orig, _) in enumerate(meta):
        if kind == "ub":
            weight[slack_col[r]] = Fraction(1, math.lcm(*(v.denominator for v in rows_ub[orig])))

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for r in range(m):
        trow = [ZERO] * (n_cols + 1)
        for j, v in enumerate(body[r]):
            trow[j] = v
        if r in slack_col:
            # Flipped ub rows carry a surplus variable instead of a slack.
            trow[slack_col[r]] = -ONE if meta[r][2] else ONE
        if r in art_col:
            trow[art_col[r]] = ONE
        trow[n_cols] = rhs[r]
        tableau.append(trow)
        basis.append(art_col[r] if r in art_col else slack_col[r])

    def price(costs: list[Fraction]) -> list[Fraction]:
        cbar = list(costs)
        for r in range(m):
            cb = costs[basis[r]]
            if cb != 0:
                trow = tableau[r]
                for j in range(n_cols):
                    if trow[j] != 0:
                        cbar[j] -= cb * trow[j]
        return cbar

    def pivot(r: int, j: int, cbar: list[Fraction]) -> None:
        prow = tableau[r]
        piv = prow[j]
        if piv != ONE:
            for k in range(n_cols + 1):
                if prow[k] != 0:
                    prow[k] /= piv
        for rr in range(m):
            if rr == r:
                continue
            orow = tableau[rr]
            f = orow[j]
            if f != 0:
                for k in range(n_cols + 1):
                    if prow[k] != 0:
                        orow[k] -= f * prow[k]
        f = cbar[j]
        if f != 0:
            for k in range(n_cols):
                if prow[k] != 0:
                    cbar[k] -= f * prow[k]
        basis[r] = j

    def run_phase(costs: list[Fraction], banned: frozenset[int]) -> tuple[str, list[Fraction]]:
        cbar = price(costs)
        bland = False
        for _ in range(_MAX_PIVOTS):
            enter = -1
            for j in range(n_cols):
                if j in banned or cbar[j] >= 0:
                    continue
                if enter < 0 or cbar[j] * weight[j] < cbar[enter] * weight[enter]:
                    enter = j
                if bland:
                    break
            if enter < 0:
                return "optimal", cbar
            leave = -1
            best: "Fraction | None" = None
            for r in range(m):
                a = tableau[r][enter]
                if a > 0:
                    ratio = tableau[r][n_cols] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return "unbounded", cbar
            bland = best == 0
            pivot(leave, enter, cbar)
        raise RuntimeError("simplex did not terminate; this should be unreachable")

    # Phase 1: minimize the sum of artificial variables.
    if art_cols:
        phase1_costs = [ONE if j in art_cols else ZERO for j in range(n_cols)]
        status, _ = run_phase(phase1_costs, frozenset())
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        residue = sum(
            (tableau[r][n_cols] for r in range(m) if basis[r] in art_cols), ZERO
        )
        if residue > 0:
            return LpSolution("infeasible")
        # Drive basic artificials out where possible. Their rows have
        # right-hand side 0, so pivoting on any nonzero entry (either sign)
        # keeps the solution unchanged and feasible. A row with no nonzero
        # entry outside the artificial columns is a dependent row; it stays
        # identically zero through phase 2 and is harmless.
        dummy = [ZERO] * n_cols
        for r in range(m):
            if basis[r] in art_cols:
                for j in range(n_cols):
                    if j not in art_cols and tableau[r][j] != 0:
                        pivot(r, j, dummy)
                        break

    phase2_costs = c_int + [ZERO] * (n_cols - n)
    status, cbar = run_phase(phase2_costs, art_cols)
    if status == "unbounded":
        return LpSolution("unbounded")

    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r][n_cols]
    value = sum((cv * xv for cv, xv in zip(c_raw, x)), ZERO)

    # Duals of the internal (normalized, minimization) problem, read off the
    # final reduced costs of each row's identity column: for an artificial
    # column (+e_r, cost 0) cbar = -y_r; for a plain slack likewise. A row
    # that was sign-flipped during normalization gets its multiplier negated
    # to speak about the caller's original row, and a "max" problem negates
    # once more (the internal problem minimized -c).
    y_ub_out = [ZERO] * len(rows_ub)
    y_eq_out = [ZERO] * len(rows_eq)
    for r, (kind, orig, flipped) in enumerate(meta):
        if r in art_col:
            y_int = -cbar[art_col[r]]
        else:
            y_int = -cbar[slack_col[r]]
        y = -y_int if flipped else y_int
        if sense == "max":
            y = -y
        if kind == "ub":
            y_ub_out[orig] = y
        else:
            y_eq_out[orig] = y

    return LpSolution(
        status="optimal",
        x=tuple(x),
        value=value,
        y_ub=tuple(y_ub_out),
        y_eq=tuple(y_eq_out),
    )
