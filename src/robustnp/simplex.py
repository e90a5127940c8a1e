"""Exact two-phase simplex over rationals, with dual extraction.

This is a small dense implementation sized for the LPs built elsewhere in
the package: a handful of variables and a few dozen rows. Each tableau row
is a vector of Python ints over its own positive integer denominator, kept
in lowest terms, so a pivot is integer multiply, subtract and one gcd per
row it touches. The data are `fractions.Fraction`s only where they enter
and where the result is assembled. Nothing is rounded, so "optimal" means
optimal, not optimal up to a tolerance, and the duals returned here can be
used in exact complementary slackness checks. Bland's rule is used for both
entering and leaving choices, which rules out cycling on the degenerate
instances the testing problems like to produce.

Conventions (documented once, relied on everywhere):

* Problems are ``min``/``max`` of ``c . x`` subject to ``a_ub x <= b_ub``,
  ``a_eq x = b_eq`` and ``x >= 0``.
* ``value = b_ub . y_ub + b_eq . y_eq`` holds exactly for both senses.
* For ``sense="max"``: ``y_ub >= 0`` and ``reduced_costs = A^T y - c >= 0``.
* For ``sense="min"``: ``y_ub <= 0`` and ``reduced_costs = c - A^T y >= 0``.
* Complementary slackness holds exactly against the returned ``x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LpSolution:
    """Result of :func:`solve_lp`.

    ``status`` is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``.
    The remaining fields are ``None`` unless the status is ``"optimal"``.
    """

    status: str
    x: "tuple[Fraction, ...] | None" = None
    value: "Fraction | None" = None
    y_ub: "tuple[Fraction, ...] | None" = None
    y_eq: "tuple[Fraction, ...] | None" = None
    reduced_costs: "tuple[Fraction, ...] | None" = None


def _frac(v) -> Fraction:
    """``Fraction(v)``, without rebuilding a value that already is one."""
    return v if isinstance(v, Fraction) else Fraction(v)


def _scale(values: list[Fraction]) -> tuple[list[int], int]:
    """Integers over the least common denominator of ``values``."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _eliminate(
    row: list[int], den: int, prow: list[int], pd: int, f: int
) -> tuple[list[int], int]:
    """``row/den - (f/den) * prow/pd`` as integers over a positive denominator."""
    new = [a * pd - f * b for a, b in zip(row, prow)]
    den *= pd
    g = math.gcd(den, *new)
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


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
    c_raw = [_frac(v) for v in c]
    n = len(c_raw)
    if n == 0:
        raise ValueError("need at least one variable")
    rows_ub = [[_frac(v) for v in row] for row in (a_ub or [])]
    rhs_ub = [_frac(v) for v in (b_ub or [])]
    rows_eq = [[_frac(v) for v in row] for row in (a_eq or [])]
    rhs_eq = [_frac(v) for v in (b_eq or [])]
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

    # The tableau: row r is the integer vector rows[r] over the positive
    # denominator dens[r], in lowest terms. Row m is the reduced-cost row.
    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for r in range(m):
        scaled, den = _scale(body[r] + [rhs[r]])
        trow = scaled[:n] + [0] * (n_cols - n) + scaled[n:]
        if r in slack_col:
            # Flipped ub rows carry a surplus variable instead of a slack.
            trow[slack_col[r]] = -den if meta[r][2] else den
        if r in art_col:
            trow[art_col[r]] = den
        rows.append(trow)
        dens.append(den)
        basis.append(art_col[r] if r in art_col else slack_col[r])
    rows.append([])
    dens.append(1)

    def price(costs: list[Fraction]) -> None:
        # Column basis[r] is the unit vector of row r, so eliminating it
        # leaves the other basic columns' costs untouched.
        cost, cden = _scale(costs + [ZERO])
        for r in range(m):
            f = cost[basis[r]]
            if f:
                cost, cden = _eliminate(cost, cden, rows[r], dens[r], f)
        rows[m], dens[m] = cost, cden

    def pivot(r: int, j: int) -> None:
        prow = rows[r]
        pd = prow[j]
        if pd < 0:
            prow = [-v for v in prow]
            pd = -pd
        g = math.gcd(pd, *prow)
        if g > 1:
            prow = [v // g for v in prow]
            pd //= g
        rows[r], dens[r] = prow, pd
        for i in range(m + 1):
            if i != r:
                f = rows[i][j]
                if f:
                    rows[i], dens[i] = _eliminate(rows[i], dens[i], prow, pd, f)
        basis[r] = j

    def run_phase(banned: frozenset[int]) -> str:
        for _ in range(_MAX_PIVOTS):
            cost = rows[m]
            enter = next((j for j in range(n_cols) if cost[j] < 0 and j not in banned), -1)
            if enter < 0:
                return "optimal"
            # Compare the ratios b_r / a_r crosswise: the row denominators
            # cancel, and every a_r taking part is positive.
            leave = -1
            best_b = best_a = 0
            for r in range(m):
                a = rows[r][enter]
                if a > 0:
                    b = rows[r][n_cols]
                    if leave < 0 or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[r] < basis[leave]
                    ):
                        leave, best_b, best_a = r, b, a
            if leave < 0:
                return "unbounded"
            pivot(leave, enter)
        raise RuntimeError("simplex did not terminate; this should be unreachable")

    # Phase 1: minimize the sum of artificial variables.
    if art_cols:
        price([ONE if j in art_cols else ZERO for j in range(n_cols)])
        if run_phase(frozenset()) != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        # Right-hand sides are nonnegative, so any nonzero one is a residue.
        if any(rows[r][n_cols] for r in range(m) if basis[r] in art_cols):
            return LpSolution("infeasible")
        # Drive basic artificials out where possible. Their rows have
        # right-hand side 0, so pivoting on any nonzero entry (either sign)
        # keeps the solution unchanged and feasible. A row with no nonzero
        # entry outside the artificial columns is a dependent row; it stays
        # identically zero through phase 2 and is harmless.
        for r in range(m):
            if basis[r] in art_cols:
                for j in range(n_cols):
                    if j not in art_cols and rows[r][j] != 0:
                        pivot(r, j)
                        break

    price(c_int + [ZERO] * (n_cols - n))
    if run_phase(art_cols) == "unbounded":
        return LpSolution("unbounded")
    cost, cden = rows[m], dens[m]

    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(rows[r][n_cols], dens[r])
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
        y_int = Fraction(-cost[art_col[r] if r in art_col else slack_col[r]], cden)
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
        reduced_costs=tuple([Fraction(v, cden) for v in cost[:n]]),
    )
