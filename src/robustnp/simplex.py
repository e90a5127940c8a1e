"""Exact two-phase simplex over rationals, with dual extraction.

This is a small dense implementation sized for the LPs built elsewhere in
the package: a handful of variables and a few dozen rows. Each tableau row
is a vector of Python ints over its own positive integer denominator, kept
in lowest terms, so a pivot is integer multiply, subtract and one gcd per
row it touches. The data are `fractions.Fraction`s only where they enter
and where the result is assembled. Nothing is rounded, so "optimal" means
optimal, not optimal up to a tolerance, and the duals returned here can be
used in exact complementary slackness checks.

Bounds ``x_j <= u_j`` stay out of the tableau (Dantzig's upper-bounding
technique): a variable at its bound is complemented, ``x_j = u_j - x_j'``,
by negating its column and moving ``u_j a_j`` into the right-hand side. The
ratio test has three kinds of candidate: a basic variable falling to 0, a
bounded basic variable rising to its bound (complemented, then pivoted out
at 0) and the entering variable's own bound (a flip, with no pivot).

Bland's rule picks the entering column (smallest index with a negative
reduced cost) and the candidate (smallest variable index among tied
ratios, a flip counting as the entering index), which rules out cycling on
the degenerate instances the testing problems like to produce. Each step
is a Bland pivot of the same LP with explicit rows ``x_j + s_j = u_j``
under the order ``x_0 < s_0 < x_1 < ... < slacks < artificials``: a flip
is ``x_s`` entering for ``s_s``, a rise is ``s_B`` leaving, and at most one
of each pair is nonbasic or a candidate. So the rule is finite (Bland
1977). A flip with ``u_j > 0`` strictly improves the objective.

Conventions (documented once, relied on everywhere):

* Problems are ``min``/``max`` of ``c . x`` subject to ``a_ub x <= b_ub``,
  ``a_eq x = b_eq`` and ``0 <= x <= upper``; ``upper`` holds a nonnegative
  rational or ``None`` (no bound) per variable. With ``upper=None`` the
  pivots are those of the unbounded simplex and ``y_upper`` is ``None``.
* ``y_upper`` prices the bound rows in the sign convention of ``y_ub`` (0
  where there is no bound), and
  ``value = b_ub . y_ub + b_eq . y_eq + upper . y_upper`` exactly.
* For ``sense="max"``: ``y_ub, y_upper >= 0`` and
  ``reduced_costs = A^T y + y_upper - c >= 0``.
* For ``sense="min"``: ``y_ub, y_upper <= 0`` and
  ``reduced_costs = c - A^T y - y_upper >= 0``.
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
    The remaining fields are ``None`` unless the status is ``"optimal"``;
    ``y_upper`` is also ``None`` when the problem had no ``upper``.
    """

    status: str
    x: "tuple[Fraction, ...] | None" = None
    value: "Fraction | None" = None
    y_ub: "tuple[Fraction, ...] | None" = None
    y_eq: "tuple[Fraction, ...] | None" = None
    reduced_costs: "tuple[Fraction, ...] | None" = None
    y_upper: "tuple[Fraction, ...] | None" = None


def _frac(v) -> Fraction:
    """``Fraction(v)``, without rebuilding a value that already is one."""
    return v if isinstance(v, Fraction) else Fraction(v)


def _scale(values: list[Fraction]) -> tuple[list[int], int]:
    """Integers over the least common denominator of ``values``."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """``row/den`` in lowest terms."""
    g = math.gcd(den, *row)
    if g > 1:
        row = [v // g for v in row]
        den //= g
    return row, den


def _eliminate(
    row: list[int], den: int, prow: list[int], pd: int, f: int
) -> tuple[list[int], int]:
    """``row/den - (f/den) * prow/pd`` as integers over a positive denominator."""
    return _reduce([a * pd - f * b for a, b in zip(row, prow)], den * pd)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: "Sequence[Sequence[Fraction]] | None" = None,
    b_ub: "Sequence[Fraction] | None" = None,
    a_eq: "Sequence[Sequence[Fraction]] | None" = None,
    b_eq: "Sequence[Fraction] | None" = None,
    sense: str = "min",
    upper: "Sequence[Fraction | None] | None" = None,
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
    bound: "list[Fraction | None]" = [None] * n
    if upper is not None:
        if len(upper) != n:
            raise ValueError(f"upper has {len(upper)} entries, expected {n}")
        bound = [None if u is None else _frac(u) for u in upper]
        if any(u is not None and u < 0 for u in bound):
            raise ValueError("upper bounds must be nonnegative")

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
    bound += [None] * (n_cols - n)
    # comp[j]: column j holds the complement u_j - x_j rather than x_j.
    comp = [False] * n

    # The tableau: row r is the integer vector rows[r] over the positive
    # denominator dens[r], in lowest terms. Row m is the reduced-cost row;
    # its last entry is not read.
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
        prow, pd = _reduce(prow, pd)
        rows[r], dens[r] = prow, pd
        for i in range(m + 1):
            if i != r:
                f = rows[i][j]
                if f:
                    rows[i], dens[i] = _eliminate(rows[i], dens[i], prow, pd, f)
        basis[r] = j

    def complement(j: int) -> None:
        # Substitute x_j = u_j - x_j' in every row. For a basic x_j only its
        # own row changes, and the pivot that follows takes x_j' out at 0.
        p, q = bound[j].numerator, bound[j].denominator
        for i in range(m + 1):
            row = rows[i]
            a = row[j]
            if not a:
                continue
            if q == 1:
                row[n_cols] -= a * p
                row[j] = -a
            else:
                row = [v * q for v in row]
                row[n_cols] -= a * p
                row[j] = -a * q
                rows[i], dens[i] = _reduce(row, dens[i] * q)
        comp[j] = not comp[j]

    def run_phase(banned: frozenset[int]) -> str:
        for _ in range(_MAX_PIVOTS):
            cost = rows[m]
            enter = next((j for j in range(n_cols) if cost[j] < 0 and j not in banned), -1)
            if enter < 0:
                return "optimal"
            # Candidate steps are ratios t_n / t_d with t_d > 0, compared
            # crosswise, ties to the smaller variable index; row m stands for
            # the entering variable's own bound.
            leave = key = -1
            best_n = best_d = 0
            if (u := bound[enter]) is not None:
                leave, key, best_n, best_d = m, enter, u.numerator, u.denominator
            for r in range(m):
                a = rows[r][enter]
                if a > 0:  # falls to 0 at b_r / a_r; the row denominators cancel
                    t_n, t_d = rows[r][n_cols], a
                elif a < 0 and (u := bound[basis[r]]) is not None:  # rises to u
                    t_n = u.numerator * dens[r] - u.denominator * rows[r][n_cols]
                    t_d = -a * u.denominator
                else:
                    continue
                if leave < 0 or t_n * best_d < best_n * t_d or (
                    t_n * best_d == best_n * t_d and basis[r] < key
                ):
                    leave, key, best_n, best_d = r, basis[r], t_n, t_d
            if leave < 0:
                return "unbounded"
            if leave == m:
                complement(enter)
                continue
            if rows[leave][enter] < 0:
                complement(basis[leave])
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

    price([-v if comp[j] else v for j, v in enumerate(c_int)] + [ZERO] * (n_cols - n))
    if run_phase(art_cols) == "unbounded":
        return LpSolution("unbounded")
    cost, cden = rows[m], dens[m]

    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(rows[r][n_cols], dens[r])
    reduced = [Fraction(v, cden) for v in cost[:n]]
    # A complemented x_j sits at its bound, and its column's reduced cost
    # cbar' is -cbar_j: the bound row takes y_upper = -cbar' (internal min
    # sense) and leaves x_j a reduced cost of 0.
    y_upper = [ZERO] * n
    for j in range(n):
        if comp[j]:
            x[j] = bound[j] - x[j]
            y_upper[j] = reduced[j] if sense == "max" else -reduced[j]
            reduced[j] = ZERO
    value = sum((cv * xv for cv, xv in zip(c_raw, x) if cv and xv), ZERO)

    # Duals of the internal (normalized, minimization) problem, read off the
    # final reduced costs of each row's identity column: for an artificial
    # column (+e_r, cost 0) cbar = -y_r; for a plain slack likewise.
    # Complementing columns leaves y = c_B B^-1 unchanged. A row that was
    # sign-flipped during normalization gets its multiplier negated to speak
    # about the caller's original row, and a "max" problem negates once more
    # (the internal problem minimized -c).
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
        reduced_costs=tuple(reduced),
        y_upper=None if upper is None else tuple(y_upper),
    )
