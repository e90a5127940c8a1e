"""Exact simplex over rationals from the slack basis, with dual extraction.

This is a small dense implementation sized for the LPs built elsewhere in
the package: a handful of variables and a few dozen rows. Each tableau row
is a vector of Python ints over its own positive integer denominator, so a
pivot is integer multiply and subtract. The pivot row is put in lowest
terms, but a row from an elimination only once its denominator passes
``_REDUCE_BITS`` bits. Every sign test and ratio comparison below is
invariant under a positive scaling of a row, so the deferral changes no
pivot and no result. `fractions.Fraction`s are built in two places only:
where the inputs are coerced (``_frac``, which refuses floats, bools and
exponent strings), and for the nonzero entries of the result. The sign
checks run on the scaled integers, and the optimal value is read off the
cost row's right-hand side rather than summed as ``c . x``. Nothing is
rounded, so "optimal" means optimal, not optimal up to a tolerance, and
the duals returned here can be used in exact complementary slackness
checks. Every right-hand side must be nonnegative, so the slack basis
x = 0 is feasible and there is one phase: the callers write their
programs in that form.

Bounds ``x_j <= 1`` stay out of the tableau (Dantzig's upper-bounding
technique): a variable at its bound is complemented, ``x_j = 1 - x_j'``, by
negating its column and subtracting it from the right-hand side, so no row
denominator changes outside a pivot. The ratio test's candidates are a basic
variable falling to 0, a boxed one rising to 1 (complemented, then pivoted
out at 0) and the entering variable's own bound (a flip of length 1).

Pricing. The entering column is the one with the most negative reduced
cost, ties to the smaller index, except right after a step of length 0
(the winning ratio was 0), when it is Bland's: the smallest index with a
negative reduced cost. The candidate is always Bland's: the smallest
variable index among tied ratios, a flip counting as the entering index.
Each step is a pivot of the same LP with explicit rows ``x_j + s_j = 1``
under the order ``x_0 < s_0 < x_1 < ... < slacks``: a flip is ``x_s``
entering for ``s_s``, a rise is ``s_B`` leaving, and at most one of each
pair is nonbasic or a candidate.

Termination. The entering reduced cost is negative, so a step of nonzero
length, every flip included, strictly improves the objective, and no basis
repeats across such steps. A run of steps of length 0 has at most one
steepest-cost step, at its start; every later step of the run is a Bland
pivot, and Bland's rule cannot cycle (Bland 1977, *Math. Oper. Res.* 2).
Steepest-cost pricing alone can: Chvatal's example (*Linear Programming*,
1983, ch. 3) cycles under it, and ``tests/test_simplex.py`` solves it.

Conventions (documented once, relied on everywhere):

* Problems maximize ``c . x`` subject to ``a_ub x <= b_ub`` with
  ``b_ub >= 0`` and ``0 <= x <= upper``; ``upper`` holds ``1`` (boxed at 1)
  or ``None`` (free) per variable. Any other entry, or a negative ``b_ub``,
  raises ``ValueError``. With ``upper=None`` the pivots are those of the
  unbounded simplex and ``y_upper`` is ``None``. To minimize, pass ``-c``
  and negate ``value``.
* ``y_ub, y_upper >= 0``; ``y_upper`` prices the bound rows (0 where there
  is no bound), and ``value = b_ub . y_ub + upper . y_upper`` exactly.
* Dual feasibility: ``A^T y_ub + y_upper >= c``.
* Complementary slackness holds exactly against the returned ``x``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

_MAX_PIVOTS = 200_000

# A row from an elimination is divided by its gcd once its denominator has
# more bits than this.
_REDUCE_BITS = 256


@dataclass(frozen=True)
class LpSolution:
    """Result of :func:`solve_lp`.

    ``status`` is ``"optimal"`` or ``"unbounded"``; the slack basis is
    feasible, so no program is infeasible. The remaining fields are
    ``None`` unless the status is ``"optimal"``; ``y_upper`` is also
    ``None`` when the problem had no ``upper``. There are no equality rows,
    so ``y_eq`` is ``()``; the field keeps the result's shape for code that
    reads it. ``value`` is read off the final tableau, not summed, and
    equals both ``c . x`` and ``b_ub . y_ub + upper . y_upper`` exactly.
    Zero entries are the shared ``ZERO``.
    """

    status: str
    x: "tuple[Fraction, ...] | None" = None
    value: "Fraction | None" = None
    y_ub: "tuple[Fraction, ...] | None" = None
    y_eq: "tuple[Fraction, ...] | None" = None
    y_upper: "tuple[Fraction, ...] | None" = None


def _frac(v) -> Fraction:
    """Coerce an int, a ``"num/den"`` string, or a Fraction to a Fraction.

    A Fraction is returned as it is. Floats are refused on purpose: a float
    that looks like 0.1 is not 1/10, and silently accepting it would poison
    every exact comparison later. So is exponent notation: the twelve
    characters ``"1e-999999999"`` would make a billion-digit denominator.
    This is the package's one coercion rule: :func:`solve_lp` applies it,
    and :mod:`robustnp.charge_model` exports it as ``frac``.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError(f"refusing bool as a rational value: {v!r}")
    if isinstance(v, str) and ("e" in v or "E" in v) and re.search(r"[\d.][eE][-+]?\d", v):
        raise ValueError(f"refusing exponent notation in {v!r}; write 'num/den'")
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(
        f"refusing {v!r} ({type(v).__name__}); "
        "pass an int, a Fraction, or a 'num/den' string"
    )


def _scale(values: list[Fraction]) -> tuple[list[int], int]:
    """Integers over the least common denominator of ``values``."""
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


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
    """``row/den - (f/den) * prow/pd`` as integers over a positive denominator.

    The result is reduced only once its denominator passes ``_REDUCE_BITS``.
    """
    row = [a * pd - f * b for a, b in zip(row, prow)]
    den *= pd
    if den.bit_length() > _REDUCE_BITS:
        return _reduce(row, den)
    return row, den


def solve_lp(
    c: Sequence[Fraction],
    a_ub: "Sequence[Sequence[Fraction]] | None" = None,
    b_ub: "Sequence[Fraction] | None" = None,
    *,
    upper: "Sequence[Fraction | None] | None" = None,
) -> LpSolution:
    c_raw = [_frac(v) for v in c]
    n = len(c_raw)
    if n == 0:
        raise ValueError("need at least one variable")
    body = [[_frac(v) for v in row] for row in (a_ub or [])]
    rhs = [_frac(v) for v in (b_ub or [])]
    if len(body) != len(rhs):
        raise ValueError("a_ub and b_ub disagree on the number of rows")
    for row in body:
        if len(row) != n:
            raise ValueError(f"constraint row has {len(row)} entries, expected {n}")
    m = len(body)
    n_cols = n + m

    # The tableau: row r is the integer vector rows[r] over the positive
    # denominator dens[r], with row r's slack in column n + r, basic at the
    # start. Row m is the reduced-cost row of the internal problem,
    # min -c . x; the slacks cost 0, so it starts as -c, with right-hand
    # side 0. Every step keeps its last entry at the value of c . x at the
    # current basis, which is where the optimal value is read.
    rows: list[list[int]] = []
    dens: list[int] = []
    for r in range(m):
        scaled, den = _scale(body[r] + [rhs[r]])
        if scaled[n] < 0:
            raise ValueError("b_ub must be nonnegative, so that the slack basis is feasible")
        rows.append(scaled[:n] + [den if i == r else 0 for i in range(m)] + scaled[n:])
        dens.append(den)
    # boxed[j]: x_j <= 1. The slacks are free.
    boxed = [False] * n_cols
    if upper is not None:
        if len(upper) != n:
            raise ValueError(f"upper has {len(upper)} entries, expected {n}")
        for u in upper:
            if u is not None and u is not ONE and (f := _frac(u)) != 1:
                raise ValueError(f"upper entries must be 1 or None, got {f}")
        boxed[:n] = [u is not None for u in upper]
    # comp[j]: column j holds the complement 1 - x_j rather than x_j.
    comp = [False] * n
    basis = list(range(n, n_cols))
    cost, cden = _scale(c_raw)
    rows.append([-v for v in cost] + [0] * (m + 1))
    dens.append(cden)

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
        # Substitute x_j = 1 - x_j' in every row. For a basic x_j only its
        # own row changes, and the pivot that follows takes x_j' out at 0.
        for row in rows:
            if a := row[j]:
                row[n_cols] -= a
                row[j] = -a
        comp[j] = not comp[j]

    def run() -> str:
        bland = False
        for _ in range(_MAX_PIVOTS):
            cost = rows[m]
            # The cost row shares one positive denominator, so its integers
            # compare as the reduced costs do.
            if bland:
                enter = next((j for j in range(n_cols) if cost[j] < 0), -1)
            else:
                lo = min(cost[:n_cols])
                enter = cost.index(lo) if lo < 0 else -1
            if enter < 0:
                return "optimal"
            # Candidate steps are ratios t_n / t_d with t_d > 0, compared
            # crosswise, ties to the smaller variable index; row m stands for
            # the entering variable's own bound.
            leave = key = -1
            best_n = best_d = 0
            if boxed[enter]:
                leave, key, best_n, best_d = m, enter, 1, 1
            for r in range(m):
                a = rows[r][enter]
                if a > 0:  # falls to 0 at b_r / a_r; the row denominators cancel
                    t_n, t_d = rows[r][n_cols], a
                elif a < 0 and boxed[basis[r]]:  # rises to 1 at (d_r - b_r) / -a_r
                    t_n, t_d = dens[r] - rows[r][n_cols], -a
                else:
                    continue
                if leave < 0 or t_n * best_d < best_n * t_d or (
                    t_n * best_d == best_n * t_d and basis[r] < key
                ):
                    leave, key, best_n, best_d = r, basis[r], t_n, t_d
            if leave < 0:
                return "unbounded"
            bland = best_n == 0
            if leave == m:
                complement(enter)
                continue
            if rows[leave][enter] < 0:
                complement(basis[leave])
            pivot(leave, enter)
        raise RuntimeError("simplex did not terminate; this should be unreachable")

    if run() == "unbounded":
        return LpSolution("unbounded")
    cost, cden = rows[m], dens[m]

    x = [ZERO] * n
    for r in range(m):
        if basis[r] < n and (v := rows[r][n_cols]):
            x[basis[r]] = Fraction(v, dens[r])
    # A complemented x_j sits at its bound 1, and its column's reduced cost
    # cbar' is -cbar_j: the bound row takes y_upper = cbar' and leaves x_j a
    # reduced cost of 0.
    y_upper = [ZERO] * n
    for j in range(n):
        if comp[j]:
            x[j] = ONE - x[j] if x[j] else ONE
            if cost[j]:
                y_upper[j] = Fraction(cost[j], cden)

    # Row r's slack column (+e_r, cost 0) has the final reduced cost y_r;
    # complementing columns leaves y = c_B B^-1 unchanged.
    y_ub = tuple(Fraction(v, cden) if v else ZERO for v in cost[n:n_cols])

    return LpSolution(
        status="optimal",
        x=tuple(x),
        value=Fraction(cost[n_cols], cden),
        y_ub=y_ub,
        y_eq=(),
        y_upper=None if upper is None else tuple(y_upper),
    )
