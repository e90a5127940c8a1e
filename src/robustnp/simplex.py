"""Exact simplex over rationals from the slack basis, with dual extraction.

This is a small dense implementation sized for the LPs built elsewhere in
the package: a handful of variables and a few dozen rows. ``c`` and every
``a_ub`` row are lists of ints (``type(v) is int``, so no bool); any other
entry raises ``TypeError``. The callers in :mod:`robustnp.minimax` write
their rows from the charges' ``scaled`` integers. The right-hand sides are
rationals, coerced by ``_frac`` (which refuses floats, bools and exponent
strings) and put over one shared denominator. The tableau is Python ints
over one positive denominator d, the basis determinant up to sign, and a
pivot is fraction-free (Edmonds 1967, *J. Res. NBS* 71B; Bareiss 1968,
*Math. Comp.* 22): every other row becomes
``(p * row - row[j] * pivot_row) // d``, an exact division, and d becomes
the pivot p. So every entry is a minor of the input rows as given, bounded
by Hadamard's bound, with no gcd taken; each slack has coefficient 1, so
the slack basis starts at d = 1. Those coercions and the nonzero entries
of the result, built when read, are the only `fractions.Fraction`s built.
The sign checks run on the integers, and the optimal value is read off the
cost row's right-hand side rather than summed as ``c . x``. Nothing is
rounded, so "optimal" means optimal, not optimal up to a tolerance, and the
duals returned here can be used in exact complementary slackness checks.
Every right-hand side must be nonnegative, so the slack basis x = 0 is
feasible and there is one phase: the callers write their programs in that
form.

Bounds ``x_j <= 1`` stay out of the tableau (Dantzig's upper-bounding
technique): a variable at its bound is complemented, ``x_j = 1 - x_j'``, by
negating its column and subtracting it, times the right-hand sides'
denominator, from the right-hand side, so d changes only at a pivot. The
ratio test's candidates are a basic variable falling to 0, a boxed one
rising to 1 (complemented, then pivoted out at 0) and the entering
variable's own bound (a flip of length 1).

Pricing. The entering column is the one with the most negative reduced
cost, ties to the smaller index. Right after a step of length 0 (the
winning ratio was 0) it is Bland's instead: the smallest index with a
negative reduced cost. The candidate is always Bland's: the smallest
variable index among tied ratios, a flip counting as the entering index.
Each step is a pivot of the same LP with explicit rows ``x_j + s_j = 1``
under the order ``x_0 < s_0 < x_1 < ... < slacks``: a flip is ``x_s``
entering for ``s_s``, a rise is ``s_B`` leaving, and at most one of each
pair is nonbasic or a candidate. A flip negates its own column and moves
only the right-hand sides, so no other reduced cost changes: from the
second flip of a run on, the entering columns come off one heap of
(reduced cost, index) over the negative costs, in the order the scan would
take them, and an empty heap means optimal. A pivot drops the heap, so
pricing a run of k flips costs O(n + k log n), not O(k n).

Termination. The entering reduced cost is negative, so a step of nonzero
length, every flip included, strictly improves the objective, and no basis
repeats across such steps. A run of steps of length 0 has at most one
steepest-cost step, at its start; every later step of the run is a Bland
pivot, and Bland's rule cannot cycle (Bland 1977, *Math. Oper. Res.* 2).
A flip has length 1, so the heap never prices a Bland step, and it picks
the steps the scan would. Steepest-cost pricing alone can cycle: Chvatal's
example (*Linear Programming*, 1983, ch. 3) does under it, and
``tests/test_simplex.py`` solves it.

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

import heapq
import math
import re
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

_MAX_PIVOTS = 200_000

class LpSolution:
    """Result of :func:`solve_lp`.

    ``status`` is ``"optimal"`` or ``"unbounded"``; the slack basis is
    feasible, so no program is infeasible. The remaining fields are
    ``None`` unless the status is ``"optimal"``; ``y_upper`` is also
    ``None`` when the problem had no ``upper``. There are no equality rows,
    so ``y_eq`` is ``()``; the field keeps the result's shape for code that
    reads it. ``value`` is read off the final tableau, not summed, and
    equals both ``c . x`` and ``b_ub . y_ub + upper . y_upper`` exactly.
    Zero entries are the shared ``ZERO``. A result is immutable, and ``==``
    compares every field.

    :func:`solve_lp` builds ``value`` and ``y_ub`` at once, and ``x`` and
    ``y_upper`` when first read, each on its own, from the integers it
    keeps in ``_ints``: the basis, the basic right-hand sides, the
    complement flags, the cost row's first n entries (``None`` without
    ``upper``), d and the right-hand sides' denominator, not the tableau.
    """

    __slots__ = ("status", "value", "y_ub", "y_eq", "_x", "_y_upper", "_ints")

    def __init__(self, status, x=None, value=None, y_ub=None, y_eq=None, y_upper=None, _ints=None):
        for name, v in zip(self.__slots__, (status, value, y_ub, y_eq, x, y_upper, _ints)):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"LpSolution is immutable; cannot set {name!r}")

    def _scaled_x(self) -> tuple[list[int], int]:
        """``x`` as ``(integers, their denominator)``; from the tableau, over d * rden."""
        if self._ints is None:
            return _scale(self.x)
        basis, rhs, comp, _, d, rden = self._ints
        xs = [0] * (len(comp) + len(rhs))
        for j, v in zip(basis, rhs):
            xs[j] = v
        # A complemented x_j is 1 less its complement; zip stops at the n variables.
        top = d * rden
        return [top - v if c else v for v, c in zip(xs, comp)], top

    # Both build their tuple from a list, at its size. A tuple built from a
    # generator is resized at the end, and CPython's free lists keep the
    # freed ones by their final size, so the process's memory grows.
    @property
    def x(self) -> "tuple[Fraction, ...] | None":
        if self._x is _UNREAD:
            xs, top = self._scaled_x()
            object.__setattr__(self, "_x", tuple([
                ZERO if not v else ONE if v == top else Fraction(v, top) for v in xs]))
        return self._x

    @property
    def y_upper(self) -> "tuple[Fraction, ...] | None":
        # A complemented x_j sits at its bound 1, and its column's reduced
        # cost cbar' is -cbar_j: the bound row takes y_upper = cbar' and
        # leaves x_j a reduced cost of 0.
        if self._y_upper is _UNREAD:
            _, _, comp, cost, d, _ = self._ints
            object.__setattr__(self, "_y_upper", None if cost is None else tuple([
                Fraction(v, d) if c and v else ZERO for v, c in zip(cost, comp)]))
        return self._y_upper

    def _fields(self) -> tuple:
        return self.status, self.x, self.value, self.y_ub, self.y_eq, self.y_upper

    def __eq__(self, other):
        return self._fields() == other._fields() if isinstance(other, LpSolution) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle rebuild it from its fields
        return LpSolution, self._fields()

    def __repr__(self):
        return ("LpSolution(status={!r}, x={!r}, value={!r}, y_ub={!r}, y_eq={!r}, "
                "y_upper={!r})".format(*self._fields()))


_UNREAD = object()


def _scale(values) -> tuple[list[int], int]:
    """Integers over the least common denominator of ``values`` (Fractions)."""
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


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


def _ints(row, name: str) -> list[int]:
    """``row`` as a list once every entry is an int (``type(v) is int``, so no bool)."""
    if (types := set(map(type, row))) <= {int}:
        return list(row)
    bad = ", ".join(sorted(t.__name__ for t in types - {int}))
    raise TypeError(f"{name} takes ints, not {bad}")


def solve_lp(
    c: Sequence[int],
    a_ub: "Sequence[Sequence[int]] | None" = None,
    b_ub: "Sequence[Fraction] | None" = None,
    *,
    upper: "Sequence[Fraction | None] | None" = None,
) -> LpSolution:
    cost = _ints(c, "c")
    n = len(cost)
    if n == 0:
        raise ValueError("need at least one variable")
    body = [_ints(row, "a_ub") for row in (a_ub or [])]
    rhs = [_frac(v) for v in (b_ub or [])]
    if len(body) != len(rhs):
        raise ValueError("a_ub and b_ub disagree on the number of rows")
    for row in body:
        if len(row) != n:
            raise ValueError(f"constraint row has {len(row)} entries, expected {n}")
    m = len(body)
    n_cols = n + m

    # The tableau: integer rows over the denominator d. Row r is a_ub row r,
    # its slack (coefficient 1, basic at the start, so d = 1) in column n + r
    # and its right-hand side times rden last. Row m is the reduced-cost row
    # of min -c . x: it starts as -c, and ends with c . x at the basis.
    rden = math.lcm(*(b.denominator for b in rhs))
    rows: list[list[int]] = []
    for r, row in enumerate(body):
        b = rhs[r].numerator * (rden // rhs[r].denominator)
        if b < 0:
            raise ValueError("b_ub must be nonnegative, so that the slack basis is feasible")
        rows.append(row + [0] * r + [1] + [0] * (m - r - 1) + [b])
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
    rows.append([-v for v in cost] + [0] * (m + 1))
    d = 1

    def pivot(r: int, j: int) -> None:
        nonlocal d
        prow = rows[r]
        p = prow[j]
        if p < 0:
            prow = rows[r] = [-v for v in prow]
            p = -p
        for i in range(m + 1):
            if i != r:
                row = rows[i]
                if f := row[j]:
                    rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                elif p != d:
                    rows[i] = [p * a // d for a in row]
        d = p
        basis[r] = j

    def complement(j: int) -> None:
        # Substitute x_j = 1 - x_j' in every row. For a basic x_j only its
        # own row changes, and the pivot that follows negates that row and
        # takes x_j' out at 0.
        for row in rows:
            if a := row[j]:
                row[n_cols] -= a * rden
                row[j] = -a
        comp[j] = not comp[j]

    def run() -> str:
        bland = flipped = False
        heap = None
        for _ in range(_MAX_PIVOTS):
            cost = rows[m]
            # The cost row has one positive denominator, so its integers
            # compare as the reduced costs do.
            if bland:
                enter = next((j for j in range(n_cols) if cost[j] < 0), -1)
            elif heap is not None:
                enter = heapq.heappop(heap)[1] if heap else -1
            else:
                lo = min(cost[:n_cols])
                enter = cost.index(lo) if lo < 0 else -1
            if enter < 0:
                return "optimal"
            # Candidate steps are ratios t_n / (t_d * rden) with t_d > 0,
            # compared crosswise, ties to the smaller variable index; row m
            # stands for the entering variable's own bound.
            leave = key = -1
            best_n = best_d = 0
            if boxed[enter]:
                leave, key, best_n, best_d = m, enter, rden, 1
            top = d * rden
            for r in range(m):
                a = rows[r][enter]
                if a > 0:  # falls to 0 at b_r / a_r
                    t_n, t_d = rows[r][n_cols], a
                elif a < 0 and boxed[basis[r]]:  # rises to 1 at (d * rden - b_r) / -a_r
                    t_n, t_d = top - rows[r][n_cols], -a
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
                # A flip changes no other reduced cost: see Pricing above.
                if flipped and heap is None:
                    heap = [(v, j) for j, v in enumerate(cost[:n_cols]) if v < 0]
                    heapq.heapify(heap)
                flipped = True
                continue
            flipped, heap = False, None
            if rows[leave][enter] < 0:
                complement(basis[leave])
            pivot(leave, enter)
        raise RuntimeError("simplex did not terminate; this should be unreachable")

    if run() == "unbounded":
        return LpSolution("unbounded")
    cost = rows[m]
    # Row r's slack column (+e_r, cost 0) has the final reduced cost y_r;
    # complementing columns leaves y = c_B B^-1 unchanged.
    return LpSolution(
        "optimal", _UNREAD, Fraction(cost[n_cols], d * rden),
        tuple(Fraction(v, d) if v else ZERO for v in cost[n:n_cols]), (), _UNREAD,
        _ints=(basis, [row[n_cols] for row in rows[:m]], comp,
               None if upper is None else cost[:n], d, rden),
    )
