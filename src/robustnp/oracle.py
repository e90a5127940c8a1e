"""Brute-force reference solver for small instances.

It enumerates candidate optima outright instead of running any
optimization, so it is slow, simple, and hard to get wrong. The test
suite treats it as ground truth for the LP pipeline. The worst-case
power objective is a minimum of linear functions, hence concave and
piecewise linear; its maximum over the level polytope sits at a vertex of
the subdivision refined by the pairwise equal-power cuts, and those are
exactly the points the enumeration visits.

Size bounds keep the combinatorics honest; they can be raised explicitly
per call. Exceeding a bound is a usage error, not a silent fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .charge_model import ONE, ZERO, TestFunction
from .minimax import TestProblem


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum with every optimal vertex that realized it."""

    value: Fraction
    argmax_tests: tuple[TestFunction, ...]


def _bound(explicit: "int | None", default: int) -> int:
    if explicit is None:
        return default
    if explicit < 1:
        raise ValueError(f"size bound must be positive, got {explicit}")
    return explicit


def _invert(m: list[list[Fraction]]) -> "list[list[Fraction]] | None":
    """Inverse of a small square matrix, or None when singular."""
    k = len(m)
    if k == 0:
        return []
    a = [list(row) + [ONE if i == j else ZERO for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), -1)
        if piv < 0:
            return None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        if inv != ONE:
            a[col] = [v / inv for v in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[k:] for row in a]


def vertex_enumerate(
    prob: TestProblem,
    *,
    max_vars: "int | None" = None,
    max_family: "int | None" = None,
) -> OracleResult:
    """Maximize the worst-case power by exhaustive basic-point enumeration.

    Candidate points fix every coordinate at 0 or 1 except a free subset,
    which is pinned by an equally sized subset of the hyperplanes
    ``E_P[x] = alpha`` and ``E_Qi[x] = E_Qj[x]``. Every vertex of the
    refined subdivision arises this way, so the exact maximum is among the
    feasible candidates.
    """
    nv = prob.space.n_slots
    limit_vars = _bound(max_vars, 6)
    limit_family = _bound(max_family, 4)
    if nv > limit_vars:
        raise ValueError(
            f"instance has {nv} variables, oracle bound is {limit_vars}; "
            "raise max_vars if this size is intended"
        )
    if len(prob.p_family) > limit_family or len(prob.q_family) > limit_family:
        raise ValueError(
            f"family sizes {len(prob.p_family)}/{len(prob.q_family)} exceed the "
            f"oracle bound {limit_family}"
        )

    p_rows = [p.slot_masses() for p in prob.p_family.family]
    q_rows = [q.slot_masses() for q in prob.q_family.family]
    planes: list[tuple[list[Fraction], Fraction]] = []
    for row in p_rows:
        planes.append((row, prob.alpha))
    for a, b in combinations(range(len(q_rows)), 2):
        planes.append(([qa - qb for qa, qb in zip(q_rows[a], q_rows[b])], ZERO))

    best: "Fraction | None" = None
    winners: dict[tuple[Fraction, ...], None] = {}
    seen: set[tuple[Fraction, ...]] = set()
    for k in range(0, min(nv, len(planes)) + 1):
        for free in combinations(range(nv), k):
            fixed = [i for i in range(nv) if i not in free]
            for chosen in combinations(range(len(planes)), k):
                mat = [[planes[c][0][j] for j in free] for c in chosen]
                inv = _invert(mat)
                if inv is None:
                    continue
                base_rhs = [planes[c][1] for c in chosen]
                for bits in product((ZERO, ONE), repeat=len(fixed)):
                    rhs = list(base_rhs)
                    for pos, b in zip(fixed, bits):
                        if b != 0:
                            for r, c in enumerate(chosen):
                                rhs[r] -= planes[c][0][pos]
                    xfree = [
                        sum((inv[r][j] * rhs[j] for j in range(k)), ZERO)
                        for r in range(k)
                    ]
                    if any(v < 0 or v > 1 for v in xfree):
                        continue
                    x = [ZERO] * nv
                    for pos, b in zip(fixed, bits):
                        x[pos] = b
                    for pos, v in zip(free, xfree):
                        x[pos] = v
                    key = tuple(x)
                    if key in seen:
                        continue
                    seen.add(key)
                    if any(
                        sum((pr[j] * x[j] for j in range(nv)), ZERO) > prob.alpha
                        for pr in p_rows
                    ):
                        continue
                    value = min(
                        sum((qr[j] * x[j] for j in range(nv)), ZERO) for qr in q_rows
                    )
                    if best is None or value > best:
                        best = value
                        winners = {key: None}
                    elif value == best:
                        winners[key] = None

    tests = tuple(TestFunction.from_slots(prob.space, vec) for vec in sorted(winners))
    return OracleResult(value=best, argmax_tests=tests)
