"""Brute-force oracles for one pair of charges and for the mass criterion.

They are kept as test references next to ``_fraction_simplex.py``:
nothing in the library calls them. :func:`np_oracle` runs
:func:`robustnp.vertex_enumerate` on a one-member pair, and
:func:`beta_oracle` enumerates the events that :func:`robustnp.compute_beta`
maximizes over.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from robustnp.charge_model import (
    ONE,
    ZERO,
    Charge,
    SublinearExpectation,
    TestFunction,
    frac,
    lower_expectation,
)
from robustnp.minimax import TestProblem
from robustnp.oracle import OracleResult, _bound, vertex_enumerate


def np_oracle(
    p: Charge,
    q: Charge,
    alpha: Fraction,
    *,
    max_vars: "int | None" = None,
) -> OracleResult:
    """Exhaustive maximum power for a single pair of charges.

    The same enumeration as :func:`vertex_enumerate`, specialized to one
    level constraint and no equal-power cuts.
    """
    prob = TestProblem(
        p.space,
        SublinearExpectation((p,), "null"),
        SublinearExpectation((q,), "alternative"),
        frac(alpha),
    )
    return vertex_enumerate(prob, max_vars=max_vars, max_family=1)


def beta_oracle(
    p_family: SublinearExpectation,
    q_countable: Charge,
    *,
    max_atoms: "int | None" = None,
) -> Fraction:
    """Exhaustive maximum of the lower family mass over null events.

    Events B with ``q_countable(B) == 0`` are exactly the subsets of the
    zero-mass atoms, with or without the tail. The empty event contributes
    value 0, which covers the convention that an empty search space means
    0.
    """
    space = q_countable.space
    if p_family.space != space:
        raise ValueError("family and charge live on different sample spaces")
    if not q_countable.is_countably_additive:
        raise ValueError("the countably additive part must have no tail mass")
    limit = _bound(max_atoms, 12)
    if space.n_atoms > limit:
        raise ValueError(
            f"instance has {space.n_atoms} atoms, oracle bound is {limit}; "
            "raise max_atoms if this size is intended"
        )
    zero_atoms = [
        a for a, m in zip(space.atoms, q_countable.atom_mass) if m == 0
    ]
    tail_options = (ZERO, ONE) if space.has_tail else (ZERO,)
    best = ZERO
    for r in range(len(zero_atoms) + 1):
        for subset in combinations(zero_atoms, r):
            ind = tuple(ONE if a in subset else ZERO for a in space.atoms)
            for tail in tail_options:
                val = lower_expectation(p_family, TestFunction(space, ind, tail))
                if val > best:
                    best = val
    return best
