"""Executable forms of the structural hypotheses, plus truncation sweeps.

In the tail model, a sequence of events decreasing to the empty set can
only retain expectation through the tail marker: the canonical sequence
drops explicit atoms one by one while keeping the tail, and its limiting
mass under any charge is exactly the charge's tail mass. Every other
decreasing sequence is squeezed below that. Quantifiers over all
sequences therefore collapse to statements about tail masses, which is
what makes the report below exact rather than sampled.

H2 (shaving a test x by 1/K strictly lowers its upper null expectation,
for all K >= 1) holds at every test on this model, so it has no check.
Write f(K) for the upper expectation of max(x - 1/K, 0). The shaved test
grows pointwise with K, so f is nondecreasing, and f(K) < f(inf) for
every K holds exactly when it holds for all large K. Once 1/K is below
every positive value of x, a member c shaves to E_c[x] - c{x > 0}/K, and
for large K only members with E_c[x] maximal can attain f(K). So H2 holds
at x exactly when every maximizing member charges {x > 0}. If the upper
expectation is 0 that is vacuous, and otherwise a maximizer has
E_c[x] > 0, which needs a slot with positive mass and positive x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .charge_model import ONE, ZERO, Charge, SampleSpace, SublinearExpectation, frac
from .minimax import TestProblem, solve_minimax


@dataclass(frozen=True)
class HypothesisReport:
    """Joint outcome of the structural checks H1, H3 and continuity from above.

    Along the canonical shrinking events each family's limit is its
    largest tail mass (see the module docstring), so every flag reads off
    the two maxima:

    * ``h1``: null limits vanish whenever alternative limits do not, which
      holds iff one family is tail-free: either no alternative limit is
      nonzero (vacuous) or every null limit is zero.
    * ``h3``: neither family keeps full mass, so both maxima are below 1.
    * ``continuity_p``, ``continuity_q``: every member of that family is
      countably additive, so its maximum is 0.

    Every False flag has an explanation under its own key in ``witnesses``,
    naming the member that attains the maximum and its mass. H2 holds at
    every test on this model (see the module docstring), so the report
    does not carry it.
    """

    h1: bool
    h3: bool
    continuity_p: bool
    continuity_q: bool
    witnesses: dict[str, str]


def _max_tail(family: SublinearExpectation) -> tuple[Fraction, int]:
    masses = [c.tail_mass for c in family.family]
    best = max(masses)
    return best, masses.index(best)


def hypothesis_report(prob: TestProblem) -> HypothesisReport:
    """Run all checks for one problem and collect witnesses for failures."""
    p_tail, pi = _max_tail(prob.p_family)
    q_tail, qi = _max_tail(prob.q_family)
    null = f"null member {pi} keeps mass {p_tail}"
    alternative = f"alternative member {qi} keeps mass {q_tail}"
    canonical = "along the canonical shrinking events"
    shrinking = "along events shrinking to the empty set"
    witnesses: dict[str, str] = {}

    h1 = q_tail == 0 or p_tail == 0
    if not h1:
        witnesses["h1"] = f"{canonical}, {alternative} while {null}"
    h3 = p_tail < ONE and q_tail < ONE
    if not h3:
        witnesses["h3"] = f"{canonical}, {null if p_tail == ONE else alternative}"
    continuity_p = p_tail == 0
    if not continuity_p:
        witnesses["continuity_p"] = f"{null} {shrinking}"
    continuity_q = q_tail == 0
    if not continuity_q:
        witnesses["continuity_q"] = f"{alternative} {shrinking}"

    return HypothesisReport(
        h1=h1,
        h3=h3,
        continuity_p=continuity_p,
        continuity_q=continuity_q,
        witnesses=witnesses,
    )


def nonexistence_problem(n: int, alpha: Fraction = Fraction(1, 2)) -> TestProblem:
    """Truncation at n atoms of the classic pair without an optimal test.

    The null charge is purely finitely additive (all mass on the tail
    marker); the alternative is geometric on the explicit atoms with its
    remainder 1/2^n also on the tail. The exact optimal value of the
    truncation is 1 - (1 - alpha) / 2^n: increasing in n, supremum 1,
    never 1, which is the finite shadow of the non-existence phenomenon.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"truncation size must be an int, got {n!r} ({type(n).__name__})")
    if n < 1:
        raise ValueError(f"truncation size must be at least 1, got {n}")
    alpha = frac(alpha)
    space = SampleSpace(tuple(str(k) for k in range(1, n + 1)), has_tail=True)
    pure = Charge(space, (ZERO,) * n, ONE)
    geo_masses = tuple(Fraction(1, 2**k) for k in range(1, n + 1))
    geo = Charge(space, geo_masses, Fraction(1, 2**n))
    return TestProblem(
        space,
        SublinearExpectation((pure,), "null"),
        SublinearExpectation((geo,), "alternative"),
        alpha,
    )


def truncation_sweep(
    generator: Callable[[int], TestProblem], sizes: Iterable[int]
) -> list[tuple[int, Fraction]]:
    """Exact optimal value of generator(n) for each requested size.

    Each size must be an ``int`` of at least 1: other types, bools
    included, raise ``TypeError`` rather than being truncated to one.
    Values are returned as computed; callers that expect monotone growth
    should check it themselves, a dip is data and not an error here.
    """
    out: list[tuple[int, Fraction]] = []
    for n in sizes:
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"sizes must be ints, got {n!r} ({type(n).__name__})")
        if n < 1:
            raise ValueError(f"sizes must be positive, got {n}")
        sol = solve_minimax(generator(n))
        out.append((n, sol.gamma_alpha))
    return out
