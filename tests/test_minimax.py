"""Worst-case test construction, case split, and representation checks."""

import dataclasses
import functools
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import _reference_threshold as reference
import pytest
from hypothesis import example, given, settings, strategies as st
from _fraction_certificate import kkt_certificate as fraction_certificate, slot_rows
from _fraction_simplex import solve_lp as fraction_solve_lp
from _scaled_rows import solve_scaled

from robustnp import (
    Case,
    CertificateError,
    Charge,
    LpSolution,
    PureLeastFavorableError,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    TestProblem,
    compute_beta,
    expectation,
    hypothesis_report,
    kkt_certificate,
    lower_expectation,
    minimax,
    mix,
    solve_lp,
    solve_minimax,
    upper_expectation,
    verify_threshold_form,
    vertex_enumerate,
)
from robustnp.charge_model import _scale
from robustnp.cli import load_problem, main as cli_main
from robustnp.hypotheses import nonexistence_problem

F = Fraction
FIXTURES = Path(minimax.__file__).parent / "fixtures"


def charge_on(space, mapping, tail=0):
    return Charge.from_mapping(space, {k: F(v) for k, v in mapping.items()}, F(tail))


def beta_criterion_check(prob, sol):
    """Whether the case split agrees with the mass criterion beta > 1 - alpha."""
    if sol.lam == 0:
        raise PureLeastFavorableError(
            "the least favorable alternative mixture has no countably additive part"
        )
    beta = compute_beta(prob.p_family, sol.q_alpha.atom_part())
    return (sol.case is Case.LEVEL_SLACK) == (beta > 1 - prob.alpha)


def three_atom_problem():
    space = SampleSpace(("w1", "w2", "w3"), False)
    p = charge_on(space, {"w1": F(1, 4), "w2": F(1, 4), "w3": F(1, 2)})
    q1 = charge_on(space, {"w1": F(1, 2), "w2": F(1, 2)})
    q2 = charge_on(space, {"w1": 1})
    return TestProblem(
        space,
        SublinearExpectation((p,), "null"),
        SublinearExpectation((q1, q2), "alternative"),
        F(1, 2),
    )


def dirac_problem(alpha=F(1, 3)):
    space = SampleSpace(("0", "1"), False)
    return TestProblem(
        space,
        SublinearExpectation((charge_on(space, {"0": 1}),), "null"),
        SublinearExpectation((charge_on(space, {"1": 1}),), "alternative"),
        alpha,
    )


def test_three_atom_solution():
    prob = three_atom_problem()
    sol = solve_minimax(prob)
    assert sol.gamma_alpha == 1
    assert sol.x_alpha.atom_value == (F(1), F(1), F(0))
    assert sol.attained_level == F(1, 2)
    assert sol.case is Case.LEVEL_ATTAINED
    assert sol.q_weights == (F(1, 2), F(1, 2))
    assert sol.q_alpha.atom_mass == (F(3, 4), F(1, 4), F(0))
    assert sol.lam == 1
    assert sol.gamma_c == 1
    assert sol.p_weights is not None
    assert mix(prob.p_family.family, sol.p_weights).atom_mass == (F(1, 4), F(1, 4), F(1, 2))
    kkt_certificate(prob, sol)


def test_three_atom_certificate():
    prob = three_atom_problem()
    sol = solve_minimax(prob)
    cert = kkt_certificate(prob, sol)
    assert prob.alpha * sum(cert.level_duals) + sum(cert.box_duals) == sol.gamma_alpha
    assert all(d >= 0 for d in cert.q_constraint_duals)
    assert all(d >= 0 for d in cert.level_duals)
    assert sum(cert.q_constraint_duals) == 1


def test_three_atom_threshold_form():
    prob = three_atom_problem()
    sol = solve_minimax(prob)
    rep = verify_threshold_form(prob, sol)
    assert rep.verdict
    assert rep.violations == ()
    assert 0 < rep.kappa < 2
    assert rep.tau == 1
    assert rep.classification == {
        "w1": "strict_accept",
        "w2": "strict_accept",
        "w3": "strict_reject",
    }
    assert rep.b_values == {}
    assert compute_beta(prob.p_family, sol.q_alpha.atom_part()) <= 1 - prob.alpha
    assert rep.precondition_grid
    assert compute_beta(prob.p_family, sol.q_alpha.atom_part()) == F(1, 2)
    assert beta_criterion_check(prob, sol)


def _random_threshold_case(rng):
    """Countable parts (tau_pc, lam_qc), a test x and a gamma_c for the threshold checks.

    Small integer masses repeat ratios often and leave atoms where both
    masses are 0. Half the tests follow a ratio cut with free values on its
    boundary class; the other half are arbitrary and mostly violate the form.
    """
    n = rng.randint(1, 7)
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), False)
    den = rng.choice([4, 6, 12])
    tau_pc = Charge(space, tuple(F(rng.randint(0, 3), den) for _ in range(n)), F(0))
    lam_qc = Charge(space, tuple(F(rng.randint(0, 3), den) for _ in range(n)), F(0))
    free = [F(0), F(1), F(1, 2), F(1, 3)]
    if rng.random() < 0.5:
        cut = rng.choice([F(0), F(1, 2), F(1), F(3, 2), F(3)])
        values = [
            F(q > cut * p) if q != cut * p else rng.choice(free)
            for p, q in zip(tau_pc.atom_mass, lam_qc.atom_mass)
        ]
    else:
        values = [rng.choice(free) for _ in range(n)]
    gamma_c = lam_qc.total * F(rng.randint(1, 4), 4)
    return space, tau_pc, lam_qc, TestFunction(space, tuple(values)), gamma_c


def test_threshold_scan_and_quantile_match_the_brute_force_reference():
    # The class walk picks the same cut as scoring every candidate on every
    # atom, and the quantile the same break point as enumerating them all.
    rng = random.Random(4242)
    verdicts = Counter()
    for _ in range(2000):
        space, tau_pc, lam_qc, x, gamma_c = _random_threshold_case(rng)
        classes = minimax._ratio_classes(tau_pc.scaled, lam_qc.scaled, space.n_atoms)
        got = minimax._scan_threshold(space, tau_pc.scaled, lam_qc.scaled, x, classes)
        dens = reference.densities(tau_pc, lam_qc)
        want = reference.scan_threshold(space, dens, x)
        assert got[:4] == want[:4]
        assert len(got[4]) == len(want[4])
        verdicts[got[3]] += 1
        if lam_qc.total:
            assert minimax._kappa_from_quantile(classes, lam_qc.scaled, gamma_c) == (
                reference.kappa_from_quantile(lam_qc, dens, gamma_c)
            )
    assert min(verdicts[True], verdicts[False]) > 500, verdicts


def test_threshold_scan_names_the_masses_of_each_violation():
    # Cutting at 3/2 leaves a and b free and violates only at c and d; every
    # other cut violates at two atoms or more with fewer of them free.
    space = SampleSpace(("a", "b", "c", "d", "e", "f"), False)
    tau_pc = Charge(space, (F(1, 4), F(1, 8), F(1, 4), F(0), F(0), F(3, 8)), F(0))
    lam_qc = Charge(space, (F(3, 8), F(3, 16), F(1, 4), F(3, 16), F(0), F(0)), F(0))
    x = TestFunction(space, (F(1, 2), F(1, 3), F(1, 2), F(3, 4), F(1, 3), F(0)))
    classes = minimax._ratio_classes(tau_pc.scaled, lam_qc.scaled, space.n_atoms)
    kappa, classification, b_values, verdict, violations = minimax._scan_threshold(
        space, tau_pc.scaled, lam_qc.scaled, x, classes
    )
    assert kappa == F(3, 2)
    assert classification == {
        "a": "boundary",
        "b": "boundary",
        "c": "strict_reject",
        "d": "strict_accept",
        "e": "base_null",
        "f": "strict_reject",
    }
    assert b_values == {"a": F(1, 2), "b": F(1, 3)}
    assert verdict is False
    assert violations == (
        "atom 'c': q=1/4 < kappa*p=3/8 requires x=0, got 1/2",
        "atom 'd': q=3/16 > kappa*p=0 requires x=1, got 3/4",
    )
    # lam_qc puts 3/16 on d (ratio +infinity), then 9/16 on a and b (ratio 3/2).
    assert minimax._kappa_from_quantile(classes, lam_qc.scaled, F(1, 2)) == F(2, 3)
    assert minimax._kappa_from_quantile(classes, lam_qc.scaled, F(3, 16)) == 0


def test_dirac_slack_case():
    prob = dirac_problem()
    sol = solve_minimax(prob)
    assert sol.gamma_alpha == 1
    assert sol.x_alpha.atom_value == (F(0), F(1))
    assert sol.attained_level == 0
    assert sol.case is Case.LEVEL_SLACK
    assert sol.lam == 1
    kkt_certificate(prob, sol)
    # (1/4, 1) is optimal too, but its level 1/4 is above the least level 0.
    higher = TestFunction(prob.space, (F(1, 4), F(1)), F(0))
    higher = dataclasses.replace(sol, x_alpha=higher)
    with pytest.raises(CertificateError, match="reaches level 1/4"):
        kkt_certificate(prob, higher)
    with pytest.raises(CertificateError, match="proves 0"):
        kkt_certificate(prob, dataclasses.replace(higher, attained_level=F(1, 4)))
    # The degenerate form: x = 1 on the support of lam_qc, which the test
    # integrates to its full mass.
    qc = sol.q_alpha.atom_part()
    assert all(x == 1 for x, m in zip(sol.x_alpha.atom_value, qc.atom_mass) if m > 0)
    assert expectation(qc, sol.x_alpha) == sol.lam
    assert compute_beta(prob.p_family, qc) == 1
    assert beta_criterion_check(prob, sol)
    with pytest.raises(ValueError, match="level-attained") as raised:
        verify_threshold_form(prob, sol)
    assert not isinstance(raised.value, PureLeastFavorableError)


def test_identical_singleton_boundary():
    space = SampleSpace(("a", "b"), False)
    c = charge_on(space, {"a": F(1, 2), "b": F(1, 2)})
    null_fam = SublinearExpectation((c,), "null")
    alt_fam = SublinearExpectation((c,), "alternative")
    for alpha in (F(1, 4), F(1, 2)):
        prob = TestProblem(space, null_fam, alt_fam, alpha)
        sol = solve_minimax(prob)
        assert sol.gamma_alpha == alpha
        assert sol.attained_level == alpha
        assert sol.case is Case.LEVEL_ATTAINED
        rep = verify_threshold_form(prob, sol)
        assert rep.verdict
        assert set(rep.classification.values()) == {"boundary"}


def test_detect_case_rejects_bad_solutions():
    # The case split is read off the certificate, so a wrong optimum value or
    # a test that does not attain it must fail certification before any case
    # is reported.
    prob = three_atom_problem()
    sol = solve_minimax(prob)
    wrong_value = dataclasses.replace(sol, gamma_alpha=F(1, 2))
    with pytest.raises(CertificateError, match="claimed 1/2"):
        kkt_certificate(prob, wrong_value)
    zeros = TestFunction(prob.space, (F(0), F(0), F(0)), F(0))
    wrong_test = dataclasses.replace(sol, x_alpha=zeros)
    with pytest.raises(CertificateError, match="worst-case power of the test is 0"):
        kkt_certificate(prob, wrong_test)


def test_certificate_rejects_fake_optimum():
    prob = three_atom_problem()
    sol = solve_minimax(prob)
    zeros = TestFunction(prob.space, (F(0), F(0), F(0)), F(0))
    fake = dataclasses.replace(sol, x_alpha=zeros)
    with pytest.raises(CertificateError):
        kkt_certificate(prob, fake)


def _support_problem(rng, shift):
    """Alternatives on a random slot set S, alpha = max_i P_i(S) + shift.

    With shift >= 0 the test 1_S is feasible, so gamma = 1; with shift = 0
    it spends the level exactly, as in the three-atom problem. Returns None
    when alpha falls outside (0, 1).
    """
    n = rng.randint(2, 4)
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), rng.random() < 0.5)
    slots = space.n_slots
    support = rng.sample(range(slots), rng.randint(1, slots - 1))

    def member(on):
        raw = [rng.randint(0, 3) if k in on else 0 for k in range(slots)]
        raw[rng.choice(on)] += 1
        m = [F(r, sum(raw)) for r in raw]
        return Charge(space, tuple(m[:n]), m[n] if space.has_tail else F(0))

    p_fam = tuple(member(range(slots)) for _ in range(rng.randint(1, 2)))
    q_fam = tuple(member(support) for _ in range(rng.randint(1, 3)))
    alpha = max(sum(p.slot_masses()[k] for k in support) for p in p_fam) + shift
    if not 0 < alpha < 1:
        return None
    return TestProblem(
        space, SublinearExpectation(p_fam, "null"), SublinearExpectation(q_fam, "alternative"),
        alpha,
    )


def _relabelled(space):
    """A copy of ``space`` with every atom renamed: as many slots, another space."""
    return SampleSpace(tuple(a + "'" for a in space.atoms), space.has_tail)


def test_certificate_rejects_a_nudged_case_level_or_value():
    # The certificate decides the case and the attained level exactly, so a
    # flipped case, or the level or the value moved by a rational step far
    # below every input denominator, must each be rejected. So must a least
    # favorable alternative mixture q_alpha that is not the u-mixture: weight
    # moved between two distinct members in the certificate's u, or another
    # member as q_alpha. Its weights q_weights, its countable mass lam and the
    # null mixture p_alpha are not stored, so no solution carries a copy of
    # them that could disagree. A test on a relabelled copy of the space and
    # float box duals are refused with CertificateError too, not with the
    # ValueError or AttributeError that reading them would raise.
    rng = random.Random(2011)
    problems = [three_atom_problem(), dirac_problem(),
                load_problem(str(FIXTURES / "intro_example.json"))]
    problems += [_support_problem(rng, shift) for shift in (F(-1, 16), F(0), F(1, 16))
                 for _ in range(30)]
    kinds = {"gamma < 1": 0, "gamma = 1, slack": 0, "gamma = 1, attained, v = 0": 0,
             "moved u": 0, "another q_alpha": 0}
    for prob in filter(None, problems):
        sol = solve_minimax(prob)
        kkt_certificate(prob, sol)
        if sol.gamma_alpha < 1:
            kinds["gamma < 1"] += 1
        elif sol.case is Case.LEVEL_SLACK:
            kinds["gamma = 1, slack"] += 1
        elif not any(sol.certificate.level_duals):
            kinds["gamma = 1, attained, v = 0"] += 1
        flipped = Case.LEVEL_SLACK if sol.case is Case.LEVEL_ATTAINED else Case.LEVEL_ATTAINED
        wrong = [dataclasses.replace(sol, case=flipped)]
        for field in ("attained_level", "gamma_alpha"):
            value = getattr(sol, field)
            step = F(1, 2**64 * value.denominator)
            wrong += [dataclasses.replace(sol, **{field: value + d}) for d in (step, -step)]
        u, qs = list(sol.q_weights), prob.q_family.family
        i = u.index(max(u))
        if len(u) > 1 and qs[i] != qs[i - 1]:
            step = F(1, 2**64 * u[i].denominator)
            u[i], u[i - 1] = u[i] - step, u[i - 1] + step
            cert = dataclasses.replace(sol.certificate, q_constraint_duals=tuple(u))
            wrong.append(dataclasses.replace(sol, certificate=cert))
            kinds["moved u"] += 1
        for q in qs:
            if q != sol.q_alpha:
                wrong.append(dataclasses.replace(sol, q_alpha=q))
                kinds["another q_alpha"] += 1
        moved_x = TestFunction.from_slots(_relabelled(prob.space), sol.x_alpha.slot_values())
        floats = tuple(float(wk) for wk in sol.certificate.box_duals)
        float_cert = dataclasses.replace(sol.certificate, box_duals=floats)
        wrong.append(dataclasses.replace(sol, x_alpha=moved_x))
        wrong.append(dataclasses.replace(sol, certificate=float_cert))
        for bad in wrong:
            with pytest.raises(CertificateError):
                kkt_certificate(prob, bad)
        for field, value in (("q_weights", sol.q_weights), ("lam", sol.lam),
                             ("p_alpha", sol.q_alpha)):
            with pytest.raises(TypeError):
                dataclasses.replace(sol, **{field: value})
    assert min(kinds.values()) >= 5, kinds


def test_threshold_form_refuses_a_solution_on_another_space():
    # A test or an alternative mixture on a relabelled copy of the space
    # has as many slots, so reading it by position would give a report.
    for prob in (three_atom_problem(), load_problem(str(FIXTURES / "intro_example.json"))):
        sol = solve_minimax(prob)
        assert verify_threshold_form(prob, sol).verdict
        space, x, q = _relabelled(prob.space), sol.x_alpha, sol.q_alpha
        for bad in (
            dataclasses.replace(sol, x_alpha=TestFunction.from_slots(space, x.slot_values())),
            dataclasses.replace(sol, q_alpha=Charge(space, q.atom_mass, q.tail_mass)),
        ):
            with pytest.raises(ValueError, match="^charge and test live on different sample"):
                verify_threshold_form(prob, bad)


def test_problem_and_beta_refuse_swapped_roles_and_another_space():
    prob = three_atom_problem()
    space, p, q, alpha = prob.space, prob.p_family, prob.q_family, prob.alpha
    with pytest.raises(ValueError, match="^p_family must have role 'null'$"):
        TestProblem(space, SublinearExpectation(p.family, "alternative"), q, alpha)
    with pytest.raises(ValueError, match="^q_family must have role 'alternative'$"):
        TestProblem(space, p, SublinearExpectation(q.family, "null"), alpha)
    with pytest.raises(ValueError, match="^families and problem disagree on the sample space$"):
        TestProblem(_relabelled(space), p, q, alpha)
    sol = solve_minimax(prob)
    moved = Charge(_relabelled(space), sol.q_alpha.atom_mass, sol.q_alpha.tail_mass)
    with pytest.raises(ValueError, match="^charge and family live on different sample spaces$"):
        compute_beta(p, moved)


def test_beta_criterion_needs_countable_part():
    space = SampleSpace(("a",), True)
    pure = Charge(space, (F(0),), F(1))
    prob = TestProblem(
        space,
        SublinearExpectation((pure,), "null"),
        SublinearExpectation((pure,), "alternative"),
        F(1, 2),
    )
    sol = solve_minimax(prob)
    assert sol.lam == 0
    with pytest.raises(PureLeastFavorableError):
        beta_criterion_check(prob, sol)
    # compute_beta reads the atom slots only, and all of q_alpha's mass is on the tail.
    with pytest.raises(ValueError, match="^the countably additive part is zero; beta is not"):
        compute_beta(prob.p_family, sol.q_alpha)


def test_beta_without_h1_can_disagree():
    # With tail mass on both sides the case split and the mass criterion
    # come apart: the level is attained even though beta exceeds 1 - alpha.
    space = SampleSpace(("a",), True)
    p = Charge(space, (F(0),), F(1))
    q = Charge(space, (F(1, 2),), F(1, 2))
    prob = TestProblem(
        space,
        SublinearExpectation((p,), "null"),
        SublinearExpectation((q,), "alternative"),
        F(1, 2),
    )
    assert not hypothesis_report(prob).h1
    sol = solve_minimax(prob)
    assert sol.case is Case.LEVEL_ATTAINED
    qc = sol.q_alpha.atom_part()
    assert compute_beta(prob.p_family, qc) == 1 > 1 - prob.alpha
    # compute_beta reads a charge's atom part: q_alpha keeps tail mass 1/2.
    assert sol.q_alpha.tail_mass == F(1, 2)
    assert compute_beta(prob.p_family, sol.q_alpha) == 1
    assert not beta_criterion_check(prob, sol)


def _random_problem(rng):
    n = rng.randint(2, 4)
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), False)

    def member():
        raw = [rng.randint(0, 5) for _ in range(n)]
        if sum(raw) == 0:
            raw[rng.randrange(n)] = 1
        total = sum(raw)
        return Charge(space, tuple(F(v, total) for v in raw), F(0))

    p_fam = SublinearExpectation(tuple(member() for _ in range(rng.randint(1, 2))), "null")
    q_fam = SublinearExpectation(tuple(member() for _ in range(rng.randint(1, 2))), "alternative")
    alpha = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
    return TestProblem(space, p_fam, q_fam, alpha)


def test_random_instances_match_oracle():
    rng = random.Random(424242)
    seen_slack = seen_attained = 0
    for _ in range(40):
        prob = _random_problem(rng)
        sol = solve_minimax(prob)
        oracle = vertex_enumerate(prob)
        assert sol.gamma_alpha == oracle.value
        assert any(
            lower_expectation(prob.q_family, t) == sol.gamma_alpha
            for t in oracle.argmax_tests
        )
        assert upper_expectation(prob.p_family, sol.x_alpha) <= prob.alpha
        assert expectation(sol.q_alpha, sol.x_alpha) == sol.gamma_alpha
        assert sol.q_alpha.total == 1
        # No tail anywhere, so the countable split is trivial and the
        # optimum separates into the countable value plus the lost mass.
        assert sol.lam == 1
        assert sol.gamma_alpha == sol.gamma_c + (1 - sol.lam)
        if sol.case is Case.LEVEL_SLACK:
            seen_slack += 1
            qc = sol.q_alpha.atom_part()
            assert all(x == 1 for x, m in zip(sol.x_alpha.atom_value, qc.atom_mass) if m > 0)
            assert expectation(qc, sol.x_alpha) == sol.lam
        else:
            seen_attained += 1
        assert beta_criterion_check(prob, sol)
    assert seen_slack and seen_attained


def _large_problem(rng):
    """10 to 40 atoms plus a tail, 2 to 5 members a side: past the oracle."""
    n = rng.randint(10, 40)
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), True)

    def member():
        raw = [rng.choice([0, 0, rng.randint(1, 9)]) for _ in range(n + 1)]
        raw[rng.randrange(n + 1)] += 1
        total = sum(raw)
        return Charge(space, tuple(F(v, total) for v in raw[:n]), F(raw[n], total))

    p_fam = SublinearExpectation(tuple(member() for _ in range(rng.randint(2, 5))), "null")
    q_fam = SublinearExpectation(tuple(member() for _ in range(rng.randint(2, 5))), "alternative")
    return TestProblem(space, p_fam, q_fam, F(rng.randint(1, 9), 10))


def test_large_instances_match_highs():
    # The brute-force oracle stops at 6 slots; HiGHS checks the value and the
    # minimal attained level in floating point on instances up to 41 slots.
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(1968)
    cases = set()
    for _ in range(20):
        prob = _large_problem(rng)
        sol = solve_minimax(prob)
        p_rows = [[float(v) for v in p.slot_masses()] for p in prob.p_family.family]
        q_rows = [[float(v) for v in q.slot_masses()] for q in prob.q_family.family]
        nv = prob.space.n_slots
        bounds = [(0, 1)] * nv + [(None, None)]
        # max t : t <= E_Q[x], E_P[x] <= alpha
        epigraph = scipy_opt.linprog(
            [0.0] * nv + [-1.0],
            A_ub=[[-v for v in q] + [1.0] for q in q_rows] + [p + [0.0] for p in p_rows],
            b_ub=[0.0] * len(q_rows) + [float(prob.alpha)] * len(p_rows),
            bounds=bounds,
            method="highs",
        )
        assert epigraph.status == 0
        assert abs(-epigraph.fun - float(sol.gamma_alpha)) < 1e-9
        # min t : E_P[x] <= t, E_Q[x] >= gamma
        level = scipy_opt.linprog(
            [0.0] * nv + [1.0],
            A_ub=[p + [-1.0] for p in p_rows] + [[-v for v in q] + [0.0] for q in q_rows],
            b_ub=[0.0] * len(p_rows) + [-float(sol.gamma_alpha)] * len(q_rows),
            bounds=bounds,
            method="highs",
        )
        assert level.status == 0
        assert abs(level.fun - float(sol.attained_level)) < 1e-7
        cases.add(sol.case)
    assert cases == {Case.LEVEL_SLACK, Case.LEVEL_ATTAINED}


def test_sum_split_with_tail():
    space = SampleSpace(("a", "b"), True)
    p = Charge(space, (F(1, 2), F(1, 2)), F(0))
    q = Charge(space, (F(1, 4), F(1, 4)), F(1, 2))
    prob = TestProblem(
        space,
        SublinearExpectation((p,), "null"),
        SublinearExpectation((q,), "alternative"),
        F(1, 2),
    )
    assert hypothesis_report(prob).h1
    sol = solve_minimax(prob)
    assert sol.lam == F(1, 2)
    assert sol.gamma_alpha == sol.gamma_c + (1 - sol.lam)
    assert expectation(sol.q_alpha, sol.x_alpha) == sol.gamma_alpha


def test_grid_precondition_is_exact_on_a_flat_stretch():
    # The countable value is flat on [1/2 - delta, 1/2]: the atom alone
    # uses only 1/2 - delta of the level, so tightening by less than delta
    # costs nothing and the grid precondition fails. A probe at
    # alpha - alpha/2**20 cannot see a stretch this short.
    delta = F(1, 2**30)
    space = SampleSpace(("a",), True)
    p = Charge(space, (F(1, 2) - delta,), F(1, 2) + delta)
    q = Charge(space, (F(1, 2),), F(1, 2))
    prob = TestProblem(
        space,
        SublinearExpectation((p,), "null"),
        SublinearExpectation((q,), "alternative"),
        F(1, 2),
    )
    sol = solve_minimax(prob)
    assert sol.case is Case.LEVEL_ATTAINED
    assert sol.level_c == F(1, 2) - delta
    rep = verify_threshold_form(prob, sol)
    assert rep.precondition_grid is False
    assert not compute_beta(prob.p_family, sol.q_alpha.atom_part()) <= 1 - prob.alpha
    assert solve_minimax(three_atom_problem()).level_c == F(1, 2)


def _degenerate_problem(rng):
    """Tail, tied masses and repeated alternative members, |Q| from 3 to 5."""
    n = rng.randint(2, 4)
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), True)

    def member():
        raw = [rng.randint(0, 3) for _ in range(n + 1)]
        if sum(raw) == 0:
            raw[rng.randrange(n + 1)] = 1
        total = sum(raw)
        return Charge(space, tuple(F(v, total) for v in raw[:n]), F(raw[n], total))

    distinct = [member() for _ in range(rng.randint(1, 3))]
    q_fam = tuple(rng.choice(distinct) for _ in range(rng.randint(3, 5)))
    p_fam = tuple(member() for _ in range(rng.randint(1, 2)))
    alpha = rng.choice([F(1, 4), F(1, 3), F(1, 2), F(2, 3)])
    return TestProblem(
        space,
        SublinearExpectation(p_fam, "null"),
        SublinearExpectation(q_fam, "alternative"),
        alpha,
    )


def _max_on_dual_face(prob, gamma, c):
    """Largest c . (u, v, w) over the optimal face of the epigraph program's dual.

    This is the face in equality form, solved by the two-phase reference
    simplex: (u, v, w) >= 0 with sum u >= 1, sum_j u_j q_j <= sum_i v_i p_i
    + w slot by slot, and dual objective alpha * sum v + sum w = gamma.
    """
    p_rows, q_rows = slot_rows(prob)
    mq, mp, nv = len(q_rows), len(p_rows), prob.space.n_slots
    a_ub = [[F(-1)] * mq + [F(0)] * (mp + nv)]
    b_ub = [F(-1)]
    for k in range(nv):
        row = [q[k] for q in q_rows] + [-p[k] for p in p_rows] + [F(0)] * nv
        row[mq + mp + k] = F(-1)
        a_ub.append(row)
        b_ub.append(F(0))
    a_eq = [[F(0)] * mq + [prob.alpha] * mp + [F(1)] * nv]
    res = fraction_solve_lp(c, a_ub, b_ub, a_eq, [gamma], sense="max")
    assert res.status == "optimal"
    return res.value


def test_lift_support_is_maximal_on_degenerate_instances():
    # A member may carry zero weight only if no optimal dual charges it.
    rng = random.Random(1985)
    problems = [_degenerate_problem(rng) for _ in range(60)]
    rng = random.Random(1968)
    problems += [_stress_problem(rng) for _ in range(100)]
    checked = 0
    for prob in problems:
        sol = solve_minimax(prob)
        kkt_certificate(prob, sol)
        n_all = len(prob.q_family) + len(prob.p_family) + prob.space.n_slots
        for j, weight in enumerate(sol.q_weights):
            if weight == 0:
                unit = [F(int(i == j)) for i in range(n_all)]
                assert _max_on_dual_face(prob, sol.gamma_alpha, unit) == 0
                checked += 1
        # Repeated members are interchangeable on the face.
        for a, qa in enumerate(prob.q_family.family):
            for b, qb in enumerate(prob.q_family.family):
                if qa == qb:
                    assert (sol.q_weights[a] == 0) == (sol.q_weights[b] == 0)
    assert checked >= 80


def _masses(rng, n_slots, zero, den):
    """Masses on ``n_slots`` slots summing to 1 over ``den``, none on ``zero``."""
    live = [k for k in range(n_slots) if k not in zero]
    cuts = sorted(rng.randint(0, den) for _ in range(len(live) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    raw = [0] * n_slots
    for k, part in zip(live, parts):
        raw[k] = part
    return [F(v, den) for v in raw]


def _stress_problem(rng):
    """Duplicate members, all-tie ratios, zero-mass atoms, 2^40 denominators."""
    n = rng.randint(1, 5)
    has_tail = n < 5 and rng.random() < 0.5
    n_slots = n + has_tail
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), has_tail)
    zero = set(rng.sample(range(n), rng.randint(0, n - 1)))
    big = rng.random() < 0.5

    def member():
        den = 2**40 + rng.randint(-50, 50) if big else rng.choice([1, 2, 3, 6])
        m = _masses(rng, n_slots, zero, den)
        return Charge(space, tuple(m[:n]), m[n] if has_tail else F(0))

    p_fam = [member() for _ in range(rng.randint(1, 2))]
    q_fam = [member() for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.4:
        # All-tie ratios: an alternative member equal to a null member.
        q_fam.append(rng.choice(p_fam))
    q_fam += rng.choices(q_fam, k=rng.randint(0, 4 - len(q_fam)))
    p_fam += rng.choices(p_fam, k=rng.randint(0, 1))
    alpha = rng.choice([F(1, 4), F(1, 2), F(2, 3), F(2**39 + 1, 2**40 - 3)])
    return TestProblem(
        space,
        SublinearExpectation(tuple(p_fam), "null"),
        SublinearExpectation(tuple(q_fam), "alternative"),
        alpha,
    )


def test_degenerate_instances_are_certified_and_match_oracle():
    rng = random.Random(1968)
    seen = {"big": 0, "tie": 0, "duplicate": 0, "zero atom": 0}
    for _ in range(100):
        prob = _stress_problem(rng)
        sol = solve_minimax(prob)
        kkt_certificate(prob, sol)
        assert sol.gamma_alpha == vertex_enumerate(prob).value
        p_fam, q_fam = prob.p_family.family, prob.q_family.family
        seen["big"] += any(m.denominator > 2**39 for c in p_fam for m in c.atom_mass)
        seen["tie"] += any(q in p_fam for q in q_fam)
        seen["duplicate"] += len(set(q_fam)) < len(q_fam)
        seen["zero atom"] += any(
            all(c.atom_mass[k] == 0 for c in p_fam + q_fam) for k in range(len(prob.space.atoms))
        )
    assert min(seen.values()) >= 20, seen


def _solve_lp_with_box_rows(c, a_ub=None, b_ub=None, *, sense, upper=None):
    """The reference simplex in ``sense``, with the bounds ``upper`` written as rows."""
    n, m = len(c), len(a_ub or [])
    upper = upper or [None] * n
    kept = [k for k in range(n) if upper[k] is not None]
    box = [[F(int(j == k)) for j in range(n)] for k in kept]
    res = fraction_solve_lp(
        c, list(a_ub or []) + box, list(b_ub or []) + [upper[k] for k in kept], sense=sense
    )
    if res.status != "optimal" or not kept:
        return res
    y_upper = [F(0)] * n
    for k, y in zip(kept, res.y_ub[m:]):
        y_upper[k] = y
    return dataclasses.replace(res, y_ub=res.y_ub[:m], y_upper_scaled=_scale(y_upper))


def test_bounded_pipeline_matches_explicit_box_rows(monkeypatch):
    # Every field that the LPs' optimal values decide is the same whether
    # the test box is variable bounds or explicit rows.
    rng = random.Random(1977)
    problems = [_random_problem(rng) for _ in range(30)]
    problems += [_degenerate_problem(rng) for _ in range(30)]
    problems += [_stress_problem(rng) for _ in range(30)]
    problems += [_large_problem(rng) for _ in range(5)]
    bounded = [solve_minimax(prob) for prob in problems]
    # solve_lp maximizes; the reference defaults to "min".
    box_rows = functools.partial(_solve_lp_with_box_rows, sense="max")
    monkeypatch.setattr(minimax, "solve_lp", box_rows)
    for prob, sol in zip(problems, bounded):
        ref = solve_minimax(prob)
        kkt_certificate(prob, sol)
        for field in ("gamma_alpha", "attained_level", "case", "lam", "gamma_c", "level_c"):
            assert getattr(sol, field) == getattr(ref, field), field
        assert [w > 0 for w in sol.q_weights] == [w > 0 for w in ref.q_weights]


def _ladder_problem(rng, n, mp, mq, has_tail=True):
    """Integer weights 0..9 normalised, on n atoms with or without a tail."""
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), has_tail)
    slots = space.n_slots

    def member():
        raw = [rng.randint(0, 9) for _ in range(slots)]
        if sum(raw) == 0:
            raw[rng.randrange(slots)] = 1
        total = sum(raw)
        return Charge(space, tuple(F(v, total) for v in raw[:n]),
                      F(raw[n], total) if has_tail else F(0))

    return TestProblem(
        space,
        SublinearExpectation(tuple(member() for _ in range(mp)), "null"),
        SublinearExpectation(tuple(member() for _ in range(mq)), "alternative"),
        rng.choice([F(1, 4), F(1, 3), F(1, 2), F(2, 3)]),
    )


def _copied_problem(seed):
    """A 40x10x10 ladder problem whose Q has one member replaced by a copy of a P member."""
    rng = random.Random(seed)
    prob = _ladder_problem(rng, 40, 10, 10, has_tail=seed % 2 == 0)
    q_fam = list(prob.q_family.family)
    q_fam[rng.randrange(10)] = rng.choice(prob.p_family.family)
    return dataclasses.replace(prob, q_family=SublinearExpectation(tuple(q_fam), "alternative"))


def _auxiliary_dual_value(prob, p_weights, lam_qc, gamma_c):
    """Best auxiliary dual objective with the level multipliers ``p_weights``.

    The auxiliary program is min t : E_{P_i}[x] <= t, E_{lam_qc}[x] >=
    gamma_c, 0 <= x <= 1. Given level multipliers mu summing to 1 and a
    reach multiplier nu >= 0, the best box multipliers are w_k = max(0,
    nu lam_k - (mu.p)_k), so the dual objective gamma_c nu - sum w_k is
    concave and piecewise linear in nu; gamma_c <= lam_qc's mass keeps it
    bounded, and its maximum sits at nu = 0 or at a breakpoint.
    """
    lam = lam_qc.slot_masses()
    p_rows = [p.slot_masses() for p in prob.p_family.family]
    mixed = [sum((m * p[k] for m, p in zip(p_weights, p_rows)), F(0)) for k in range(len(lam))]
    breaks = [F(0)] + [mixed[k] / lam[k] for k in range(len(lam)) if lam[k] > 0]
    return max(
        gamma_c * nu - sum((max(F(0), nu * l - m) for l, m in zip(lam, mixed)), F(0))
        for nu in breaks
    )


def _neyman_pearson_value(p, q, alpha):
    """max sum_k q_k y_k over y in [0, 1] with sum_k p_k y_k <= alpha.

    The greedy fill: y = 1 down the ratio q/p, atoms with p = 0 first, and
    the part of alpha left over on the next atom.
    """
    value, left = F(0), alpha
    for _, pk, qk in sorted((pk / qk, pk, qk) for pk, qk in zip(p, q) if qk > 0):
        share = min(F(1), left / pk) if pk else F(1)
        value, left = value + share * qk, left - share * pk
    return value


def test_certificate_shortcuts_match_the_lps_they_replace(monkeypatch):
    # gamma_c and level_c read off the epigraph's certificate equal what the
    # countable and auxiliary programs return, and p_weights is an exact
    # optimal auxiliary dual either way. The pair is least favorable:
    # gamma_c is the Neyman-Pearson value of the countable parts of the two
    # mixtures at alpha.
    rng = random.Random(1956)
    cells = [(6, 2, 2), (8, 2, 2), (12, 3, 3), (6, 2, 6)]
    problems = [load_problem(str(path)) for path in sorted(FIXTURES.glob("*.json"))]
    problems += [_ladder_problem(rng, *rng.choice(cells)) for _ in range(60)]
    problems += [_ladder_problem(rng, *rng.choice(cells), has_tail=False) for _ in range(20)]
    problems += [_degenerate_problem(rng) for _ in range(40)]
    problems += [_stress_problem(rng) for _ in range(60)]
    stage_calls = []
    for name in ("_countable_value", "_null_side_mixture"):
        def spy(*args, _name=name, _fn=getattr(minimax, name)):
            stage_calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(minimax, name, spy)
    ran = {"countable": 0, "countable skipped": 0, "null side": 0, "null side skipped": 0,
           "no tail": 0, "below lam": 0}
    for prob in problems:
        stage_calls.clear()
        sol = solve_minimax(prob)
        kkt_certificate(prob, sol)
        if sol.lam == 0:
            continue
        ran["no tail"] += not prob.space.has_tail
        for stage, label in (("_countable_value", "countable"), ("_null_side_mixture", "null side")):
            ran[label if stage in stage_calls else f"{label} skipped"] += 1
        # The two stages take the countably additive part as (ints, den).
        lam_qc = sol.q_alpha.atom_part()
        gamma_c, _ = minimax._countable_value(prob, lam_qc.scaled)
        assert sol.gamma_c == gamma_c
        _, level_c = minimax._null_side_mixture(prob, lam_qc.scaled, sol.lam, gamma_c)
        assert sol.level_c == level_c
        assert all(m >= 0 for m in sol.p_weights)
        assert sum(sol.p_weights) == 1
        assert _auxiliary_dual_value(prob, sol.p_weights, lam_qc, sol.gamma_c) == sol.level_c
        tau_pc = [
            sum((m * p.atom_mass[k] for m, p in zip(sol.p_weights, prob.p_family.family)), F(0))
            for k in range(prob.space.n_atoms)
        ]
        assert _neyman_pearson_value(tau_pc, lam_qc.atom_mass, prob.alpha) == sol.gamma_c
        ran["below lam"] += sol.gamma_c < sol.lam
    assert min(ran.values()) >= 10, ran


def _lp_stages(monkeypatch, prob):
    """The stage functions that called ``solve_lp``, in order, for one solve."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(minimax, "solve_lp", counting)
    sol = solve_minimax(prob)
    kkt_certificate(prob, sol)
    return calls, sol


def test_lp_count_per_solve(monkeypatch):
    intro = load_problem(str(FIXTURES / "intro_example.json"))
    assert _lp_stages(monkeypatch, intro)[0] == ["_solve_epigraph", "_min_attained_level"]
    three = load_problem(str(FIXTURES / "three_atom.json"))
    assert "_countable_value" not in _lp_stages(monkeypatch, three)[0]
    # Q_1 = (1, 0) is slack at the unique optimal test x = (1, alpha):
    # E_{Q_1}[x] = 1 > gamma = (1 + alpha)/2, so u_1 = 0 on the whole face.
    space = SampleSpace(("a", "b"), False)
    slack = TestProblem(
        space,
        SublinearExpectation((charge_on(space, {"b": 1}),), "null"),
        SublinearExpectation(
            (charge_on(space, {"a": 1}), charge_on(space, {"a": F(1, 2), "b": F(1, 2)})),
            "alternative",
        ),
        F(1, 3),
    )
    calls, sol = _lp_stages(monkeypatch, slack)
    assert sol.q_weights[0] == 0 and sol.gamma_alpha == F(2, 3)
    assert "_lift_dual_support" not in calls
    for n in (1, 5, 30):
        calls = _lp_stages(monkeypatch, nonexistence_problem(n, F(1, 3)))[0]
        assert calls == ["_solve_epigraph", "_min_attained_level", "_countable_value",
                         "_null_side_mixture"]


def test_each_stage_names_its_program_when_its_lp_fails(monkeypatch, capsys):
    # solve_lp fails for one stage at a time, picked by the calling function.
    intro = load_problem(str(FIXTURES / "intro_example.json"))
    lifting = _degenerate_problem(random.Random(1985))
    deep = nonexistence_problem(3, F(1, 3))
    stages = [
        ("_solve_epigraph", intro, "epigraph program"),
        ("_lift_dual_support", lifting, "dual face program"),
        ("_min_attained_level", intro, "level program"),
        ("_countable_value", deep, "countable part program"),
        ("_null_side_mixture", deep, "auxiliary level program"),
    ]

    def failing_in(stage):
        def fake(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == stage:
                return LpSolution("unbounded")
            return solve_lp(*args, **kwargs)
        return fake

    for stage, prob, what in stages:
        monkeypatch.setattr(minimax, "solve_lp", failing_in(stage))
        with pytest.raises(RuntimeError) as failed:
            solve_minimax(prob)
        assert type(failed.value) is RuntimeError, stage
        assert str(failed.value) == f"{what} ended unbounded; it is always solvable"
    # An internal error exits 3 with the stage's message and no traceback.
    assert cli_main(["solve", str(FIXTURES / "nonexistence.json")]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: auxiliary level program ended unbounded; it is always solvable\n"


def _level_corpus(rng):
    """Ladder-style, degenerate and stress instances, and nonexistence_problem(1..56)."""
    cells = [(6, 2, 2), (8, 2, 2), (12, 3, 3), (6, 2, 6)]
    problems = [_ladder_problem(rng, *rng.choice(cells)) for _ in range(50)]
    problems += [_ladder_problem(rng, *rng.choice(cells), has_tail=False) for _ in range(10)]
    problems += [_degenerate_problem(rng) for _ in range(40)]
    problems += [_stress_problem(rng) for _ in range(60)]
    problems += [nonexistence_problem(n, F(rng.randint(1, 15), 16)) for n in range(1, 57)]
    return problems


def test_every_preset_integer_form_is_the_one_its_values_give():
    # x0, x_alpha and q_alpha are built from the LPs' and the mixture's
    # integers, with scaled preset rather than computed from the slots. It
    # must be what _scale gives, and each object must be the one the public
    # constructor builds from the same values, repr included.
    for prob in _level_corpus(random.Random(1605)):
        sol = solve_minimax(prob)
        x0 = minimax._solve_epigraph(prob)[-1]
        for x in (x0, sol.x_alpha):
            assert x.scaled == _scale(x.slot_values())
            public = TestFunction(x.space, x.atom_value, x.tail_value)
            assert x == public and repr(x) == repr(public) and x.scaled == public.scaled
        q = sol.q_alpha
        assert q.scaled == _scale(q.slot_masses())
        public = Charge(q.space, q.atom_mass, q.tail_mass)
        assert q == public and repr(q) == repr(public) and q.scaled == public.scaled


def _outcome(check, prob, sol):
    try:
        return check(prob, sol)
    except CertificateError as exc:
        return f"CertificateError: {exc}"


def _nudged(rng, sol, qs):
    """Solutions with one field or multiplier moved by a small rational step.

    ``qs`` are the alternative members, one of which may stand in for ``q_alpha``.
    """
    cert = sol.certificate
    step = F(1, 2**70)
    xv = sol.x_alpha.slot_values()
    k = rng.randrange(len(xv))
    xv[k] += step if xv[k] < 1 else -step
    flipped = Case.LEVEL_SLACK if sol.case is Case.LEVEL_ATTAINED else Case.LEVEL_ATTAINED
    out = [
        dataclasses.replace(sol, x_alpha=TestFunction.from_slots(sol.x_alpha.space, xv)),
        dataclasses.replace(sol, gamma_alpha=sol.gamma_alpha - step),
        dataclasses.replace(sol, attained_level=sol.attained_level + step),
        dataclasses.replace(sol, case=flipped),
    ]

    def with_duals(**duals):
        return dataclasses.replace(sol, certificate=dataclasses.replace(cert, **duals))

    u, v, w = list(cert.q_constraint_duals), list(cert.level_duals), list(cert.box_duals)
    for name, vec in (("q_constraint_duals", u), ("level_duals", v), ("box_duals", w)):
        i = rng.randrange(len(vec))
        out.append(with_duals(**{name: tuple(vec[:i] + [vec[i] + step] + vec[i + 1:])}))
        out.append(with_duals(**{name: tuple(vec[:i] + [vec[i] - step] + vec[i + 1:])}))
    # Moving box weight between two slots keeps the gap at 0.
    if len(w) > 1:
        a, b = rng.sample(range(len(w)), 2)
        moved = list(w)
        moved[a] -= step
        moved[b] += step
        out.append(with_duals(box_duals=tuple(moved)))
    out.append(with_duals(box_duals=tuple(w[:-1])))
    # Another member as the least favorable alternative mixture, against the same u.
    other = next((q for q in qs if q != sol.q_alpha), None)
    if other is not None:
        out.append(dataclasses.replace(sol, q_alpha=other))
    return out


def test_integer_certificate_matches_the_fraction_reference():
    # The integer certificate reports what the Fraction one reports, and a
    # nudged solution fails both with the same message.
    rng = random.Random(1605)
    seen = Counter()
    for prob in _level_corpus(rng):
        sol = solve_minimax(prob)
        assert kkt_certificate(prob, sol) == fraction_certificate(prob, sol) == sol.certificate
        for bad in _nudged(rng, sol, prob.q_family.family):
            got = _outcome(kkt_certificate, prob, bad)
            assert got == _outcome(fraction_certificate, prob, bad)
            seen[re.sub(r"-?\d+(/\d+)?", "#", got) if isinstance(got, str) else "accepted"] += 1
    # Every check fired. The reference still tests the slackness residuals,
    # and they never fire: once the gap is 0, the weak duality chain is
    # tight link by link, which is why the library does not test them.
    assert set(seen) == {"accepted"} | {f"CertificateError: {m}" for m in (
        "certificate has the wrong shape for this problem",
        "dual multipliers must be nonnegative",
        "alternative weights sum to #, expected #",
        "test exceeds level: null member # integrates to # > #",
        "worst-case power of the test is #, claimed #",
        "dual infeasible at slot #: mixture mass # exceeds #",
        "duality gap is #, expected #",
        "claimed attained level #, the certificate proves #",
        "test reaches level #, claimed attained level #",
        "case LevelSlack disagrees with attained level #",
        "case LevelAttained disagrees with attained level #",
        "q_alpha is not the mixture of the alternatives under q_weights",
    )}, seen


def _min_form_level(p_rows, reach_rows, target):
    """The former level program: min t : E_{P_i}[x] <= t, E_r[x] >= target, 0 <= x <= 1.

    Its reach rows have negative right-hand sides, so the two-phase
    reference simplex solves it.
    """
    nv = len(p_rows[0])
    a_ub = [p + [F(-1)] for p in p_rows] + [[-m for m in r] + [F(0)] for r in reach_rows]
    b_ub = [F(0)] * len(p_rows) + [-target] * len(reach_rows)
    res = _solve_lp_with_box_rows(
        [F(0)] * nv + [F(1)], a_ub, b_ub, sense="min", upper=[F(1)] * nv + [None]
    )
    assert res.status == "optimal"
    return res.value


def test_level_programs_match_the_min_form_reference():
    rng = random.Random(1605)
    for prob in _level_corpus(rng):
        sol = solve_minimax(prob)
        p_rows, q_rows = slot_rows(prob)
        assert sol.attained_level == _min_form_level(p_rows, q_rows, sol.gamma_alpha)
        if sol.lam:
            lam_row = sol.q_alpha.atom_part().slot_masses()
            assert sol.level_c == _min_form_level(p_rows, [lam_row], sol.gamma_c)


def test_level_programs_start_feasible_and_their_level_duals_sum_to_1(monkeypatch):
    # Nonnegative right-hand sides and no equality rows: the slack basis is
    # feasible, so solve_lp adds no artificial variable and runs no phase 1.
    calls = []

    def recording(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        calls.append((sys._getframe(1).f_code.co_name, args, kwargs, res))
        return res

    monkeypatch.setattr(minimax, "solve_lp", recording)
    seen = Counter()
    for prob in _level_corpus(random.Random(1605)):
        calls.clear()
        solve_minimax(prob)
        dens = [p.scaled[1] for p in prob.p_family.family]
        for stage, args, kwargs, res in calls:
            if stage not in ("_min_attained_level", "_null_side_mixture"):
                continue
            seen[stage] += 1
            c, a_ub, b_ub = args
            assert kwargs == {"upper": [F(1)] * (len(c) - 1) + [None]}
            assert all(b >= 0 for b in b_ub)
            assert res.status == "optimal"
            # Each level row is written over its member's den, so its dual
            # comes back over den.
            assert sum(d * y for d, y in zip(dens, res.y_ub)) == 1
    assert seen["_min_attained_level"] == 216 and seen["_null_side_mixture"] >= 56, seen


def test_every_lp_starts_from_the_slack_basis_and_the_lift_finds_the_face_support(monkeypatch):
    # No stage passes equality rows or a negative right-hand side. The lift
    # runs one LP exactly when some member is a candidate (zero weight in
    # the epigraph's dual, tight at its test); its value counts the
    # candidates that the equality-form face program, solved by the
    # two-phase reference, can charge, its point charges exactly those, and
    # divided by sum u it lies on the dual optimal face.
    calls = []

    def recording(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        calls.append((sys._getframe(1).f_code.co_name, args, kwargs, res))
        return res

    monkeypatch.setattr(minimax, "solve_lp", recording)
    rng = random.Random(1985)
    problems = [_degenerate_problem(rng) for _ in range(60)]
    rng = random.Random(1968)
    problems += [_stress_problem(rng) for _ in range(100)]
    seen = Counter()
    for prob in problems:
        calls.clear()
        sol = solve_minimax(prob)
        mq, mp, nv = len(prob.q_family), len(prob.p_family), prob.space.n_slots
        for stage, args, kwargs, _ in calls:
            seen[stage] += 1
            assert len(args) == 3 and set(kwargs) <= {"upper"}, stage
            assert all(b >= 0 for b in args[2]), stage
        epigraph = calls[0][3]
        assert calls[0][0] == "_solve_epigraph" and epigraph.value == sol.gamma_alpha
        _, q_rows = slot_rows(prob)
        x0 = epigraph.x[:-1]
        candidates = [
            j for j, q in enumerate(q_rows)
            if epigraph.y_ub[j] == 0 and sum(a * b for a, b in zip(q, x0)) == sol.gamma_alpha
        ]
        lifts = [(args, res) for stage, args, _, res in calls if stage == "_lift_dual_support"]
        assert len(lifts) == (1 if candidates else 0)
        if not lifts:
            continue
        ((_, a_ub, b_ub), res), = lifts
        assert len(b_ub) == len(a_ub) and not any(b_ub)
        n_all = mq + mp + nv
        charged = [
            j for j in candidates
            if _max_on_dual_face(prob, sol.gamma_alpha, [F(int(i == j)) for i in range(n_all)]) > 0
        ]
        assert res.value == len(charged)
        assert [j for j in candidates if res.x[j] > 0] == charged
        if res.value == 0:
            seen["lift of value 0"] += 1
            continue
        seen["lift of positive value"] += 1
        # The lift solves for u_j / den_j and v_i / den_i, den the members' scale.
        u = [c.scaled[1] * a for c, a in zip(prob.q_family.family, res.x[:mq])]
        v = [c.scaled[1] * a for c, a in zip(prob.p_family.family, res.x[mq : mq + mp])]
        w = res.x[mq + mp : n_all]
        s = sum(u)
        assert s >= 1
        assert prob.alpha * sum(v) / s + sum(w) / s == sol.gamma_alpha
    assert min(seen.values()) >= 10 and len(seen) == 7, seen


def test_the_lift_writes_its_slot_rows_in_the_members_integers(monkeypatch):
    # The lift's LP is over u_j / den_j and v_i / den_i, den a member's
    # scale, so each slot row holds the members' scaled integers as ints,
    # not the lcm of every member's denominator. The gap row is rational,
    # so it goes to solve_lp as ints over the lcm of its denominators.
    # Over that lcm, the two copied 40x10x10 instances below took 2 s and
    # 6 s on a 2-vCPU Xeon; over the members' integers, 0.2 s each.
    lifts = []

    def recording(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_lift_dual_support":
            lifts.append(args[1])
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(minimax, "solve_lp", recording)
    rng = random.Random(1985)
    problems = [_degenerate_problem(rng) for _ in range(40)] + [_copied_problem(s) for s in (0, 2)]
    lifted = []
    for prob in problems:
        lifts.clear()
        sol = solve_minimax(prob)
        kkt_certificate(prob, sol)
        lifted.append(bool(lifts))
        if not lifts:
            continue
        (a_ub,) = lifts
        qs, ps, nv = prob.q_family.family, prob.p_family.family, prob.space.n_slots
        mq, dens = len(qs), [c.scaled[1] for c in qs + ps]
        for k, row in enumerate(a_ub[:nv]):
            assert all(type(e) is int for e in row)
            assert row[: len(dens)] == [q.scaled[0][k] for q in qs] + [-p.scaled[0][k] for p in ps]
        gamma, alpha = sol.gamma_alpha, prob.alpha
        gap = [-gamma * d for d in dens[:mq]] + [alpha * d for d in dens[mq:]] + [F(1)] * nv
        scale = math.lcm(*(e.denominator for e in gap))
        assert all(type(e) is int for e in a_ub[nv])
        assert a_ub[nv] == [int(e * scale) for e in gap] + [0] * (len(a_ub[nv]) - len(gap))
        for row in a_ub[nv + 1 :]:
            (j,) = [j for j, e in enumerate(row[:mq]) if e]
            assert row[j] == -dens[j] and sorted(row) == [-dens[j]] + [0] * (len(row) - 2) + [1]
    assert lifted[-2:] == [True, True] and sum(lifted) >= 10, lifted


def test_every_program_of_the_chain_writes_its_rows_in_the_members_integers(monkeypatch):
    # The epigraph, level, countable and null-side programs write each row
    # from one charge's scaled integers, as ints, so solve_lp takes it as it
    # is. Divided by the charge's den it is the row in masses: solved that
    # way, through solve_scaled, the LP has the same point and value, and
    # each row's dual is den times the integer row's. The Fraction
    # reference, with the bounds written as rows, reaches the same value.
    calls = []

    def recording(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        calls.append((sys._getframe(1).f_code.co_name, args, kwargs, res))
        return res

    monkeypatch.setattr(minimax, "solve_lp", recording)
    rng = random.Random(2016)
    cells = [(6, 2, 2), (8, 2, 2), (12, 3, 3), (6, 2, 6)]
    problems = [_ladder_problem(rng, *rng.choice(cells), has_tail=rng.random() < 0.7)
                for _ in range(40)]
    problems += [_degenerate_problem(rng) for _ in range(40)]
    problems += [nonexistence_problem(n, F(1, 3)) for n in (1, 7, 30)]
    seen = Counter()
    for prob in problems:
        calls.clear()
        sol = solve_minimax(prob)
        kkt_certificate(prob, sol)
        ps, qs, nv = prob.p_family.family, prob.q_family.family, prob.space.n_slots
        lam_qc = sol.q_alpha.atom_part()
        # The t rows come first, then the cap rows; the countable program has cap rows only.
        layouts = {
            "_solve_epigraph": (qs, ps),
            "_min_attained_level": (ps, qs),
            "_countable_value": ((), ps),
            "_null_side_mixture": (ps, (lam_qc,)),
        }
        for stage, (c, a_ub, b_ub), kwargs, res in calls:
            if stage == "_lift_dual_support":
                continue
            seen[stage] += 1
            t_rows, cap_rows = layouts[stage]
            want_c = lam_qc.scaled[0][:nv] if stage == "_countable_value" else [0] * nv + [1]
            assert c == want_c and all(type(e) is int for e in c), stage
            tail = [] if stage == "_countable_value" else [0]
            want = [[-e for e in m.scaled[0][:nv]] + [m.scaled[1]] for m in t_rows]
            want += [m.scaled[0][:nv] + tail for m in cap_rows]
            assert a_ub == want and all(type(e) is int for row in a_ub for e in row), stage
            dens = [m.scaled[1] for m in t_rows + cap_rows]
            masses = [[F(e, d) for e in row] for row, d in zip(a_ub, dens)]
            caps = [b / d for b, d in zip(b_ub, dens)]
            ref = solve_scaled(c, masses, caps, **kwargs)
            assert (ref.x, ref.value, ref.y_upper) == (res.x, res.value, res.y_upper), stage
            assert ref.y_ub == tuple(d * y for d, y in zip(dens, res.y_ub)), stage
            box = [[int(j == k) for j in range(len(c))]
                   for k, u in enumerate(kwargs["upper"]) if u is not None]
            ref = fraction_solve_lp(c, masses + box, caps + [1] * len(box), sense="max")
            assert ref.value == res.value, stage
    assert min(seen[s] for s in ("_countable_value", "_null_side_mixture")) >= 5, seen
    assert seen["_solve_epigraph"] == seen["_min_attained_level"] == len(problems), seen


def _drawn_problem(draw):
    """A problem from 3x1x2 to 40x10x10 (atoms x |P| x |Q|), with or without a tail.

    The masses are small integers normalised, so ratios tie often. Q may
    also repeat a member or take one from P, as in the degenerate
    instances above.
    """
    n, mp, mq = draw(st.sampled_from([(3, 1, 2), (6, 2, 6), (12, 3, 3), (20, 5, 5), (40, 10, 10)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    prob = _ladder_problem(rng, n, mp, mq, has_tail=draw(st.booleans()))
    p_fam, q_fam = prob.p_family.family, list(prob.q_family.family)
    if draw(st.booleans()):
        q_fam[rng.randrange(mq)] = rng.choice(p_fam + tuple(q_fam))
    return dataclasses.replace(prob, q_family=SublinearExpectation(tuple(q_fam), "alternative"))


@st.composite
def _permuted_problems(draw):
    """A drawn problem (see ``_drawn_problem``) and a permutation of each axis."""
    prob = _drawn_problem(draw)
    sizes = (prob.space.n_atoms, len(prob.p_family), len(prob.q_family))
    return prob, [draw(st.permutations(range(k))) for k in sizes]


def _permuted(prob, atoms, p_order, q_order):
    """``prob`` with its atoms, null members and alternative members reordered."""
    space = SampleSpace(tuple(prob.space.atoms[i] for i in atoms), prob.space.has_tail)

    def moved(c):
        return Charge(space, tuple(c.atom_mass[i] for i in atoms), c.tail_mass)

    p_fam = tuple(moved(prob.p_family.family[i]) for i in p_order)
    q_fam = tuple(moved(prob.q_family.family[j]) for j in q_order)
    return TestProblem(
        space,
        SublinearExpectation(p_fam, "null"),
        SublinearExpectation(q_fam, "alternative"),
        prob.alpha,
    )


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_permuted_problems())
def test_permutations_leave_the_value_level_case_and_support_in_place(drawn):
    # Past the oracle's 6 variables: permuting the atoms, the null members
    # or the alternative members is a relabelling, so the value, the least
    # attained level and the case stay exactly the same, and the maximal
    # support of q_weights moves with the alternative members.
    prob, (atoms, p_order, q_order) = drawn
    sol = solve_minimax(prob)
    support = [w > 0 for w in sol.q_weights]
    identity = [list(range(k)) for k in (len(atoms), len(p_order), len(q_order))]
    for axis, perm in enumerate((atoms, p_order, q_order)):
        orders = list(identity)
        orders[axis] = perm
        moved = solve_minimax(_permuted(prob, *orders))
        assert (moved.gamma_alpha, moved.attained_level, moved.case) == (
            sol.gamma_alpha, sol.attained_level, sol.case
        ), axis
        assert [w > 0 for w in moved.q_weights] == [support[j] for j in orders[2]], axis


@st.composite
def _extended_problems(draw):
    """A drawn problem, an atom to split, and a mixture and a place for it in each family."""
    prob = _drawn_problem(draw)
    mixtures = []
    for fam in (prob.p_family.family, prob.q_family.family):
        weights = draw(st.lists(st.integers(0, 3), min_size=len(fam), max_size=len(fam))
                       .filter(any))
        mixtures.append((weights, draw(st.integers(0, len(fam)))))
    return prob, draw(st.integers(0, prob.space.n_atoms - 1)), mixtures


def _split(prob, k):
    """``prob`` with atom k split in two, each half carrying half of every member's mass on k."""
    atoms = prob.space.atoms
    space = SampleSpace(atoms[: k + 1] + (f"{atoms[k]}s",) + atoms[k + 1 :], prob.space.has_tail)

    def halved(c):
        m = c.atom_mass
        return Charge(space, m[:k] + (m[k] / 2, m[k] / 2) + m[k + 1 :], c.tail_mass)

    return TestProblem(
        space,
        SublinearExpectation(tuple(map(halved, prob.p_family.family)), "null"),
        SublinearExpectation(tuple(map(halved, prob.q_family.family)), "alternative"),
        prob.alpha,
    )


def _with_mixture(prob, side, weights, at):
    """``prob`` with the mixture of one family's members by ``weights`` inserted at ``at``."""
    family = getattr(prob, side)
    fam = list(family.family)
    fam.insert(at, mix(fam, [F(wt, sum(weights)) for wt in weights]))
    return dataclasses.replace(prob, **{side: SublinearExpectation(tuple(fam), family.role)})


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_extended_problems())
@example((_copied_problem(0), 17, (([1] * 10, 10), ([1, 0, 2, 0, 0, 0, 0, 0, 0, 3], 5))))
def test_splits_and_mixtures_leave_the_value_level_case_and_support_in_place(drawn):
    # Past the oracle's 6 variables. Splitting an atom in two halves maps
    # tests onto tests with the same integrals (x_k = the halves' average).
    # A mixture of P members never integrates above the largest member, and
    # a mixture of Q members never below the smallest, so neither moves the
    # worst-case level or power of any test. So the value, the least
    # attained level and the case stay exactly the same. A dual point of
    # the extended problem maps onto one of the original with the mixture's
    # weight spread over its members, so the maximal support of q_weights
    # stays in place, and a Q mixture is charged exactly when every member
    # it weighs is.
    prob, k, ((p_weights, p_at), (q_weights, q_at)) = drawn
    sol = solve_minimax(prob)
    support = [w > 0 for w in sol.q_weights]
    q_support = list(support)
    q_support.insert(q_at, all(s for s, wt in zip(support, q_weights) if wt))
    for name, moved, want in (
        ("split", _split(prob, k), support),
        ("P mixture", _with_mixture(prob, "p_family", p_weights, p_at), support),
        ("Q mixture", _with_mixture(prob, "q_family", q_weights, q_at), q_support),
    ):
        other = solve_minimax(moved)
        assert (other.gamma_alpha, other.attained_level, other.case) == (
            sol.gamma_alpha, sol.attained_level, sol.case
        ), name
        assert [w > 0 for w in other.q_weights] == want, name
