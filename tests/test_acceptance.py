"""End-to-end checks of the package against its frozen expected values.

Each test covers one numbered criterion and reports a single PASS/FAIL
line on the live terminal so a full run reads as a checklist. Shared
instance batches are solved once per session via module-scoped fixtures.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import robustnp
from robustnp import (
    Case,
    Charge,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    compute_beta,
    expectation,
    hypothesis_report,
    kkt_certificate,
    lower_expectation,
    mix,
    np_test,
    solve_minimax,
    truncation_sweep,
    upper_expectation,
    verify_threshold_form,
    vertex_enumerate,
)
from robustnp import minimax
from robustnp.cli import load_problem
from robustnp.hypotheses import nonexistence_problem
from robustnp.minimax import TestProblem

from _oracle import np_oracle
from test_minimax import _degenerate_problem

F = Fraction

FIXTURES = Path(robustnp.__file__).parent / "fixtures"


def default_reference_charges(space, count=3, seed=212):
    """Uniform plus ``count`` seeded random full-support reference measures."""
    n = space.n_atoms
    charges = [Charge(space, tuple(F(1, n) for _ in range(n)), F(0))]
    rng = random.Random(seed)
    for _ in range(count):
        nums = [rng.randint(1, 9) for _ in range(n)]
        den = sum(nums)
        charges.append(Charge(space, tuple(F(v, den) for v in nums), F(0)))
    return charges


@contextmanager
def criterion(capfd, num, label):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"criterion {num:02d}: FAIL  {label}")
        raise
    with capfd.disabled():
        print(f"criterion {num:02d}: PASS  {label}")


def solved(name, alpha=None):
    prob = load_problem(str(FIXTURES / f"{name}.json"), alpha)
    return prob, solve_minimax(prob)


def _random_instance(rng):
    n = rng.randint(2, 4)
    has_tail = rng.random() < 0.4
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), has_tail)
    # A tail on at most one side keeps the vanishing-null condition intact,
    # which the representation checks in the follow-up criterion rely on.
    tail_side = rng.choice(["p", "q"]) if has_tail else None

    def member(side):
        d = rng.randint(2, 8)
        slots = n + 1 if (has_tail and side == tail_side) else n
        raw = [0] * slots
        for _ in range(d):
            raw[rng.randrange(slots)] += 1
        atom = tuple(F(v, d) for v in raw[:n])
        tail = F(raw[n], d) if slots > n else F(0)
        return Charge(space, atom, tail)

    p_fam = SublinearExpectation(
        tuple(member("p") for _ in range(rng.randint(1, 3))), "null"
    )
    q_fam = SublinearExpectation(
        tuple(member("q") for _ in range(rng.randint(1, 3))), "alternative"
    )
    alpha = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
    return TestProblem(space, p_fam, q_fam, alpha)


@pytest.fixture(scope="module")
def batch200():
    rng = random.Random(20260822)
    out = []
    for _ in range(200):
        prob = _random_instance(rng)
        sol = solve_minimax(prob)
        oracle = vertex_enumerate(prob)
        out.append((prob, sol, oracle))
    return out


@pytest.fixture(scope="module")
def sweep_solutions():
    return [(n, nonexistence_problem(n), solve_minimax(nonexistence_problem(n)))
            for n in range(1, 11)]


def test_criterion_01_three_atom(capfd):
    with criterion(capfd, 1, "three-atom instance reproduced exactly"):
        prob, sol = solved("three_atom")
        assert prob.alpha == F(1, 2)
        assert sol.gamma_alpha == 1
        assert sol.x_alpha.atom_value == (F(1), F(1), F(0))
        assert sol.attained_level == F(1, 2)
        assert sol.case is Case.LEVEL_ATTAINED
        rep = verify_threshold_form(prob, sol)
        assert rep.verdict
        assert 0 < rep.kappa < 2


def test_criterion_02_dirac_degenerate(capfd):
    with criterion(capfd, 2, "disjoint Dirac pair degenerate at three levels"):
        for alpha in (F(1, 10), F(1, 3), F(9, 10)):
            prob, sol = solved("dirac", alpha)
            assert sol.gamma_alpha == 1
            assert sol.attained_level == 0
            assert sol.case is Case.LEVEL_SLACK
            qc = sol.q_alpha.atom_part()
            beta = compute_beta(prob.p_family, qc)
            assert beta == 1 > 1 - alpha
            # The degenerate form accepts on the support of qc, and the
            # test integrates qc to its full mass.
            accept = {a for a, m in zip(prob.space.atoms, qc.atom_mass) if m > 0}
            values = dict(zip(prob.space.atoms, sol.x_alpha.atom_value))
            assert accept and all(values[a] == 1 for a in accept)
            assert expectation(qc, sol.x_alpha) == sol.lam
            # The form does not depend on the reference K: against every K,
            # the density of qc is positive exactly on the accepted atoms,
            # also where K has a zero-mass atom (and both vanish there).
            refs = default_reference_charges(prob.space, count=3)
            assert len(refs) >= 3
            refs += [Charge.from_mapping(prob.space, {a: 1}) for a in prob.space.atoms]
            for ref in refs:
                # h = dqc/dB against the base B = (K + qc) / 2, where B > 0.
                h = {
                    a: q / ((k + q) / 2)
                    for a, k, q in zip(prob.space.atoms, ref.atom_mass, qc.atom_mass)
                    if k + q > 0
                }
                positive = {a for a, v in h.items() if v > 0}
                assert positive == accept


def test_criterion_03_unique_optimum_on_grid(capfd):
    with criterion(capfd, 3, "grid discretization has the unique expected test"):
        prob, sol = solved("two_dirac_P")
        grid = [a for a in prob.space.atoms if F(a) < 1]
        assert len(grid) >= 5 and "1" in prob.space.atoms
        assert prob.alpha == F(1, 2)
        assert sol.gamma_alpha == 1
        values = dict(zip(prob.space.atoms, sol.x_alpha.atom_value))
        assert all(values[a] == 1 for a in grid)
        assert values["1"] == 0
        oracle = vertex_enumerate(prob, max_family=5)
        assert oracle.value == 1
        assert len(oracle.argmax_tests) == 1
        assert oracle.argmax_tests[0].atom_value == sol.x_alpha.atom_value


def test_criterion_04_intro_truncation(capfd):
    with criterion(capfd, 4, "introductory instance: displayed test and optima"):
        prob, sol = solved("intro_example")
        values = {
            "1/2": F(1, 2),
            "1/4": F(0),
            "1/8": F(1, 2),
            "1/16": F(1, 2),
            "1/32": F(1, 2),
            "3/4": F(1),
            "other": F(0),
        }
        displayed = TestFunction(prob.space, tuple(values[a] for a in prob.space.atoms), F(1, 2))
        assert upper_expectation(prob.p_family, displayed) <= prob.alpha
        assert lower_expectation(prob.q_family, displayed) == F(11, 16)
        assert sol.gamma_alpha >= F(11, 16)
        oracle = vertex_enumerate(prob, max_vars=8, max_family=5)
        assert oracle.value == sol.gamma_alpha
        for t in oracle.argmax_tests:
            assert upper_expectation(prob.p_family, t) == F(1, 3)


def test_criterion_05_nonexistence_sweep(capfd, sweep_solutions):
    with criterion(capfd, 5, "truncation sweep follows the closed form"):
        values = [sol.gamma_alpha for _, _, sol in sweep_solutions]
        assert values == [1 - F(1, 2 ** (n + 1)) for n in range(1, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1 for v in values)
        rows = truncation_sweep(nonexistence_problem, range(1, 11))
        assert [v for _, v in rows] == values
        full = sweep_solutions[-1][1]
        assert not hypothesis_report(full).h3


def test_criterion_06_oracle_equivalence(capfd, batch200):
    with criterion(capfd, 6, "200 random instances match brute force exactly"):
        assert len(batch200) == 200
        for prob, sol, oracle in batch200:
            assert sol.gamma_alpha == oracle.value


def test_criterion_07_representation_suite(capfd, batch200):
    with criterion(capfd, 7, "representation and case criterion across the batch"):
        attained_checked = slack_checked = 0
        for prob, sol, _ in batch200:
            if sol.lam > 0:
                qc = sol.q_alpha.atom_part()
                beta = compute_beta(prob.p_family, qc)
                assert (sol.case is Case.LEVEL_SLACK) == (beta > 1 - prob.alpha)
                # Members are probabilities: beta = 1 - max_i P_i(supp lam_qc).
                supp = TestFunction(prob.space, tuple(F(m > 0) for m in qc.atom_mass))
                assert beta == 1 - upper_expectation(prob.p_family, supp)
            if sol.case is Case.LEVEL_ATTAINED:
                rep = hypothesis_report(prob)
                structural = rep.h1 and rep.h3
                if structural and sol.lam > 0 and sol.p_weights is not None:
                    form = verify_threshold_form(prob, sol)
                    assert form.verdict, (prob, form.violations)
                    # The support criterion holds in the attained case.
                    assert beta <= 1 - prob.alpha
                    attained_checked += 1
            elif sol.lam > 0:
                values = sol.x_alpha.atom_value
                assert all(x == 1 for x, m in zip(values, qc.atom_mass) if m > 0)
                assert expectation(qc, sol.x_alpha) == sol.lam
                slack_checked += 1
        assert attained_checked >= 20
        assert slack_checked >= 5


def test_certificate_proves_the_slack_case_degenerate_form(batch200):
    # Each step of the proof in verify_threshold_form's docstring, on every
    # LevelSlack solution of the batch and of the fixtures: v = 0, so the
    # slot rows give 1 <= sum w = gamma, so gamma = 1, w = q_alpha slot by
    # slot, and the test is 1 wherever an alternative member has mass.
    everything = [(p, s) for p, s, _ in batch200]
    everything += [solved(path.stem) for path in sorted(FIXTURES.glob("*.json"))]
    everything += [solved("dirac", alpha) for alpha in (F(1, 10), F(9, 10))]
    slack = [(p, s) for p, s in everything if s.case is Case.LEVEL_SLACK]
    for prob, sol in slack:
        cert = sol.certificate
        assert sol.attained_level < prob.alpha
        assert not any(cert.level_duals)
        assert sol.gamma_alpha == 1
        assert list(cert.box_duals) == sol.q_alpha.slot_masses()
        for q in prob.q_family.family:
            for x, m in zip(sol.x_alpha.slot_values(), q.slot_masses()):
                assert x == 1 or m == 0
    assert len(slack) >= 15
    assert any(p.space.has_tail and sol.q_alpha.tail_mass > 0 for p, sol in slack)


def _solve_spying_on_the_countable_program(problems):
    """``(prob, sol, ran)`` per problem: ``ran`` if the solve called ``_countable_value``."""
    calls = []
    real = minimax._countable_value

    def spy(*args):
        calls.append(args)
        return real(*args)

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimax, "_countable_value", spy)
        for prob in problems:
            calls.clear()
            out.append((prob, solve_minimax(prob), bool(calls)))
    return out


@pytest.fixture(scope="module")
def countable_runs(batch200):
    rng = random.Random(1977)
    problems = [p for p, _, _ in batch200]
    problems += [_degenerate_problem(rng) for _ in range(200)]
    problems += [solved(path.stem)[0] for path in sorted(FIXTURES.glob("*.json"))]
    return _solve_spying_on_the_countable_program(problems)


def test_the_countable_program_never_runs_under_h1(countable_runs):
    # solve_minimax's step 4: a tail-free P has every p_i[tail] = 0, and
    # with a tail-free Q, x0[tail] > 0 forces sum_i v_i p_i[tail] = 0.
    h1 = [ran for prob, _, ran in countable_runs if hypothesis_report(prob).h1]
    assert len(h1) >= 250
    assert not any(h1)
    prob = nonexistence_problem(5)
    assert not hypothesis_report(prob).h1
    assert _solve_spying_on_the_countable_program([prob])[0][2]


def test_certificate_proves_the_threshold_verdict_where_the_countable_program_did_not_run(
    countable_runs,
):
    # verify_threshold_form's docstring: with kappa = sum v, complementary
    # slackness puts x_alpha at 1 where lam_qc > kappa * tau_pc and at 0 where
    # lam_qc < kappa * tau_pc, so the scan finds a cut with no violation.
    checked = zero = 0
    for prob, sol, ran in countable_runs:
        if ran or sol.lam == 0 or sol.case is not Case.LEVEL_ATTAINED:
            continue
        kappa = sum(sol.certificate.level_duals)
        p_alpha = mix(prob.p_family.family, sol.p_weights)
        lam_qc, tau_pc = sol.q_alpha.atom_part(), p_alpha.atom_part()
        for q, p, x in zip(lam_qc.atom_mass, tau_pc.atom_mass, sol.x_alpha.atom_value):
            assert x == 1 or q <= kappa * p
            assert x == 0 or q >= kappa * p
        if tau_pc.total > 0:
            assert verify_threshold_form(prob, sol).verdict
            checked += 1
            zero += kappa == 0
    assert checked >= 250 and zero >= 5


def test_criterion_08_classical_pair(capfd):
    with criterion(capfd, 8, "single-pair tests agree with brute force"):
        rng = random.Random(8088)
        instances = []
        for _ in range(100):
            n = rng.randint(2, 5)
            space = SampleSpace(tuple(f"a{i}" for i in range(n)), False)
            q_raw = [rng.randint(1, 6) for _ in range(n)]
            p_raw = [rng.randint(0, 6) for _ in range(n)]
            if sum(p_raw) == 0:
                p_raw[rng.randrange(n)] = 1
            p = Charge(space, tuple(F(v, sum(p_raw)) for v in p_raw), F(0))
            q = Charge(space, tuple(F(v, sum(q_raw)) for v in q_raw), F(0))
            alpha = rng.choice([F(1, 4), F(1, 3), F(1, 2), F(3, 4)])
            res = np_test(p, q, alpha)
            assert res.power == np_oracle(p, q, alpha).value
            if all(m > 0 for m in p.atom_mass):
                assert res.attained_level == alpha
            instances.append((p, q))
        for p, q in instances[:20]:
            grid = [F(k, 11) for k in range(1, 11)]
            powers = [np_test(p, q, a).power for a in grid]
            assert all(x <= y for x, y in zip(powers, powers[1:]))


def test_criterion_09_duality_invariants(capfd, batch200, sweep_solutions):
    with criterion(capfd, 9, "exact duality certificates on every solved instance"):
        everything = [(p, s) for p, s, _ in batch200]
        everything += [(p, s) for _, p, s in sweep_solutions]
        for name in ("three_atom", "dirac", "two_dirac_P", "intro_example", "nonexistence"):
            everything.append(solved(name))
        for prob, sol in everything:
            cert = kkt_certificate(prob, sol)
            assert prob.alpha * sum(cert.level_duals) + sum(cert.box_duals) == sol.gamma_alpha
            assert sol.q_alpha.total == 1
            assert expectation(sol.q_alpha, sol.x_alpha) == sol.gamma_alpha


def test_criterion_10_existence_under_continuity(capfd, batch200, sweep_solutions):
    with criterion(capfd, 10, "continuity yields attainment; pure tails do not"):
        continuous = 0
        for prob, sol, _ in batch200:
            rep = hypothesis_report(prob)
            if rep.continuity_p and rep.continuity_q:
                continuous += 1
                worst = min(
                    expectation(q, sol.x_alpha) for q in prob.q_family.family
                )
                assert worst == sol.gamma_alpha
        assert continuous >= 50
        # The non-attainment pattern: a pure-tail null member keeps every
        # truncation value strictly below the common supremum 1.
        for n, prob, sol in sweep_solutions:
            assert any(c.tail_mass == 1 for c in prob.p_family.family)
            assert sol.gamma_alpha < 1
            assert 1 - sol.gamma_alpha == F(1, 2 ** (n + 1))
