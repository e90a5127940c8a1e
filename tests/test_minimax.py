"""Worst-case test construction, case split, and representation checks."""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from _fraction_simplex import solve_lp as fraction_solve_lp

from robustnp import (
    Case,
    CertificateError,
    Charge,
    PureLeastFavorableError,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    TestProblem,
    beta_criterion_check,
    check_h1,
    compute_beta,
    detect_case,
    expectation,
    kkt_certificate,
    lower_expectation,
    minimax,
    solve_lp,
    solve_minimax,
    upper_expectation,
    verify_degenerate_form,
    verify_threshold_form,
    vertex_enumerate,
    yosida_hewitt,
)
from robustnp.cli import load_problem
from robustnp.hypotheses import nonexistence_problem

F = Fraction
FIXTURES = Path(minimax.__file__).parent / "fixtures"


def charge_on(space, mapping, tail=0):
    return Charge.from_mapping(space, {k: F(v) for k, v in mapping.items()}, F(tail))


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
    assert sol.p_alpha is not None
    assert sol.p_alpha.atom_mass == (F(1, 4), F(1, 4), F(1, 2))
    assert detect_case(prob, sol) is Case.LEVEL_ATTAINED


def test_three_atom_certificate():
    prob = three_atom_problem()
    sol = solve_minimax(prob)
    cert = kkt_certificate(prob, sol)
    assert cert.duality_gap == 0
    assert all(r == 0 for r in cert.cs_residuals)
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
    assert rep.precondition_support
    assert rep.precondition_grid
    assert compute_beta(prob.p_family, yosida_hewitt(sol.q_alpha).countable) == F(1, 2)
    assert beta_criterion_check(prob, sol)


def test_dirac_slack_case():
    prob = dirac_problem()
    sol = solve_minimax(prob)
    assert sol.gamma_alpha == 1
    assert sol.x_alpha.atom_value == (F(0), F(1))
    assert sol.attained_level == 0
    assert sol.case is Case.LEVEL_SLACK
    assert sol.lam == 1
    assert detect_case(prob, sol) is Case.LEVEL_SLACK
    rep = verify_degenerate_form(prob, sol)
    assert rep.verdict
    assert rep.form == "degenerate"
    assert rep.gamma_consistent
    skew = charge_on(prob.space, {"0": F(3, 4), "1": F(1, 4)})
    assert verify_degenerate_form(prob, sol, skew).verdict
    assert compute_beta(prob.p_family, yosida_hewitt(sol.q_alpha).countable) == 1
    assert beta_criterion_check(prob, sol)
    with pytest.raises(ValueError, match="level-slack"):
        verify_degenerate_form(three_atom_problem(), solve_minimax(three_atom_problem()))


def test_degenerate_reference_validation():
    prob = dirac_problem()
    sol = solve_minimax(prob)
    other = SampleSpace(("x",), False)
    with pytest.raises(ValueError, match="different sample space"):
        verify_degenerate_form(prob, sol, charge_on(other, {"x": 1}))
    half = Charge(prob.space, (F(1, 2), F(0)), F(0))
    with pytest.raises(ValueError, match="probability"):
        verify_degenerate_form(prob, sol, half)


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
    prob = three_atom_problem()
    sol = solve_minimax(prob)
    wrong_value = dataclasses.replace(sol, gamma_alpha=F(1, 2))
    with pytest.raises(ValueError, match="optimum"):
        detect_case(prob, wrong_value)
    zeros = TestFunction(prob.space, (F(0), F(0), F(0)), F(0))
    wrong_test = dataclasses.replace(sol, x_alpha=zeros)
    with pytest.raises(ValueError, match="attain"):
        detect_case(prob, wrong_test)


def test_certificate_rejects_fake_optimum():
    prob = three_atom_problem()
    sol = solve_minimax(prob)
    zeros = TestFunction(prob.space, (F(0), F(0), F(0)), F(0))
    fake = dataclasses.replace(sol, x_alpha=zeros)
    with pytest.raises(CertificateError):
        kkt_certificate(prob, fake)


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
    assert not check_h1(prob.p_family, prob.q_family)
    sol = solve_minimax(prob)
    assert sol.case is Case.LEVEL_ATTAINED
    qc = yosida_hewitt(sol.q_alpha).countable
    assert compute_beta(prob.p_family, qc) == 1 > 1 - prob.alpha
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
            assert verify_degenerate_form(prob, sol).verdict
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
    assert check_h1(prob.p_family, prob.q_family)
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
    assert rep.precondition_support is False
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


def _max_weight_on_dual_face(prob, gamma, j0):
    """Largest u_j0 over the optimal face of the epigraph program's dual.

    The instances all have a tail, so the slots are the atoms then the tail.
    Variables (u, v, w) >= 0 with sum u >= 1, sum_j u_j q_j <= sum_i v_i p_i
    + w slot by slot, and dual objective alpha * sum v + sum w = gamma.
    """
    q_cols = [q.atom_mass + (q.tail_mass,) for q in prob.q_family.family]
    p_cols = [p.atom_mass + (p.tail_mass,) for p in prob.p_family.family]
    mq, mp, nv = len(q_cols), len(p_cols), prob.space.n_slots
    c = [F(0)] * (mq + mp + nv)
    c[j0] = F(1)
    a_ub = [[F(-1)] * mq + [F(0)] * (mp + nv)]
    b_ub = [F(-1)]
    for k in range(nv):
        row = [q[k] for q in q_cols] + [-p[k] for p in p_cols] + [F(0)] * nv
        row[mq + mp + k] = F(-1)
        a_ub.append(row)
        b_ub.append(F(0))
    a_eq = [[F(0)] * mq + [prob.alpha] * mp + [F(1)] * nv]
    res = solve_lp(c, a_ub, b_ub, a_eq, [gamma], sense="max")
    assert res.status == "optimal"
    return res.value


def test_lift_support_is_maximal_on_degenerate_instances():
    # A member may carry zero weight only if no optimal dual charges it.
    rng = random.Random(1985)
    checked = 0
    for _ in range(60):
        prob = _degenerate_problem(rng)
        sol = solve_minimax(prob)
        kkt_certificate(prob, sol)
        for j, weight in enumerate(sol.q_weights):
            if weight == 0:
                assert _max_weight_on_dual_face(prob, sol.gamma_alpha, j) == 0
                checked += 1
        # Repeated members are interchangeable on the face.
        for a, qa in enumerate(prob.q_family.family):
            for b, qb in enumerate(prob.q_family.family):
                if qa == qb:
                    assert (sol.q_weights[a] == 0) == (sol.q_weights[b] == 0)
    assert checked >= 20


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


def _solve_lp_with_box_rows(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, sense="min",
                            upper=None):
    """The reference simplex, with the bounds ``upper`` written as rows."""
    n, m = len(c), len(a_ub or [])
    upper = upper or [None] * n
    kept = [k for k in range(n) if upper[k] is not None]
    box = [[F(int(j == k)) for j in range(n)] for k in kept]
    res = fraction_solve_lp(
        c, list(a_ub or []) + box, list(b_ub or []) + [upper[k] for k in kept], a_eq, b_eq,
        sense,
    )
    if res.status != "optimal" or not kept:
        return res
    y_upper = [F(0)] * n
    for k, y in zip(kept, res.y_ub[m:]):
        y_upper[k] = y
    return dataclasses.replace(res, y_ub=res.y_ub[:m], y_upper=tuple(y_upper))


def test_bounded_pipeline_matches_explicit_box_rows(monkeypatch):
    # Every field that the LPs' optimal values decide is the same whether
    # the test box is variable bounds or explicit rows.
    rng = random.Random(1977)
    problems = [_random_problem(rng) for _ in range(30)]
    problems += [_degenerate_problem(rng) for _ in range(30)]
    problems += [_stress_problem(rng) for _ in range(30)]
    problems += [_large_problem(rng) for _ in range(5)]
    bounded = [solve_minimax(prob) for prob in problems]
    monkeypatch.setattr(minimax, "solve_lp", _solve_lp_with_box_rows)
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


def test_certificate_shortcuts_match_the_lps_they_replace(monkeypatch):
    # gamma_c and level_c read off the epigraph's certificate equal what the
    # countable and auxiliary programs return, and p_weights is an exact
    # optimal auxiliary dual either way.
    rng = random.Random(1956)
    cells = [(6, 2, 2), (8, 2, 2), (12, 3, 3), (6, 2, 6)]
    problems = [_ladder_problem(rng, *rng.choice(cells)) for _ in range(60)]
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
           "no tail": 0}
    for prob in problems:
        stage_calls.clear()
        sol = solve_minimax(prob)
        kkt_certificate(prob, sol)
        if sol.lam == 0:
            continue
        ran["no tail"] += not prob.space.has_tail
        for stage, label in (("_countable_value", "countable"), ("_null_side_mixture", "null side")):
            ran[label if stage in stage_calls else f"{label} skipped"] += 1
        p_rows, _ = minimax._slot_rows(prob)
        lam_qc = sol.q_alpha.atom_part()
        gamma_c, _ = minimax._countable_value(prob, p_rows, lam_qc)
        assert sol.gamma_c == gamma_c
        _, _, level_c = minimax._null_side_mixture(prob, p_rows, lam_qc, gamma_c)
        assert sol.level_c == level_c
        assert all(m >= 0 for m in sol.p_weights)
        assert sum(sol.p_weights) == 1
        assert _auxiliary_dual_value(prob, sol.p_weights, lam_qc, sol.gamma_c) == sol.level_c
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
