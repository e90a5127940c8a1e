"""Structural hypothesis checks and the truncation sweep."""

import random
from fractions import Fraction

import pytest

from robustnp import (
    Case,
    Charge,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    TestProblem,
    expectation,
    hypotheses,
    hypothesis_report,
    kkt_certificate,
    nonexistence_problem,
    solve_minimax,
    truncation_sweep,
    upper_expectation,
)

F = Fraction


def tailed_space(n):
    return SampleSpace(tuple(str(k) for k in range(1, n + 1)), True)


def geometric(space):
    n = space.n_atoms
    return Charge(space, tuple(F(1, 2**k) for k in range(1, n + 1)), F(1, 2**n))


def fam(role, *charges):
    return SublinearExpectation(charges, role)


def report(nulls, alternatives):
    space = nulls[0].space
    return hypothesis_report(
        TestProblem(space, fam("null", *nulls), fam("alternative", *alternatives), F(1, 2))
    )


def test_h1_examples():
    space = tailed_space(3)
    pure = Charge(space, (F(0),) * 3, F(1))
    geo = geometric(space)
    ca = Charge(space, (F(1, 2), F(1, 4), F(1, 4)), F(0))
    assert report([ca], [ca]).h1
    # Alternative limits vanish, so the implication holds with room to spare.
    assert report([pure], [ca]).h1
    half_p = Charge(space, (F(1, 4), F(1, 4), F(0)), F(1, 2))
    half_q = Charge(space, (F(0), F(1, 4), F(1, 4)), F(1, 2))
    assert not report([half_p], [half_q]).h1
    # Geometric keeps tail mass, but the tail-free null side still vanishes.
    assert report([ca], [geo]).h1


def test_h2_examples():
    # H2 has no check (the hypotheses module docstring argues it holds at
    # every test); on each pair, every null member attaining a positive
    # upper level charges {x > 0}.
    def charges_positive_part(c, x):
        return any(m and v for m, v in zip(c.slot_masses(), x.slot_values()))

    space = SampleSpace(("a", "b", "c"), False)
    full = Charge(space, (F(1, 2), F(1, 4), F(1, 4)), F(0))
    x = TestFunction(space, (F(1, 2), F(1), F(0)), F(0))
    assert upper_expectation(fam("null", full), x) == F(1, 2)
    assert charges_positive_part(full, x)

    tspace = tailed_space(2)
    pure = Charge(tspace, (F(0), F(0)), F(1))
    finite_ind = TestFunction(tspace, (F(1), F(1)), F(0))
    # The level is 0, so the criterion asks nothing of the pure charge.
    assert upper_expectation(fam("null", pure), finite_ind) == 0
    assert not charges_positive_part(pure, finite_ind)

    dirac = Charge(space, (F(1), F(0), F(0)), F(0))
    off_support = TestFunction(space, (F(0), F(1), F(1)), F(0))
    assert upper_expectation(fam("null", dirac), off_support) == 0


def test_h3_examples():
    space = tailed_space(2)
    ca = Charge(space, (F(1, 2), F(1, 2)), F(0))
    pure = Charge(space, (F(0), F(0)), F(1))
    t_half = Charge(space, (F(1, 4), F(1, 4)), F(1, 2))
    t_third = Charge(space, (F(1, 3), F(1, 3)), F(1, 3))
    assert report([ca], [ca]).h3
    assert not report([pure], [ca]).h3
    assert not report([ca], [pure]).h3
    assert report([t_half], [t_third]).h3


def test_continuity_examples():
    space = tailed_space(2)
    ca = Charge(space, (F(1, 2), F(1, 2)), F(0))
    pure = Charge(space, (F(0), F(0)), F(1))
    quarter = Charge(space, (F(1, 2), F(1, 4)), F(1, 4))
    # Each family is read on its own side, whatever the other side holds.
    for family, continuous in (([ca], True), ([ca, pure], False), ([quarter], False)):
        assert report(family, [quarter]).continuity_p is continuous
        assert report([quarter], family).continuity_q is continuous


def test_flags_and_witnesses_read_off_the_largest_tail_masses():
    # Each side's largest tail mass sits on a member other than the first:
    # member 1 of the null family, member 2 of the alternative family.
    space = tailed_space(2)

    def member(tail):
        return Charge(space, ((1 - tail) / 2, (1 - tail) / 2), tail)

    masses = (F(0), F(1, 3), F(1))
    shrinking = "along events shrinking to the empty set"
    for p_tail in masses:
        for q_tail in masses:
            rep = report(
                [member(p_tail / 2), member(p_tail)],
                [member(F(0)), member(q_tail / 2), member(q_tail)],
            )
            null = f"null member 1 keeps mass {p_tail}"
            alternative = f"alternative member 2 keeps mass {q_tail}"
            assert rep.h1 is (q_tail == 0 or p_tail == 0)
            assert rep.h3 is (p_tail < 1 and q_tail < 1)
            assert rep.continuity_p is (p_tail == 0)
            assert rep.continuity_q is (q_tail == 0)
            want = {}
            if not rep.h1:
                want["h1"] = f"along the canonical shrinking events, {alternative} while {null}"
            if not rep.h3:
                side = null if p_tail == 1 else alternative
                want["h3"] = f"along the canonical shrinking events, {side}"
            if not rep.continuity_p:
                want["continuity_p"] = f"{null} {shrinking}"
            if not rep.continuity_q:
                want["continuity_q"] = f"{alternative} {shrinking}"
            assert rep.witnesses == want, (p_tail, q_tail)


def test_single_countably_additive_family_passes_everything():
    rng = random.Random(9090)
    for _ in range(20):
        n = rng.randint(2, 4)
        space = SampleSpace(tuple(f"a{i}" for i in range(n)), False)
        raw = [rng.randint(1, 5) for _ in range(n)]
        c = Charge(space, tuple(F(v, sum(raw)) for v in raw), F(0))
        prob = TestProblem(
            space, fam("null", c), fam("alternative", c), F(1, 2)
        )
        rep = hypothesis_report(prob)
        assert rep.h1 and rep.h3 and rep.continuity_p and rep.continuity_q
        assert rep.witnesses == {}


def test_report_witnesses_on_failures():
    space = tailed_space(2)
    pure = Charge(space, (F(0), F(0)), F(1))
    half = Charge(space, (F(1, 4), F(1, 4)), F(1, 2))
    prob = TestProblem(
        space, fam("null", pure), fam("alternative", half), F(1, 2)
    )
    rep = hypothesis_report(prob)
    assert not rep.h1
    assert "mass 1/2" in rep.witnesses["h1"] and "mass 1" in rep.witnesses["h1"]
    assert not rep.h3
    assert "null member 0" in rep.witnesses["h3"]
    assert not rep.continuity_p and not rep.continuity_q
    assert "continuity_p" in rep.witnesses and "continuity_q" in rep.witnesses


def test_nonexistence_problem_shape():
    prob = nonexistence_problem(3)
    assert prob.space.atoms == ("1", "2", "3")
    assert prob.space.has_tail
    null = prob.p_family.family[0]
    alt = prob.q_family.family[0]
    assert null.tail_mass == 1
    assert alt.atom_mass == (F(1, 2), F(1, 4), F(1, 8))
    assert alt.tail_mass == F(1, 8)
    with pytest.raises(ValueError, match="at least 1"):
        nonexistence_problem(0)
    # A bool is not the size 1, and a float is refused before range sees it.
    for bad in (True, 2.0):
        with pytest.raises(TypeError, match="truncation size must be an int"):
            nonexistence_problem(bad)


def test_sweep_closed_form():
    rows = truncation_sweep(nonexistence_problem, range(1, 5))
    assert rows == [(1, F(3, 4)), (2, F(7, 8)), (3, F(15, 16)), (4, F(31, 32))]
    quarter = truncation_sweep(
        lambda n: nonexistence_problem(n, F(1, 4)), [1, 2, 3]
    )
    assert quarter == [(1, F(5, 8)), (2, F(13, 16)), (3, F(29, 32))]
    values = [v for _, v in rows]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 1 for v in values)
    with pytest.raises(ValueError, match="positive"):
        truncation_sweep(nonexistence_problem, [0])
    # A size that is not an int is refused, not truncated to one.
    for bad in (2.7, True, "3"):
        with pytest.raises(TypeError, match="sizes must be ints"):
            truncation_sweep(nonexistence_problem, [bad])


def test_sweep_closed_form_through_long_streaks_of_flips(monkeypatch):
    # At n = 1000 and 2000 nearly every simplex step of the epigraph is a
    # flip of a slot at its bound 1: streaks of about n flips.
    solved = []

    def solve_and_keep(prob):
        solved.append((prob, solve_minimax(prob)))
        return solved[-1][1]

    monkeypatch.setattr(hypotheses, "solve_minimax", solve_and_keep)
    rows = truncation_sweep(nonexistence_problem, [1000, 2000])
    assert rows == [(n, 1 - F(1, 2) / 2**n) for n in (1000, 2000)]
    for prob, sol in solved:
        kkt_certificate(prob, sol)


def test_continuity_implies_attainment():
    # Whenever both families are continuous from above, the optimum is a
    # real test: its worst-case power equals the solved value exactly.
    rng = random.Random(1331)
    for _ in range(15):
        n = rng.randint(2, 4)
        space = SampleSpace(tuple(f"a{i}" for i in range(n)), False)

        def member():
            raw = [rng.randint(0, 5) for _ in range(n)]
            if sum(raw) == 0:
                raw[0] = 1
            return Charge(space, tuple(F(v, sum(raw)) for v in raw), F(0))

        prob = TestProblem(
            space,
            fam("null", *(member() for _ in range(rng.randint(1, 2)))),
            fam("alternative", *(member() for _ in range(rng.randint(1, 2)))),
            rng.choice([F(1, 4), F(1, 2), F(3, 4)]),
        )
        rep = hypothesis_report(prob)
        assert rep.continuity_p and rep.continuity_q
        sol = solve_minimax(prob)
        worst = min(expectation(q, sol.x_alpha) for q in prob.q_family.family)
        assert worst == sol.gamma_alpha


def test_full_nonexistence_instance_fails_h3():
    prob = nonexistence_problem(5)
    rep = hypothesis_report(prob)
    assert not rep.h3
    # The truncation parks the geometric residual on the tail marker, so
    # both sides keep mass along the canonical sequence and h1 fails too.
    assert not rep.h1
    assert "mass 1/32" in rep.witnesses["h1"]
    sol = solve_minimax(prob)
    assert sol.gamma_alpha == F(63, 64)
    assert sol.case is Case.LEVEL_ATTAINED
