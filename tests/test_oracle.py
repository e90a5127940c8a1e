"""Brute-force reference solvers: frozen values, invariances, bounds."""

import random
from fractions import Fraction

import pytest
from _oracle import beta_oracle, np_oracle

from robustnp import (
    Charge,
    SampleSpace,
    SublinearExpectation,
    TestProblem,
    compute_beta,
    expectation,
    vertex_enumerate,
)

F = Fraction


def make_problem(atoms, p_masses, q_masses, alpha, has_tail=False):
    space = SampleSpace(tuple(atoms), has_tail)
    p = tuple(Charge.from_mapping(space, m, t) for m, t in p_masses)
    q = tuple(Charge.from_mapping(space, m, t) for m, t in q_masses)
    return TestProblem(
        space,
        SublinearExpectation(p, "null"),
        SublinearExpectation(q, "alternative"),
        alpha,
    )


def three_atom():
    return make_problem(
        ["w1", "w2", "w3"],
        [({"w1": F(1, 4), "w2": F(1, 4), "w3": F(1, 2)}, 0)],
        [({"w1": F(1, 2), "w2": F(1, 2)}, 0), ({"w1": F(1)}, 0)],
        F(1, 2),
    )


def test_three_atom_value_and_vertex():
    res = vertex_enumerate(three_atom())
    assert res.value == 1
    assert (F(1), F(1), F(0)) in {t.atom_value for t in res.argmax_tests}
    for t in res.argmax_tests:
        assert min(expectation(q, t) for q in three_atom().q_family.family) == res.value


def test_identical_singleton_families():
    prob = make_problem(
        ["a", "b"],
        [({"a": F(1, 2), "b": F(1, 2)}, 0)],
        [({"a": F(1, 2), "b": F(1, 2)}, 0)],
        F(1, 4),
    )
    assert vertex_enumerate(prob).value == F(1, 4)


def test_permutation_invariance():
    rng = random.Random(4417)
    for _ in range(10):
        n = rng.randint(2, 4)
        atoms = [f"a{i}" for i in range(n)]

        def rand_charge(order):
            raw = [rng.randint(0, 5) for _ in range(n)]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            return {order[i]: F(raw[i], total) for i in range(n)}

        p_raw = [rng.randint(0, 5) for _ in range(n)]
        q_raw = [rng.randint(0, 5) for _ in range(n)]
        if sum(p_raw) == 0:
            p_raw[0] = 1
        if sum(q_raw) == 0:
            q_raw[-1] = 1
        alpha = rng.choice([F(1, 4), F(1, 2), F(3, 4)])

        def build(order):
            pm = {order[i]: F(p_raw[i], sum(p_raw)) for i in range(n)}
            qm = {order[i]: F(q_raw[i], sum(q_raw)) for i in range(n)}
            return make_problem(order, [(pm, 0)], [(qm, 0)], alpha)

        shuffled = atoms[:]
        rng.shuffle(shuffled)
        assert vertex_enumerate(build(atoms)).value == vertex_enumerate(build(shuffled)).value


def test_duplicate_member_invariance():
    prob = three_atom()
    doubled = TestProblem(
        prob.space,
        prob.p_family,
        SublinearExpectation(
            prob.q_family.family + (prob.q_family.family[0],), "alternative"
        ),
        prob.alpha,
    )
    assert vertex_enumerate(prob).value == vertex_enumerate(doubled).value


def test_vars_bound_enforced():
    atoms = [f"a{i}" for i in range(7)]
    uniform = {a: F(1, 7) for a in atoms}
    prob = make_problem(atoms, [(uniform, 0)], [(uniform, 0)], F(1, 2))
    with pytest.raises(ValueError, match="raise max_vars"):
        vertex_enumerate(prob)
    assert vertex_enumerate(prob, max_vars=7).value == F(1, 2)


def test_family_bound_enforced():
    space = SampleSpace(("a", "b"), False)
    diracs = tuple(
        Charge.from_mapping(space, {lbl: F(1)}) for lbl in ("a", "b", "a", "b", "a")
    )
    prob = TestProblem(
        space,
        SublinearExpectation((Charge.from_mapping(space, {"a": F(1, 2), "b": F(1, 2)}),), "null"),
        SublinearExpectation(diracs, "alternative"),
        F(1, 2),
    )
    with pytest.raises(ValueError, match="family"):
        vertex_enumerate(prob)
    assert vertex_enumerate(prob, max_family=5).value == F(1, 2)
    # Every oracle bound is checked one way: a bound below 1 is refused.
    for key, bound in (("max_vars", 0), ("max_family", 0), ("max_family", -2)):
        with pytest.raises(ValueError, match=f"^size bound must be positive, got {bound}$"):
            vertex_enumerate(prob, **{key: bound})


# ---------------------------------------------------------------------------
# np_oracle


def test_np_oracle_disjoint_diracs():
    space = SampleSpace(("0", "1"), False)
    p = Charge.from_mapping(space, {"0": F(1)})
    q = Charge.from_mapping(space, {"1": F(1)})
    assert np_oracle(p, q, F(1, 3)).value == 1


def test_np_oracle_identical():
    space = SampleSpace(("a", "b"), False)
    c = Charge.from_mapping(space, {"a": F(1, 2), "b": F(1, 2)})
    assert np_oracle(c, c, F(1, 4)).value == F(1, 4)


def test_np_oracle_four_atom():
    space = SampleSpace(("a1", "a2", "a3", "a4"), False)
    p = Charge.from_mapping(space, {a: F(1, 4) for a in space.atoms})
    q = Charge.from_mapping(
        space, {"a1": F(2, 5), "a2": F(3, 10), "a3": F(1, 5), "a4": F(1, 10)}
    )
    res = np_oracle(p, q, F(1, 4))
    assert res.value == F(2, 5)


def test_np_oracle_bound_names_its_own_keyword():
    # The size bound's message advises raising max_vars; np_oracle takes it.
    space = SampleSpace(tuple(f"a{i}" for i in range(7)), False)
    p = Charge.from_mapping(space, {a: F(1, 7) for a in space.atoms})
    q = Charge.from_mapping(space, {"a0": F(1, 2), "a1": F(1, 2)})
    with pytest.raises(ValueError, match="raise max_vars"):
        np_oracle(p, q, F(1, 7))
    assert np_oracle(p, q, F(1, 7), max_vars=7).value == F(1, 2)


# ---------------------------------------------------------------------------
# beta_oracle


def _family(space, *mappings):
    return SublinearExpectation(
        tuple(Charge.from_mapping(space, m) for m in mappings), "null"
    )


def test_beta_oracle_full_support_is_zero():
    space = SampleSpace(("a", "b"), False)
    fam = _family(space, {"a": F(1, 2), "b": F(1, 2)})
    q = Charge.from_mapping(space, {"a": F(1, 3), "b": F(2, 3)})
    assert beta_oracle(fam, q) == 0


def test_beta_oracle_dirac_example():
    space = SampleSpace(("0", "1"), False)
    fam = _family(space, {"0": F(1)})
    q = Charge.from_mapping(space, {"1": F(1)})
    assert beta_oracle(fam, q) == 1


def test_beta_oracle_matches_compute_beta():
    rng = random.Random(90210)
    for _ in range(25):
        n = rng.randint(2, 4)
        has_tail = rng.random() < 0.4
        space = SampleSpace(tuple(f"a{i}" for i in range(n)), has_tail)

        def rand_member():
            slots = n + (1 if has_tail else 0)
            raw = [rng.randint(0, 4) for _ in range(slots)]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            tail = F(raw[-1], total) if has_tail else F(0)
            masses = raw[:n] if has_tail else raw
            return Charge(space, tuple(F(v, total) for v in masses), tail)

        fam = SublinearExpectation(
            tuple(rand_member() for _ in range(rng.randint(1, 3))), "null"
        )
        q_raw = [rng.randint(0, 4) for _ in range(n)]
        if sum(q_raw) == 0:
            q_raw[0] = 1
        q = Charge(space, tuple(F(v, sum(q_raw)) for v in q_raw), F(0))
        assert beta_oracle(fam, q) == compute_beta(fam, q)
        if has_tail:
            # compute_beta reads only the atom part of a charge with tail mass.
            with_tail = Charge(space, q.atom_mass, F(1, 3))
            assert compute_beta(fam, with_tail) == beta_oracle(fam, q)


def test_beta_oracle_bound():
    space = SampleSpace(tuple(f"a{i}" for i in range(13)), False)
    fam = _family(space, {"a0": F(1)})
    q = Charge.from_mapping(space, {"a0": F(1)})
    with pytest.raises(ValueError, match="max_atoms"):
        beta_oracle(fam, q)
    assert beta_oracle(fam, q, max_atoms=13) == 0
