"""Classical randomized likelihood-ratio test on finite spaces."""

import random
from fractions import Fraction

import pytest
from _oracle import np_oracle

from robustnp import (
    Charge,
    SampleSpace,
    expectation,
    np_test,
)

F = Fraction


def charge_on(space, mapping, tail=0):
    return Charge.from_mapping(space, {k: F(v) for k, v in mapping.items()}, F(tail))


def assert_threshold_consistent(p, q, res):
    """The defining structure: 1 above kappa, b on the boundary class, 0 below."""
    for pm, qm, xv in zip(p.atom_mass, q.atom_mass, res.test.atom_value):
        if pm == qm == 0:
            continue
        if qm > res.kappa * pm:
            assert xv == 1
        elif qm < res.kappa * pm:
            assert xv == 0
        else:
            assert xv == res.b


def test_identical_charges_give_constant_alpha():
    space = SampleSpace(("a", "b"), False)
    c = charge_on(space, {"a": F(1, 2), "b": F(1, 2)})
    res = np_test(c, c, F(1, 3))
    assert res.power == F(1, 3)
    assert res.attained_level == F(1, 3)
    assert res.test.atom_value == (F(1, 3), F(1, 3))
    assert res.b == F(1, 3)
    assert not res.level_slack
    assert_threshold_consistent(c, c, res)


def test_disjoint_diracs_slack():
    space = SampleSpace(("0", "1"), False)
    p = charge_on(space, {"0": 1})
    q = charge_on(space, {"1": 1})
    for alpha in (F(1, 10), F(1, 3), F(9, 10)):
        res = np_test(p, q, alpha)
        assert res.test.atom_value == (F(0), F(1))
        assert res.power == 1
        assert res.attained_level == 0
        assert res.level_slack
        assert res.kappa == 0
        assert res.b == 0
        assert_threshold_consistent(p, q, res)


def test_four_atom_example():
    space = SampleSpace(("a1", "a2", "a3", "a4"), False)
    p = charge_on(space, {a: F(1, 4) for a in space.atoms})
    q = charge_on(space, {"a1": F(2, 5), "a2": F(3, 10), "a3": F(1, 5), "a4": F(1, 10)})
    res = np_test(p, q, F(1, 4))
    assert res.test.atom_value == (F(1), F(0), F(0), F(0))
    assert res.power == F(2, 5)
    assert res.attained_level == F(1, 4)
    assert_threshold_consistent(p, q, res)


def test_a_class_that_spends_the_budget_exactly_is_accepted_whole():
    # The top class (ratio 3/2) has null mass 1/2, the whole budget: it is
    # accepted whole, so the cut is the next class's ratio 1/2 with b = 0,
    # not 3/2 with b = 1, though both describe the same test.
    space = SampleSpace(("a", "b"), False)
    p = charge_on(space, {"a": F(1, 2), "b": F(1, 2)})
    q = charge_on(space, {"a": F(3, 4), "b": F(1, 4)})
    res = np_test(p, q, F(1, 2))
    assert (res.kappa, res.b, res.test.atom_value) == (F(1, 2), 0, (1, 0))
    assert (res.attained_level, res.power, res.level_slack) == (F(1, 2), F(3, 4), False)
    assert_threshold_consistent(p, q, res)


def test_partial_class_randomizes():
    space = SampleSpace(("a", "b", "c"), False)
    p = charge_on(space, {"a": 1})
    q = charge_on(space, {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)})
    res = np_test(p, q, F(1, 2))
    # b and c cost nothing; a is the boundary class at half weight.
    assert res.test.atom_value == (F(1, 2), F(1), F(1))
    assert res.b == F(1, 2)
    assert res.power == F(2, 3) + F(1, 6)
    assert res.attained_level == F(1, 2)
    assert not res.level_slack


def test_run_out_keeps_slack():
    space = SampleSpace(("a", "b", "c"), False)
    p = charge_on(space, {"a": F(1, 2), "b": F(1, 2)})
    q = charge_on(space, {"b": F(1, 2), "c": F(1, 2)})
    res = np_test(p, q, F(3, 4))
    assert res.test.atom_value == (F(0), F(1), F(1))
    assert res.power == 1
    assert res.attained_level == F(1, 2)
    assert res.level_slack
    assert res.kappa == 0
    assert res.b == 0


def test_null_atoms_get_zero_on_the_boundary():
    # Atom c has p = q = 0, so q_c = kappa * p_c holds there too, but only
    # the ratio class q/p = kappa is randomized with b; c gets 0.
    space = SampleSpace(("a", "b", "c"), False)
    p = charge_on(space, {"a": F(1, 2), "b": F(1, 2)})
    q = charge_on(space, {"a": F(1, 4), "b": F(3, 4)})
    res = np_test(p, q, F(1, 4))
    assert res.kappa == F(3, 2)
    assert res.b == F(1, 2)
    assert res.test.atom_value == (F(0), F(1, 2), F(0))
    assert res.attained_level == F(1, 4)
    assert not res.level_slack
    assert_threshold_consistent(p, q, res)


def test_validation():
    space = SampleSpace(("a", "b"), False)
    c = charge_on(space, {"a": F(1, 2), "b": F(1, 2)})
    with pytest.raises(ValueError, match="alpha"):
        np_test(c, c, F(0))
    with pytest.raises(ValueError, match="alpha"):
        np_test(c, c, F(1))
    other = Charge.from_mapping(SampleSpace(("x",), False), {"x": F(1)})
    with pytest.raises(ValueError, match="sample space"):
        np_test(c, other, F(1, 2))
    tailed = SampleSpace(("a",), True)
    wt = Charge.from_mapping(tailed, {"a": F(1, 2)}, F(1, 2))
    wt2 = Charge.from_mapping(tailed, {"a": F(1)})
    with pytest.raises(ValueError, match="tail"):
        np_test(wt, wt2, F(1, 2))
    half = Charge.from_mapping(space, {"a": F(1, 2)})
    with pytest.raises(ValueError, match="probability"):
        np_test(half, c, F(1, 2))


def _random_pair(rng, n):
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), False)

    def member(allow_gaps):
        raw = [rng.randint(0 if allow_gaps else 1, 6) for _ in range(n)]
        if sum(raw) == 0:
            raw[rng.randrange(n)] = 1
        total = sum(raw)
        return Charge(space, tuple(F(v, total) for v in raw), F(0))

    return member(True), member(True)


def test_matches_oracle_on_random_instances():
    rng = random.Random(60601)
    for trial in range(80):
        n = rng.randint(2, 5)
        p, q = _random_pair(rng, n)
        alpha = rng.choice([F(1, 8), F(1, 4), F(1, 2), F(3, 4)])
        res = np_test(p, q, alpha)
        assert res.power == np_oracle(p, q, alpha).value
        assert res.attained_level <= alpha
        assert res.level_slack == (res.attained_level < alpha)
        assert_threshold_consistent(p, q, res)


def test_single_randomized_class():
    # The returned test uses at most one value besides 0 and 1, and that
    # value sits on exactly one ratio class.
    rng = random.Random(3111)
    for _ in range(40):
        n = rng.randint(2, 5)
        p, q = _random_pair(rng, n)
        alpha = rng.choice([F(1, 3), F(2, 5), F(1, 2)])
        res = np_test(p, q, alpha)
        interior = {
            qm / pm if pm != 0 else None
            for pm, qm, xv in zip(p.atom_mass, q.atom_mass, res.test.atom_value)
            if (pm, qm) != (0, 0) and xv not in (F(0), F(1))
        }
        assert len(interior) <= 1


def test_full_support_alternative_pins_level():
    rng = random.Random(505)
    for _ in range(40):
        n = rng.randint(2, 5)
        space = SampleSpace(tuple(f"a{i}" for i in range(n)), False)
        q_raw = [rng.randint(1, 6) for _ in range(n)]
        p_raw = [rng.randint(0, 6) for _ in range(n)]
        if sum(p_raw) == 0:
            p_raw[0] = 1
        p = Charge(space, tuple(F(v, sum(p_raw)) for v in p_raw), F(0))
        q = Charge(space, tuple(F(v, sum(q_raw)) for v in q_raw), F(0))
        alpha = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
        res = np_test(p, q, alpha)
        assert res.attained_level == alpha
        assert not res.level_slack


def test_power_monotone_and_concave_in_alpha():
    rng = random.Random(777)
    for _ in range(15):
        n = rng.randint(2, 5)
        p, q = _random_pair(rng, n)
        grid = [F(k, 10) for k in range(1, 10)]
        powers = [np_test(p, q, a).power for a in grid]
        diffs = [b - a for a, b in zip(powers, powers[1:])]
        assert all(d >= 0 for d in diffs)
        assert all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))
