"""Charges, test functions, expectations and the decomposition."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from test_minimax import _degenerate_problem

import robustnp
from robustnp import (
    Charge,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    expectation,
    frac,
    lower_expectation,
    mix,
    solve_lp,
    solve_minimax,
    upper_expectation,
)
from robustnp.cli import load_problem
from robustnp.charge_model import _scale

F = Fraction


def space_of(n, has_tail=False):
    return SampleSpace(tuple(f"a{i}" for i in range(n)), has_tail)


def charge(space, *masses, tail=0):
    return Charge(space, tuple(F(m) for m in masses), F(tail))


def is_pure(c):
    """True when the charge has no countably additive component at all."""
    if c.total == 0:
        raise ValueError("the zero charge is neither pure nor countably additive")
    return all(m == 0 for m in c.atom_mass)


def tf(space, *values, tail=0):
    return TestFunction(space, tuple(F(v) for v in values), F(tail))


THREE = SampleSpace(("w1", "w2", "w3"), False)
P3 = charge(THREE, F(1, 4), F(1, 4), F(1, 2))
Q1 = charge(THREE, F(1, 2), F(1, 2), 0)
Q2 = charge(THREE, 1, 0, 0)


# ---------------------------------------------------------------------------
# construction and validation


def test_frac_accepts_strings_ints_fractions():
    assert frac("3/7") == F(3, 7)
    assert frac(2) == F(2)
    assert frac(F(1, 3)) == F(1, 3)


def test_frac_refuses_floats_and_bools():
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        frac(True)


def test_frac_refuses_exponent_notation():
    # Fraction("1e-999999999") would build a billion-digit denominator;
    # the refusal comes first, in frac and in solve_lp's b_ub alike. c and
    # a_ub take ints only, so there any string is refused by its type.
    for literal in ("1e-3", "2E5", "1.e+2", "1e-999999999"):
        with pytest.raises(ValueError, match=re.escape(f"exponent notation in '{literal}'")):
            frac(literal)
    # Other malformed strings keep Fraction's own error.
    for literal in ("three", "none", "1/3e"):
        with pytest.raises(ValueError, match="Invalid literal"):
            frac(literal)
    with pytest.raises(TypeError, match="^c takes ints, not str$"):
        solve_lp(["1e-3"], [[1]], [1])
    with pytest.raises(TypeError, match="^a_ub takes ints, not str$"):
        solve_lp([1], [["1e-3"]], [1])
    with pytest.raises(ValueError, match="exponent notation in '1e0'"):
        solve_lp([1], [[1]], ["1e0"], upper=[1])


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        SampleSpace(("a", "a"), False)
    with pytest.raises(ValueError):
        SampleSpace((), False)


def test_tail_label_reserved():
    with pytest.raises(ValueError):
        SampleSpace(("a", "tail"), True)


def test_charge_validation():
    s = space_of(2)
    with pytest.raises(ValueError):
        charge(s, F(-1, 2), F(3, 2))
    with pytest.raises(ValueError):
        charge(s, F(1, 2), F(1, 4), tail=F(1, 4))
    with pytest.raises(ValueError):
        Charge.from_mapping(s, {"nope": F(1)})


def test_test_function_range_checked():
    s = space_of(2)
    with pytest.raises(ValueError):
        tf(s, F(3, 2), 0)
    with pytest.raises(ValueError):
        tf(s, F(-1, 10), 0)
    # In range, but s has no tail slot to hold it.
    with pytest.raises(ValueError, match="^tail value on a space without a tail atom$"):
        tf(s, 0, 0, tail=F(1, 2))


def test_family_requires_probabilities_and_common_space():
    s = space_of(2)
    half = charge(s, F(1, 2), 0)
    with pytest.raises(ValueError):
        SublinearExpectation((half,), "null")
    other = charge(space_of(3), F(1, 3), F(1, 3), F(1, 3))
    with pytest.raises(ValueError):
        SublinearExpectation((charge(s, F(1, 2), F(1, 2)), other), "null")
    with pytest.raises(ValueError):
        SublinearExpectation((charge(s, F(1, 2), F(1, 2)),), "prosecution")
    with pytest.raises(ValueError, match="^a sublinear expectation needs at least one charge$"):
        SublinearExpectation((), "null")


def test_family_check_names_a_sum_too_long_to_print():
    # Each mass prints, but their sum's denominator has 5001 digits, past
    # the int-to-str limit: the message counts digits and names the member.
    s = space_of(2)
    n = 10**2500
    long_sum = charge(s, F(1, n + 1), F(1, n + 3))
    with pytest.raises(ValueError) as refused:
        SublinearExpectation((charge(s, 1, 0), long_sum), "null")
    assert str(refused.value) == (
        "family member 1 is not a probability charge "
        "(total a fraction too long to print (2501 digits over 5001))"
    )


# ---------------------------------------------------------------------------
# expectations


def test_expectation_two_point():
    s = space_of(2)
    c = charge(s, F(1, 2), F(1, 2))
    assert expectation(c, tf(s, 1, 0)) == F(1, 2)


def test_expectation_pure_tail_ignores_finite_support():
    s = space_of(3, has_tail=True)
    c = charge(s, 0, 0, 0, tail=1)
    assert expectation(c, tf(s, 1, 1, 0)) == 0


def test_expectation_three_atom():
    assert expectation(P3, tf(THREE, 1, 1, 0)) == F(1, 2)


def test_expectation_space_mismatch():
    with pytest.raises(ValueError):
        expectation(P3, tf(space_of(3), 0, 0, 0))


def test_upper_expectation_diracs():
    s = space_of(2)
    fam = SublinearExpectation((charge(s, 1, 0), charge(s, 0, 1)), "null")
    assert upper_expectation(fam, tf(s, 1, 0)) == 1
    assert lower_expectation(fam, tf(s, 1, 0)) == 0


def test_upper_and_lower_three_atom_family():
    fam = SublinearExpectation((Q1, Q2), "alternative")
    x = tf(THREE, 1, 1, 0)
    assert upper_expectation(fam, x) == 1
    assert lower_expectation(fam, x) == 1


# ---------------------------------------------------------------------------
# Yosida-Hewitt decomposition: atom_part() and tail_mass


def tail_part(c):
    return Charge(c.space, (F(0),) * c.space.n_atoms, c.tail_mass)


def test_atom_part_no_tail():
    assert P3.atom_part() == P3
    assert P3.tail_mass == 0
    assert P3.is_countably_additive


def test_atom_part_pure_tail():
    s = space_of(2, has_tail=True)
    c = charge(s, 0, 0, tail=1)
    assert c.atom_part().total == 0
    assert tail_part(c) == c
    assert not c.is_countably_additive
    assert is_pure(c)


def test_atom_part_mixed():
    s = space_of(2, has_tail=True)
    c = charge(s, F(1, 4), F(1, 4), tail=F(1, 2))
    assert c.atom_part() == charge(s, F(1, 4), F(1, 4))
    assert c.tail_mass == F(1, 2)
    assert mix([c.atom_part(), tail_part(c)], [1, 1]) == c
    assert not is_pure(c)


def test_is_pure_atom_charge():
    assert not is_pure(P3)


# ---------------------------------------------------------------------------
# mixtures


def test_mix_identity():
    assert mix([P3], [1]) == P3


def test_mix_two_diracs():
    s = space_of(2)
    m = mix([charge(s, 1, 0), charge(s, 0, 1)], [F(1, 2), F(1, 2)])
    assert m.atom_mass == (F(1, 2), F(1, 2))


def test_mix_three_atom_alternatives():
    m = mix([Q1, Q2], [F(1, 2), F(1, 2)])
    assert m.atom_mass == (F(3, 4), F(1, 4), F(0))


def test_mix_rejects_bad_weights():
    with pytest.raises(ValueError):
        mix([Q1, Q2], [F(3, 2), F(-1, 2)])
    with pytest.raises(ValueError, match="^need one weight per charge$"):
        mix([Q1, Q2], [1])
    with pytest.raises(ValueError, match="^cannot mix an empty family$"):
        mix([], [])
    with pytest.raises(ValueError, match="^all charges must share one sample space$"):
        mix([Q1, charge(space_of(3, has_tail=True), 1, 0, 0)], [F(1, 2), F(1, 2)])


# ---------------------------------------------------------------------------
# property tests

_denoms = st.sampled_from([1, 2, 3, 4, 6, 8])


def _rationals():
    return st.builds(lambda n, d: F(n, d), st.integers(0, 8), _denoms).map(
        lambda f: min(f, F(1))
    )


@st.composite
def _space_charge_tests(draw, n_tests=1):
    n = draw(st.integers(2, 4))
    has_tail = draw(st.booleans())
    space = space_of(n, has_tail)
    slots = n + (1 if has_tail else 0)

    def one_charge():
        raw = [draw(st.integers(0, 6)) for _ in range(slots)]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        masses = [F(r, total) for r in raw]
        tail = masses.pop() if has_tail else F(0)
        return Charge(space, tuple(masses), tail)

    members = tuple(one_charge() for _ in range(draw(st.integers(1, 3))))
    fam = SublinearExpectation(members, "null")
    tests = []
    for _ in range(n_tests):
        vals = [draw(_rationals()) for _ in range(n)]
        tail_v = draw(_rationals()) if has_tail else F(0)
        tests.append(TestFunction(space, tuple(vals), tail_v))
    return fam, tests


@given(_space_charge_tests())
def test_conjugacy(data):
    fam, (x,) = data
    tail = 1 - x.tail_value if fam.space.has_tail else 0
    complement = TestFunction(fam.space, tuple(1 - v for v in x.atom_value), tail)
    assert lower_expectation(fam, x) == 1 - upper_expectation(fam, complement)


@given(_space_charge_tests())
def test_upper_is_member_max(data):
    fam, (x,) = data
    assert upper_expectation(fam, x) == max(expectation(c, x) for c in fam.family)
    assert lower_expectation(fam, x) == min(expectation(c, x) for c in fam.family)
    # The integer sums against Fraction sums, on the members and on a charge
    # whose masses are x's values: mixed denominators, any total, a tail if
    # the space has one.
    for c in (*fam.family, Charge(fam.space, x.atom_value, x.tail_value)):
        assert expectation(c, x) == sum(m * v for m, v in zip(c.slot_masses(), x.slot_values()))
        assert c.total == sum(c.slot_masses())


@given(_space_charge_tests(n_tests=2))
def test_subadditive_on_averages(data):
    fam, (x, y) = data
    avg = TestFunction(
        fam.space,
        tuple((a + b) / 2 for a, b in zip(x.atom_value, y.atom_value)),
        (x.tail_value + y.tail_value) / 2,
    )
    up = upper_expectation(fam, avg)
    assert up <= (upper_expectation(fam, x) + upper_expectation(fam, y)) / 2
    assert up >= (lower_expectation(fam, x) + lower_expectation(fam, y)) / 2


@given(_space_charge_tests(), _rationals())
def test_constants_preserved_and_homogeneous(data, c):
    fam, (x,) = data
    const = TestFunction(fam.space, (c,) * fam.space.n_atoms, c if fam.space.has_tail else 0)
    assert upper_expectation(fam, const) == c
    scaled = TestFunction(
        fam.space,
        tuple(c * v for v in x.atom_value),
        c * x.tail_value,
    )
    assert upper_expectation(fam, scaled) == c * upper_expectation(fam, x)


@given(_space_charge_tests(n_tests=2))
def test_monotone(data):
    fam, (x, y) = data
    lo = TestFunction(
        fam.space,
        tuple(min(a, b) for a, b in zip(x.atom_value, y.atom_value)),
        min(x.tail_value, y.tail_value),
    )
    assert upper_expectation(fam, lo) <= upper_expectation(fam, x)


@given(_space_charge_tests())
def test_atom_part_and_tail_mass_round_trip(data):
    fam, _ = data
    for c in fam.family:
        # The identity solve_minimax uses for lam.
        assert 1 - c.tail_mass == c.atom_part().total
        assert c.atom_part().is_countably_additive
        assert mix([c.atom_part(), tail_part(c)], [1, 1]) == c


_weights = st.one_of(
    st.just(F(0)), st.builds(F, st.integers(0, 9), st.sampled_from([1, 2, 5, 7, 12]))
)


@given(_space_charge_tests(), st.data())
def test_mix_matches_the_fraction_sum(data, draw):
    # mix sums in integers, as the certificate's slot check does; slot by
    # slot it must equal the Fraction sum. The members get a charge with x's
    # values as masses (mixed denominators, any total) and weights with
    # mixed denominators, zeros included.
    fam, (x,) = data
    members = [*fam.family, Charge(fam.space, x.atom_value, x.tail_value)]
    weights = [draw.draw(_weights) for _ in members]
    slots = [c.slot_masses() for c in members]
    want = [sum((w * m[k] for w, m in zip(weights, slots)), F(0)) for k in range(len(slots[0]))]
    assert mix(members, weights).slot_masses() == want


def _assert_slot_layout(obj):
    """``scaled`` is ``_scale`` of the slot vector: a tail entry only if the space has one."""
    slots = obj.slot_values() if isinstance(obj, TestFunction) else obj.slot_masses()
    assert len(obj.scaled[0]) == obj.space.n_slots
    assert obj.scaled == _scale(slots)


def test_scaled_has_one_entry_per_slot():
    tailed = space_of(2, has_tail=True)
    for obj in (
        P3, Q1, mix([P3, Q2], [F(1, 3), F(2, 3)]), tf(THREE, F(1, 2), 0, 1),
        charge(tailed, F(1, 4), F(1, 4), tail=F(1, 2)), charge(tailed, 0, 1),
        mix([charge(tailed, 0, 0, tail=1), charge(tailed, 1, 0)], [F(1, 2), F(1, 2)]),
        tf(tailed, 1, F(1, 3), tail=F(2, 5)), tf(tailed, 0, 0),
    ):
        _assert_slot_layout(obj)


def test_solving_leaves_every_members_scaled_list_as_it_was():
    # The LPs get the members' cached scaled lists themselves as rows and
    # as the countable program's objective, so solve_lp must leave them be.
    fixtures = sorted((Path(robustnp.__file__).parent / "fixtures").glob("*.json"))
    problems = [load_problem(str(p)) for p in fixtures]
    rng = random.Random(2016)
    problems += [_degenerate_problem(rng) for _ in range(20)]
    for prob in problems:
        members = (*prob.p_family.family, *prob.q_family.family)
        sol = solve_minimax(prob)
        for obj in (*members, sol.x_alpha, sol.q_alpha, sol.q_alpha.atom_part()):
            _assert_slot_layout(obj)


def test_the_integer_constructors_refuse_what_the_public_ones_refuse():
    # mix builds its charge, and the solver its tests, from slot integers
    # over a den with scaled preset; the checks run on those integers.
    s = space_of(2, has_tail=True)
    eps = 10**30
    refused = [
        ("nonnegative", lambda: charge(s, F(-1, 3), F(2, 3), tail=F(2, 3))),
        ("nonnegative", lambda: Charge._from_scaled(s, [-1, 2, 2], 3)),
        ("nonnegative", lambda: Charge._from_scaled(s, [1, 1, -1], 1)),
        (r"\[0, 1\]", lambda: tf(s, F(4, 3), 0)),
        (r"\[0, 1\]", lambda: TestFunction._from_scaled(s, [4, 0, 0], 3)),
        (r"\[0, 1\]", lambda: TestFunction._from_scaled(s, [0, 0, eps + 1], eps)),
        (r"\[0, 1\]", lambda: TestFunction._from_scaled(s, [0, -1, 0], 3)),
        ("expected 2 atom masses", lambda: Charge(s, (F(1),), F(0))),
        ("expected 3 slots", lambda: Charge._from_scaled(s, [1, 2], 3)),
        ("expected 2 atom values", lambda: TestFunction(s, (F(1),) * 3, F(0))),
        ("expected 3 slots", lambda: TestFunction._from_scaled(s, [1, 1, 1, 0], 1)),
    ]
    for match, build in refused:
        with pytest.raises(ValueError, match=match):
            build()
    # The end points are accepted, and the integers come out over their
    # least common denominator, as the public constructors' scaled has them.
    x = TestFunction._from_scaled(s, [0, 6, 6], 6)
    assert x == tf(s, 0, 1, tail=1) and x.scaled == ([0, 1, 1], 1) == tf(s, 0, 1, tail=1).scaled
    c = Charge._from_scaled(s, [0, 4, 2], 12)
    assert c == charge(s, 0, F(1, 3), tail=F(1, 6)) and c.scaled == ([0, 2, 1], 6)
    assert repr(c) == repr(charge(s, 0, F(1, 3), tail=F(1, 6)))


def test_sign_and_range_checks_see_tiny_excesses():
    # The checks read numerators and denominators; a step of 10^-30 past
    # either end of the range must still be caught.
    s = space_of(2, has_tail=True)
    eps = F(1, 10**30)
    with pytest.raises(ValueError, match="nonnegative"):
        charge(s, -eps, 1 + eps)
    with pytest.raises(ValueError, match="nonnegative"):
        charge(s, F(1, 2), F(1, 2) + eps, tail=-eps)
    for bad in (-eps, 1 + eps):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            tf(s, bad, 0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            tf(s, 0, 1, tail=bad)
    with pytest.raises(ValueError, match="nonnegative"):
        mix([Q1, Q2], [1 + eps, -eps])
    # The end points themselves are accepted.
    assert tf(s, 0, 1, tail=1).slot_values() == [0, 1, 1]
    assert charge(s, 0, 1).slot_masses() == [0, 1, 0]
