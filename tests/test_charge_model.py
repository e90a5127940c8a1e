"""Charges, test functions, expectations and the decomposition."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from robustnp import (
    Charge,
    Event,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    expectation,
    frac,
    lower_expectation,
    mix,
    radon_nikodym,
    upper_expectation,
    yosida_hewitt,
)

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


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        SampleSpace(("a", "a"), False)
    with pytest.raises(ValueError):
        SampleSpace((), False)


def test_tail_label_reserved():
    with pytest.raises(ValueError):
        SampleSpace(("a", "tail"), True)


def test_event_validation():
    s = space_of(2, has_tail=False)
    with pytest.raises(ValueError):
        Event(s, frozenset({"zzz"}), False)
    with pytest.raises(ValueError):
        Event(s, frozenset({"a0"}), True)


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


# ---------------------------------------------------------------------------
# expectations


def test_expectation_two_point():
    s = space_of(2)
    c = charge(s, F(1, 2), F(1, 2))
    assert expectation(c, tf(s, 1, 0)) == F(1, 2)


def test_expectation_pure_tail_ignores_finite_support():
    s = space_of(3, has_tail=True)
    c = charge(s, 0, 0, 0, tail=1)
    ind = s.event(["a0", "a1"]).indicator()
    assert ind.tail_value == 0
    assert expectation(c, ind) == 0


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
# Yosida-Hewitt decomposition


def test_decomposition_no_tail():
    d = yosida_hewitt(P3)
    assert d.lam == 1
    assert d.countable == P3
    assert d.pure is None


def test_decomposition_pure_tail():
    s = space_of(2, has_tail=True)
    c = charge(s, 0, 0, tail=1)
    d = yosida_hewitt(c)
    assert d.lam == 0
    assert d.countable is None
    assert d.pure == c
    assert is_pure(c)


def test_decomposition_mixed():
    s = space_of(2, has_tail=True)
    c = charge(s, F(1, 4), F(1, 4), tail=F(1, 2))
    d = yosida_hewitt(c)
    assert d.lam == F(1, 2)
    assert d.countable.atom_mass == (F(1, 2), F(1, 2))
    assert d.countable.tail_mass == 0
    assert d.pure.tail_mass == 1
    assert not is_pure(c)
    assert d.recompose() == c


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
        mix([Q1, Q2], [F(1, 2), F(1, 4)])
    with pytest.raises(ValueError):
        mix([Q1, Q2], [F(3, 2), F(-1, 2)])


# ---------------------------------------------------------------------------
# densities


def test_radon_nikodym_identical():
    s = space_of(2)
    u = charge(s, F(1, 2), F(1, 2))
    d = radon_nikodym(u, u)
    assert d.g == (1, 1)
    assert d.h == (1, 1)
    assert d.base_null == ()


def test_radon_nikodym_three_atom():
    d = radon_nikodym(P3, Q1)
    assert d.base.atom_mass == (F(3, 8), F(3, 8), F(1, 4))
    assert d.g == (F(2, 3), F(2, 3), F(2))
    assert d.h == (F(4, 3), F(4, 3), F(0))


def test_radon_nikodym_disjoint_diracs():
    s = space_of(2)
    d = radon_nikodym(charge(s, 1, 0), charge(s, 0, 1))
    assert d.g == (2, 0)
    assert d.h == (0, 2)


def test_radon_nikodym_requires_countably_additive():
    s = space_of(1, has_tail=True)
    c = charge(s, F(1, 2), tail=F(1, 2))
    with pytest.raises(ValueError):
        radon_nikodym(c, c)


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
    assert lower_expectation(fam, x) == 1 - upper_expectation(fam, x.complement())


@given(_space_charge_tests())
def test_upper_is_member_max(data):
    fam, (x,) = data
    assert upper_expectation(fam, x) == max(expectation(c, x) for c in fam.family)
    assert lower_expectation(fam, x) == min(expectation(c, x) for c in fam.family)


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
    const = TestFunction.constant(fam.space, c)
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
def test_decomposition_round_trip(data):
    fam, _ = data
    for c in fam.family:
        assert yosida_hewitt(c).recompose() == c


@given(_space_charge_tests())
def test_density_identity(data):
    fam, _ = data
    members = [c.atom_part() for c in fam.family if c.tail_mass < 1]
    if len(members) < 2:
        return
    p, q = members[0], members[1]
    if p.total == 0 and q.total == 0:
        return
    d = radon_nikodym(p, q)
    for i in range(fam.space.n_atoms):
        if i in d.base_null:
            assert d.g[i] is None and d.h[i] is None
        else:
            assert d.g[i] + d.h[i] == 2
