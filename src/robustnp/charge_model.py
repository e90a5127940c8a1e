"""Finite sample spaces, charges, and sublinear expectations.

The model is deliberately small: a sample space is an ordered tuple of
explicit atoms plus an optional distinguished *tail* atom. The tail stands
in for the unmodeled remainder of a countable space. Mass placed on it acts
like a purely finitely additive component: it contributes nothing to the
expectation of an indicator supported on finitely many explicit atoms, and
contributes in full to any test that is 1 on the tail (cofinite events).
So a charge's Yosida-Hewitt decomposition is read off its slots:
:meth:`Charge.atom_part` is the countably additive part and ``tail_mass``
the mass of the purely finitely additive part.

Every mass and value is a `fractions.Fraction`, and every charge and test
also has ``scaled``, its slots as integers over their least common
denominator, which the LPs, the certificate and the threshold report read.
A charge, a spec's members included, is checked on those integers; a
mixture, and a test read off an LP, is built from them. There is no
rounding anywhere in this package, so equality means exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

from .simplex import ONE, ZERO, _frac as frac, _scale

TAIL_LABEL = "tail"

RationalLike = Union[int, str, Fraction]


def _from_scaled(cls, space: "SampleSpace", ints: list[int], den: int):
    """The ``cls`` with slots ``ints / den`` (den > 0) and ``scaled`` preset.

    One gcd brings the integers to their least common denominator, so
    ``scaled`` is what the slots would give. Only the slot count is checked
    here, the range by the caller; ``__post_init__`` does not run.
    """
    if len(ints) != space.n_slots:
        raise ValueError(f"expected {space.n_slots} slots, got {len(ints)}")
    if (g := math.gcd(den, *ints)) > 1:
        ints, den = [a // g for a in ints], den // g
    slots = [ZERO if not a else ONE if a == den else Fraction(a, den) for a in ints]
    tail = slots.pop() if space.has_tail else ZERO
    obj = object.__new__(cls)
    # The fields in order: the space, the atoms' slots, the tail's.
    for name, v in zip(cls.__dataclass_fields__, (space, tuple(slots), tail)):
        object.__setattr__(obj, name, v)
    object.__setattr__(obj, "scaled", (ints, den))
    return obj


def _digits(n: int) -> int:
    """Decimal digits of an int n >= 1, found without ``str``."""
    k = int(math.log10(n))  # floor(log10 n), give or take the float's rounding
    return k + 1 + (n >= 10 ** (k + 1)) - (n < 10**k)


def _show(v: Fraction) -> str:
    """``str(v)`` for an error message, which must not fail on its number."""
    try:
        return str(v)
    except ValueError:  # str refuses ints past sys.get_int_max_str_digits()
        n, d = v.as_integer_ratio()
        return f"a fraction too long to print ({_digits(abs(n))} digits over {_digits(d)})"


@dataclass(frozen=True)
class SampleSpace:
    """Ordered explicit atoms, optionally followed by a tail atom.

    ``atoms`` are labels for the explicitly modeled points. When ``has_tail``
    is true there is one extra value slot after the explicit atoms; the label
    ``"tail"`` is reserved for it and may not appear among ``atoms``.
    """

    atoms: tuple[str, ...]
    has_tail: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("a sample space needs at least one explicit atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError(f"duplicate atom labels in {self.atoms!r}")
        if TAIL_LABEL in self.atoms:
            raise ValueError(
                f"the label {TAIL_LABEL!r} is reserved for the tail atom"
            )

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_slots(self) -> int:
        """Number of value slots: explicit atoms plus the tail if present."""
        return len(self.atoms) + (1 if self.has_tail else 0)


@dataclass(frozen=True)
class Charge:
    """A nonnegative finitely additive set function on the sample space.

    ``atom_mass[i]`` is the mass on ``space.atoms[i]``; ``tail_mass`` is the
    purely finitely additive part sitting past every explicit atom. A charge
    is countably additive exactly when ``tail_mass == 0``. Every constructor
    sets ``scaled``, :meth:`slot_masses` over their lcm: ``(integers, lcm)``.
    """

    space: SampleSpace
    atom_mass: tuple[Fraction, ...]
    tail_mass: Fraction = ZERO

    def __post_init__(self) -> None:
        masses = tuple([frac(m) for m in self.atom_mass])
        object.__setattr__(self, "atom_mass", masses)
        object.__setattr__(self, "tail_mass", frac(self.tail_mass))
        if len(masses) != self.space.n_atoms:
            raise ValueError(
                f"expected {self.space.n_atoms} atom masses, got {len(masses)}"
            )
        # The checks read the slots as integers over one lcm, kept as ``scaled``.
        ints, den = _scale([*masses, self.tail_mass])
        if min(ints) < 0:
            raise ValueError("charges are nonnegative")
        if ints[-1] and not self.space.has_tail:
            raise ValueError("tail mass on a space without a tail atom")
        object.__setattr__(self, "scaled", (ints[: self.space.n_slots], den))

    @classmethod
    def from_mapping(
        cls,
        space: SampleSpace,
        masses: Mapping[str, RationalLike],
        tail: RationalLike = 0,
    ) -> "Charge":
        """Build a charge from ``{label: mass}``; omitted atoms get mass 0."""
        unknown = set(masses) - set(space.atoms)
        if unknown:
            raise ValueError(f"unknown atom labels: {sorted(unknown)}")
        return cls(space, tuple(masses.get(a, 0) for a in space.atoms), tail)

    @cached_property
    def total(self) -> Fraction:
        """The total mass, summed once in integers over a common denominator."""
        masses, den = self.scaled
        return Fraction(sum(masses), den)

    @property
    def is_probability(self) -> bool:
        return sum(self.scaled[0]) == self.scaled[1]

    @property
    def is_countably_additive(self) -> bool:
        return self.tail_mass == ZERO

    def slot_masses(self) -> list[Fraction]:
        """Masses in slot order: the explicit atoms, then the tail if present."""
        v = list(self.atom_mass)
        if self.space.has_tail:
            v.append(self.tail_mass)
        return v

    @classmethod
    def _from_scaled(cls, space: SampleSpace, ints: list[int], den: int) -> "Charge":
        """The charge with slot masses ``ints / den`` (den > 0), checked on the integers."""
        if min(ints) < 0:
            raise ValueError("charges are nonnegative")
        return _from_scaled(cls, space, ints, den)

    def atom_part(self) -> "Charge":
        """The same charge with its tail mass dropped (not renormalized)."""
        return Charge(self.space, self.atom_mass, ZERO)


@dataclass(frozen=True)
class TestFunction:
    """A randomized test: a [0, 1]-valued function on the sample space."""

    space: SampleSpace
    atom_value: tuple[Fraction, ...]
    tail_value: Fraction = ZERO

    def __post_init__(self) -> None:
        values = tuple([frac(v) for v in self.atom_value])
        object.__setattr__(self, "atom_value", values)
        object.__setattr__(self, "tail_value", frac(self.tail_value))
        if len(values) != self.space.n_atoms:
            raise ValueError(
                f"expected {self.space.n_atoms} atom values, got {len(values)}"
            )
        # v lies in [0, 1] iff 0 <= numerator <= denominator.
        if any(v.numerator < 0 or v.numerator > v.denominator for v in values):
            raise ValueError("test values must lie in [0, 1]")
        tail = self.tail_value
        if not self.space.has_tail and tail.numerator:
            raise ValueError("tail value on a space without a tail atom")
        if tail.numerator < 0 or tail.numerator > tail.denominator:
            raise ValueError("test values must lie in [0, 1]")

    @cached_property
    def scaled(self) -> tuple[list[int], int]:
        """:meth:`slot_values` as ``(integers, their denominator)``: one entry per slot."""
        return _scale(self.slot_values())

    @classmethod
    def _from_scaled(cls, space: SampleSpace, ints: list[int], den: int) -> "TestFunction":
        """The test with slot values ``ints / den`` (den > 0), checked on the integers."""
        if min(ints) < 0 or max(ints) > den:
            raise ValueError("test values must lie in [0, 1]")
        return _from_scaled(cls, space, ints, den)

    @classmethod
    def from_slots(cls, space: SampleSpace, values: Sequence[Fraction]) -> "TestFunction":
        """Inverse of :meth:`slot_values`."""
        if space.has_tail:
            return cls(space, tuple(values[:-1]), values[-1])
        return cls(space, tuple(values), ZERO)

    def slot_values(self) -> list[Fraction]:
        """Values in slot order: the explicit atoms, then the tail if present."""
        v = list(self.atom_value)
        if self.space.has_tail:
            v.append(self.tail_value)
        return v


@dataclass(frozen=True)
class SublinearExpectation:
    """An upper expectation taken over a finite family of probability charges.

    ``role`` records which side of the testing problem the family plays:
    ``"null"`` for the hypothesis being controlled at level alpha and
    ``"alternative"`` for the side whose worst case is being maximized.
    """

    family: tuple[Charge, ...]
    role: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", tuple(self.family))
        if not self.family:
            raise ValueError("a sublinear expectation needs at least one charge")
        if self.role not in ("null", "alternative"):
            raise ValueError(f"role must be 'null' or 'alternative', got {self.role!r}")
        space = self.family[0].space
        for i, c in enumerate(self.family):
            if c.space != space:
                raise ValueError("all family members must share one sample space")
            if not c.is_probability:
                raise ValueError(
                    f"family member {i} is not a probability charge (total {_show(c.total)})"
                )

    @property
    def space(self) -> SampleSpace:
        return self.family[0].space

    def __len__(self) -> int:
        return len(self.family)


def expectation(charge: Charge, x: TestFunction) -> Fraction:
    """Integral of ``x`` against ``charge``, tail slot included."""
    if charge.space != x.space:
        raise ValueError("charge and test live on different sample spaces")
    (masses, dm), (values, dv) = charge.scaled, x.scaled
    return Fraction(sum([m * v for m, v in zip(masses, values) if m]), dm * dv)


def upper_expectation(e: SublinearExpectation, x: TestFunction) -> Fraction:
    return max(expectation(c, x) for c in e.family)


def lower_expectation(e: SublinearExpectation, x: TestFunction) -> Fraction:
    return min(expectation(c, x) for c in e.family)


def mix(charges: Sequence[Charge], weights: Sequence[RationalLike]) -> Charge:
    """The charge sum_i w_i c_i, for nonnegative weights w_i on one space.

    The weights need not sum to 1; weights that do (the duals the solver
    passes) give a convex combination.
    """
    if len(charges) != len(weights):
        raise ValueError("need one weight per charge")
    if not charges:
        raise ValueError("cannot mix an empty family")
    ws = [frac(w) for w in weights]
    if any(w.numerator < 0 for w in ws):
        raise ValueError("mixture weights are nonnegative")
    space = charges[0].space
    for c in charges:
        if c.space != space:
            raise ValueError("all charges must share one sample space")
    return Charge._from_scaled(space, *_mixed(charges, *_scale(ws)))


def _mixed(charges: Sequence[Charge], weights: list[int], den: int) -> tuple[list[int], int]:
    """The slots of sum_i (weights[i] / den) c_i, as ``scaled`` lays them out: ints over one den."""
    lcm = math.lcm(*[c.scaled[1] for c in charges])
    acc = [0] * charges[0].space.n_slots
    for a, c in zip(weights, charges):
        if a:
            masses, d = c.scaled
            f = a * (lcm // d)
            acc = [s + f * m if m else s for s, m in zip(acc, masses)]
    return acc, lcm * den
