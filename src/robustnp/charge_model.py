"""Finite sample spaces, charges, and sublinear expectations.

The model is deliberately small: a sample space is an ordered tuple of
explicit atoms plus an optional distinguished *tail* atom. The tail stands
in for the unmodeled remainder of a countable space. Mass placed on it acts
like a purely finitely additive component: it contributes nothing to the
expectation of an indicator supported on finitely many explicit atoms, and
contributes in full to any test that is 1 on the tail (cofinite events).

Everything is a `fractions.Fraction`. There is no rounding anywhere in this
package, so equality assertions downstream mean exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

TAIL_LABEL = "tail"

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[int, str, Fraction]


def frac(value: RationalLike) -> Fraction:
    """Coerce an int, a ``"num/den"`` string, or a Fraction to a Fraction.

    Floats are refused on purpose: a float that looks like 0.1 is not 1/10,
    and silently accepting it would poison every exact comparison later.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"refusing bool as a rational value: {value!r}")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(
        f"refusing {value!r} ({type(value).__name__}); "
        "pass an int, a Fraction, or a 'num/den' string"
    )


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

    def event(self, members: Iterable[str], contains_tail: bool = False) -> "Event":
        return Event(self, frozenset(members), contains_tail)


@dataclass(frozen=True)
class Event:
    """A subset of the sample space: explicit members plus a tail flag."""

    space: SampleSpace
    members: frozenset[str]
    contains_tail: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        unknown = self.members - set(self.space.atoms)
        if unknown:
            raise ValueError(f"events may only use explicit atoms; unknown: {sorted(unknown)}")
        if self.contains_tail and not self.space.has_tail:
            raise ValueError("this sample space has no tail atom")

    def indicator(self) -> "TestFunction":
        values = tuple(ONE if a in self.members else ZERO for a in self.space.atoms)
        tail = ONE if self.contains_tail else ZERO
        return TestFunction(self.space, values, tail)


@dataclass(frozen=True)
class Charge:
    """A nonnegative finitely additive set function on the sample space.

    ``atom_mass[i]`` is the mass on ``space.atoms[i]``; ``tail_mass`` is the
    purely finitely additive part sitting past every explicit atom. A charge
    is countably additive exactly when ``tail_mass == 0``.
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
        if any(m < 0 for m in masses) or self.tail_mass < 0:
            raise ValueError("charges are nonnegative")
        if self.tail_mass > 0 and not self.space.has_tail:
            raise ValueError("tail mass on a space without a tail atom")

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
        values = tuple(frac(masses.get(a, 0)) for a in space.atoms)
        return cls(space, values, frac(tail))

    @property
    def total(self) -> Fraction:
        return sum(self.atom_mass, self.tail_mass)

    @property
    def is_probability(self) -> bool:
        return self.total == ONE

    @property
    def is_countably_additive(self) -> bool:
        return self.tail_mass == ZERO

    def slot_masses(self) -> list[Fraction]:
        """Masses in slot order: the explicit atoms, then the tail if present."""
        v = list(self.atom_mass)
        if self.space.has_tail:
            v.append(self.tail_mass)
        return v

    def support(self) -> Event:
        """The event carrying all mass: atoms with positive mass, tail if charged."""
        members = frozenset(
            a for a, m in zip(self.space.atoms, self.atom_mass) if m > 0
        )
        return Event(self.space, members, self.tail_mass > 0)

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
        if any(v < 0 or v > 1 for v in values):
            raise ValueError("test values must lie in [0, 1]")
        if not self.space.has_tail and self.tail_value != ZERO:
            raise ValueError("tail value on a space without a tail atom")
        if self.tail_value < 0 or self.tail_value > 1:
            raise ValueError("test values must lie in [0, 1]")

    @classmethod
    def constant(cls, space: SampleSpace, value: RationalLike) -> "TestFunction":
        v = frac(value)
        tail = v if space.has_tail else ZERO
        return cls(space, (v,) * space.n_atoms, tail)

    @classmethod
    def from_mapping(
        cls,
        space: SampleSpace,
        values: Mapping[str, RationalLike],
        tail: RationalLike = 0,
    ) -> "TestFunction":
        unknown = set(values) - set(space.atoms)
        if unknown:
            raise ValueError(f"unknown atom labels: {sorted(unknown)}")
        vals = tuple(frac(values.get(a, 0)) for a in space.atoms)
        return cls(space, vals, frac(tail))

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

    def complement(self) -> "TestFunction":
        values = tuple(ONE - v for v in self.atom_value)
        tail = (ONE - self.tail_value) if self.space.has_tail else ZERO
        return TestFunction(self.space, values, tail)

    def shaved(self, eps: RationalLike) -> "TestFunction":
        """Pointwise ``max(x - eps, 0)``; used to probe behaviour near {x > 0}."""
        e = frac(eps)
        values = tuple(max(v - e, ZERO) for v in self.atom_value)
        tail = max(self.tail_value - e, ZERO) if self.space.has_tail else ZERO
        return TestFunction(self.space, values, tail)


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
        for c in self.family:
            if c.space != space:
                raise ValueError("all family members must share one sample space")
            if not c.is_probability:
                raise ValueError(
                    f"family members must be probability charges (total {c.total})"
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
    acc = charge.tail_mass * x.tail_value
    for m, v in zip(charge.atom_mass, x.atom_value):
        acc += m * v
    return acc


def upper_expectation(e: SublinearExpectation, x: TestFunction) -> Fraction:
    return max(expectation(c, x) for c in e.family)


def lower_expectation(e: SublinearExpectation, x: TestFunction) -> Fraction:
    return min(expectation(c, x) for c in e.family)


@dataclass(frozen=True)
class Decomposition:
    """Split of a charge into countably additive and purely f.a. parts.

    ``lam`` is the weight of the countably additive part relative to the
    charge's total mass. ``countable`` and ``pure`` are normalized to
    probability charges when their part is present, else ``None``.
    """

    lam: Fraction
    countable: "Charge | None"
    pure: "Charge | None"
    total: Fraction

    def recompose(self) -> Charge:
        """Reassemble the original charge from the parts."""
        parts = []
        weights = []
        if self.countable is not None:
            parts.append(self.countable)
            weights.append(self.lam * self.total)
        if self.pure is not None:
            parts.append(self.pure)
            weights.append((ONE - self.lam) * self.total)
        if not parts:
            raise ValueError("cannot recompose a zero charge")
        return mix(parts, weights, normalize=False)


def yosida_hewitt(charge: Charge) -> Decomposition:
    """Split a charge into its countably additive and purely f.a. parts.

    In this model the split is immediate: the explicit atoms carry the
    countably additive part and the tail carries the purely finitely
    additive part. Parts are returned as probability charges; a part of
    mass zero is returned as ``None``.
    """
    total = charge.total
    if total == 0:
        raise ValueError("cannot decompose the zero charge")
    atom_total = total - charge.tail_mass
    lam = atom_total / total
    countable = None
    if atom_total > 0:
        countable = Charge(
            charge.space,
            tuple(m / atom_total for m in charge.atom_mass),
            ZERO,
        )
    pure = None
    if charge.tail_mass > 0:
        pure = Charge(
            charge.space,
            (ZERO,) * charge.space.n_atoms,
            charge.tail_mass / charge.tail_mass,
        )
    return Decomposition(lam, countable, pure, total)


def mix(
    charges: Sequence[Charge],
    weights: Sequence[RationalLike],
    normalize: bool = True,
) -> Charge:
    """Convex (or plain conic, with ``normalize=False``) combination.

    With ``normalize=True`` the weights must be nonnegative and sum to 1
    exactly; ``normalize=False`` drops the sum requirement and is what the
    decomposition and dual-extraction internals use.
    """
    if len(charges) != len(weights):
        raise ValueError("need one weight per charge")
    if not charges:
        raise ValueError("cannot mix an empty family")
    ws = [frac(w) for w in weights]
    if any(w < 0 for w in ws):
        raise ValueError("mixture weights are nonnegative")
    space = charges[0].space
    for c in charges:
        if c.space != space:
            raise ValueError("all charges must share one sample space")
    if normalize:
        s = sum(ws, ZERO)
        if s != 1:
            raise ValueError(f"mixture weights must sum to 1, got {s}")
    atoms = tuple([
        sum((w * c.atom_mass[i] for w, c in zip(ws, charges)), ZERO)
        for i in range(space.n_atoms)
    ])
    tail = sum((w * c.tail_mass for w, c in zip(ws, charges)), ZERO)
    return Charge(space, atoms, tail)


@dataclass(frozen=True)
class DensityPair:
    """Densities of two charges against their average.

    ``base`` is (p + q) / 2. On atoms where ``base`` vanishes both densities
    are ``None``; everywhere else ``g[i] + h[i] == 2`` exactly. Indices of
    base-null atoms are listed in ``base_null``. The tail never enters: both
    inputs must be countably additive.
    """

    base: Charge
    g: tuple["Fraction | None", ...]
    h: tuple["Fraction | None", ...]
    base_null: tuple[int, ...]


def radon_nikodym(p: Charge, q: Charge) -> DensityPair:
    """Densities g = dp/dK and h = dq/dK with K = (p + q) / 2.

    Both inputs must be countably additive (no tail mass) and not both zero.
    The returned densities satisfy (g + h) / 2 = 1 pointwise on the support
    of K, which is the exactness guarantee everything downstream leans on.
    """
    if p.space != q.space:
        raise ValueError("both charges must live on one sample space")
    if not p.is_countably_additive or not q.is_countably_additive:
        raise ValueError("densities are only taken for countably additive charges")
    if p.total == 0 and q.total == 0:
        raise ValueError("cannot take densities of two zero charges")
    base_masses = tuple((a + b) / 2 for a, b in zip(p.atom_mass, q.atom_mass))
    base = Charge(p.space, base_masses, ZERO)
    g: list[Fraction | None] = []
    h: list[Fraction | None] = []
    null: list[int] = []
    for i, k in enumerate(base_masses):
        if k == 0:
            g.append(None)
            h.append(None)
            null.append(i)
        else:
            g.append(p.atom_mass[i] / k)
            h.append(q.atom_mass[i] / k)
    return DensityPair(base, tuple(g), tuple(h), tuple(null))
