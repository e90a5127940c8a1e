"""The Fraction-based spec parser, kept as a test reference.

This is the original :func:`robustnp.cli.parse_problem` with its
``_parse_charge``, ``_parse_rational`` and the coercion rule ``frac`` that
it applies, and with the checks that ``Charge.from_mapping``,
``Charge.__post_init__`` and ``Charge.is_probability`` made then, all on
``Fraction``s: each mass is a ``Fraction``, its sign is its numerator's,
and a member is a probability when its masses add up to ``Fraction(1)``.
The library now makes those checks on each member's masses as integers
over their least common denominator, so it must accept exactly the specs
this accepts, into an equal :class:`~robustnp.minimax.TestProblem`, and
refuse exactly the ones this refuses, with the same message;
``test_cli.py`` compares them on seeded mutants of the fixtures. Only the
objects are the library's: a spec this accepts is built with them.
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

from robustnp.charge_model import TAIL_LABEL, Charge, SampleSpace, SublinearExpectation, _show
from robustnp.minimax import TestProblem


def frac(v) -> Fraction:
    """An int, a ``"num/den"`` string or a Fraction as a Fraction; floats, bools and exponents refused."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError(f"refusing bool as a rational value: {v!r}")
    if isinstance(v, str) and ("e" in v or "E" in v) and re.search(r"[\d.][eE][-+]?\d", v):
        raise ValueError(f"refusing exponent notation in {v!r}; write 'num/den'")
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(
        f"refusing {v!r} ({type(v).__name__}); "
        "pass an int, a Fraction, or a 'num/den' string"
    )


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise ValueError(
            f"{where}: floats are not exact, write the rational as a 'num/den' string"
        )
    try:
        return frac(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_charge(space: SampleSpace, data, where: str) -> Charge:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object mapping atom labels to masses")
    entries = dict(data)
    tail_raw = entries.pop(TAIL_LABEL, 0)
    masses = {a: _parse_rational(v, f"{where}[{a!r}]") for a, v in entries.items()}
    tail = _parse_rational(tail_raw, f"{where}[{TAIL_LABEL!r}]")
    try:
        unknown = set(masses) - set(space.atoms)
        if unknown:
            raise ValueError(f"unknown atom labels: {sorted(unknown)}")
        atom_mass = [masses.get(a, Fraction(0)) for a in space.atoms]
        if any(m.numerator < 0 for m in atom_mass) or tail.numerator < 0:
            raise ValueError("charges are nonnegative")
        if tail.numerator and not space.has_tail:
            raise ValueError("tail mass on a space without a tail atom")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    if (total := sum(atom_mass, tail)) != 1:
        raise ValueError(f"{where}: masses sum to {_show(total)}, expected 1")
    return Charge(space, tuple(atom_mass), tail)


_SPEC_KEYS = ("atoms", "has_tail", "p_family", "q_family", "alpha", "description")


def parse_problem(data, alpha_override: "Fraction | None" = None) -> TestProblem:
    if not isinstance(data, dict):
        raise ValueError("top level: expected a JSON object")
    for key in data:
        if key not in _SPEC_KEYS:
            raise ValueError(f"top level: unknown key {key!r}; expected {', '.join(_SPEC_KEYS)}")
    for key in ("atoms", "p_family", "q_family", "alpha"):
        if key not in data:
            raise ValueError(f"top level: missing required key {key!r}")
    atoms = data["atoms"]
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ValueError("atoms: expected a list of strings")
    has_tail = data.get("has_tail", False)
    if not isinstance(has_tail, bool):
        raise ValueError("has_tail: expected true or false")
    try:
        space = SampleSpace(tuple(atoms), has_tail)
    except ValueError as exc:
        raise ValueError(f"atoms: {exc}") from None
    for side in ("p_family", "q_family"):
        if not isinstance(data[side], list) or not data[side]:
            raise ValueError(f"{side}: expected a non-empty list of charges")
    p_members = tuple(
        _parse_charge(space, c, f"p_family[{i}]") for i, c in enumerate(data["p_family"])
    )
    q_members = tuple(
        _parse_charge(space, c, f"q_family[{i}]") for i, c in enumerate(data["q_family"])
    )
    # The spec's own alpha is checked even when a flag overrides it.
    prob = TestProblem(
        space,
        SublinearExpectation(p_members, "null"),
        SublinearExpectation(q_members, "alternative"),
        _parse_rational(data["alpha"], "alpha"),
    )
    return prob if alpha_override is None else replace(prob, alpha=alpha_override)
