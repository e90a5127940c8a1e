"""The brute-force threshold scan and quantile, kept as a test reference.

These are the original :func:`robustnp.minimax._scan_threshold` and
:func:`robustnp.minimax._kappa_from_quantile`. They work on the densities g
and h of the two countable parts against their average, and the scan scores
every candidate cut on every atom. The library now walks the ratio classes
of the masses once, so both must pick the same cut, classify the atoms the
same way and report the same number of violations; ``test_minimax.py``
compares them. Only the violation messages differ: these name densities,
the library names masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from robustnp.charge_model import ONE, ZERO, Charge, SampleSpace, TestFunction


@dataclass(frozen=True)
class DensityPair:
    """Densities of two countable charges against their average.

    On atoms where the average vanishes both densities are ``None`` and the
    index is listed in ``base_null``.
    """

    g: tuple["Fraction | None", ...]
    h: tuple["Fraction | None", ...]
    base_null: tuple[int, ...]


def densities(p: Charge, q: Charge) -> DensityPair:
    """g = dp/dK and h = dq/dK with K = (p + q) / 2."""
    g: list[Fraction | None] = []
    h: list[Fraction | None] = []
    null: list[int] = []
    for i, (a, b) in enumerate(zip(p.atom_mass, q.atom_mass)):
        k = (a + b) / 2
        if k == 0:
            g.append(None)
            h.append(None)
            null.append(i)
        else:
            g.append(a / k)
            h.append(b / k)
    return DensityPair(tuple(g), tuple(h), tuple(null))


def scan_threshold(
    space: SampleSpace,
    dens: DensityPair,
    x: TestFunction,
) -> tuple[Fraction, dict[str, str], dict[str, Fraction], bool, tuple[str, ...]]:
    """Search for a ratio cut consistent with ``x``.

    Candidates are 0, every realized finite ratio h/g, midpoints between
    consecutive realized ratios, and one value above the largest. For each
    candidate the atoms split into strict accept (h > kappa * g, x must be
    1), strict reject (x must be 0) and boundary (x free). The candidate
    with the fewest violations wins, ties broken toward fewer boundary
    atoms, then toward smaller kappa.
    """
    ratios: list[Fraction] = []
    for i in range(space.n_atoms):
        if i in dens.base_null:
            continue
        g, h = dens.g[i], dens.h[i]
        if g > 0:
            ratios.append(h / g)
    finite = sorted(set(ratios))
    candidates = [ZERO] + finite
    for a, b in zip(finite, finite[1:]):
        candidates.append((a + b) / 2)
    candidates.append((finite[-1] + 1) if finite else ONE)
    candidates = sorted(set(candidates))

    best = None
    for kappa in candidates:
        classification: dict[str, str] = {}
        b_values: dict[str, Fraction] = {}
        violations: list[str] = []
        for i, label in enumerate(space.atoms):
            if i in dens.base_null:
                classification[label] = "base_null"
                continue
            g, h = dens.g[i], dens.h[i]
            xv = x.atom_value[i]
            if h > kappa * g:
                classification[label] = "strict_accept"
                if xv != ONE:
                    violations.append(
                        f"atom {label!r}: h={h} > kappa*g={kappa * g} requires x=1, got {xv}"
                    )
            elif h < kappa * g:
                classification[label] = "strict_reject"
                if xv != ZERO:
                    violations.append(
                        f"atom {label!r}: h={h} < kappa*g={kappa * g} requires x=0, got {xv}"
                    )
            else:
                classification[label] = "boundary"
                b_values[label] = xv
        score = (len(violations), len(b_values), kappa)
        if best is None or score < best[0]:
            best = (score, kappa, classification, b_values, tuple(violations))
    _, kappa, classification, b_values, violations = best
    return kappa, classification, b_values, len(violations) == 0, violations


def kappa_from_quantile(lam_qc: Charge, dens: DensityPair, gamma_c: Fraction) -> Fraction:
    """Smallest u >= 0 with lam_qc{u * h >= g} at least gamma_c."""
    space = lam_qc.space
    breaks = {ZERO}
    for i in range(space.n_atoms):
        if lam_qc.atom_mass[i] > 0:
            breaks.add(dens.g[i] / dens.h[i])
    for u in sorted(breaks):
        m = sum(
            (
                lam_qc.atom_mass[i]
                for i in range(space.n_atoms)
                if lam_qc.atom_mass[i] > 0 and u * dens.h[i] >= dens.g[i]
            ),
            ZERO,
        )
        if m >= gamma_c:
            return u
    raise RuntimeError("quantile search failed; gamma_c exceeds the countable mass")
