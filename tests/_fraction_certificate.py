"""The Fraction certificate check, kept as a test reference.

This is the original all-`Fraction` body of
:func:`robustnp.minimax.kkt_certificate`. The library now splits the same
checks between itself and the charge model: it checks the signs and the
sums of u, v and w on each vector's integers over its least common
denominator, takes the levels and the power from
:func:`robustnp.charge_model.expectation`, and compares the two mixtures
slot by slot on the integer sums of ``charge_model._mixed``, which
:func:`robustnp.charge_model.mix` also uses. So the two must accept the
same solutions, report equal certificates and reject the same bad ones
with the same message; the tests in ``test_minimax.py`` compare them. The
reference still tests the complementary slackness residuals, which the
library leaves out because a zero duality gap already forces them to 0.
It returns neither them, the slot slacks nor the gap, as the certificate
has no field for them. Its :func:`kkt_certificate` also checks that
``q_alpha`` is the u-mixture of the alternatives, in ``Fraction`` sums
where the library cross-multiplies integers.
"""

from __future__ import annotations

from fractions import Fraction

from robustnp.charge_model import ONE, ZERO, TestFunction, expectation
from robustnp.minimax import (
    Case,
    CertificateError,
    DualCertificate,
    Solution,
    TestProblem,
)


def slot_rows(prob: TestProblem) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """The null and alternative members' masses in slot order, as ``Fraction`` rows."""
    return (
        [p.slot_masses() for p in prob.p_family.family],
        [q.slot_masses() for q in prob.q_family.family],
    )


def kkt_certificate(prob: TestProblem, sol: Solution) -> DualCertificate:
    """The reference counterpart of :func:`robustnp.kkt_certificate`."""
    cert, (p_rows, q_rows) = sol.certificate, slot_rows(prob)
    out = _build_certificate(
        prob,
        p_rows,
        q_rows,
        sol.x_alpha,
        sol.gamma_alpha,
        sol.attained_level,
        sol.case,
        list(cert.q_constraint_duals),
        list(cert.level_duals),
        list(cert.box_duals),
    )
    # The least favorable alternative mixture: q_alpha is the u-mixture slot by slot.
    u = cert.q_constraint_duals
    mixture = [sum((uj * q[k] for uj, q in zip(u, q_rows)), ZERO)
               for k in range(prob.space.n_slots)]
    if sol.q_alpha.space != prob.space or sol.q_alpha.slot_masses() != mixture:
        raise CertificateError("q_alpha is not the mixture of the alternatives under q_weights")
    return out


def _build_certificate(
    prob: TestProblem,
    p_rows,
    q_rows,
    x: TestFunction,
    gamma: Fraction,
    attained: Fraction,
    case: Case,
    u: "list[Fraction]",
    v: "list[Fraction]",
    w: "list[Fraction]",
) -> DualCertificate:
    """Recompute feasibility, duality gap, slackness and the case split exactly."""
    nv = prob.space.n_slots
    xv = x.slot_values()
    if len(u) != len(prob.q_family) or len(v) != len(prob.p_family) or len(w) != nv:
        raise CertificateError("certificate has the wrong shape for this problem")
    if any(val < 0 for val in u + v + w):
        raise CertificateError("dual multipliers must be nonnegative")
    if sum(u, ZERO) != ONE:
        raise CertificateError(f"alternative weights sum to {sum(u, ZERO)}, expected 1")
    q_vals = [expectation(q, x) for q in prob.q_family.family]
    p_vals = [expectation(p, x) for p in prob.p_family.family]
    for i, val in enumerate(p_vals):
        if val > prob.alpha:
            raise CertificateError(
                f"test exceeds level: null member {i} integrates to {val} > {prob.alpha}"
            )
    if min(q_vals) != gamma:
        raise CertificateError(
            f"worst-case power of the test is {min(q_vals)}, claimed {gamma}"
        )
    u_rows = [(uj, q) for uj, q in zip(u, q_rows) if uj]
    v_rows = [(vi, p) for vi, p in zip(v, p_rows) if vi]
    slack = []
    for k in range(nv):
        lhs = sum((uj * q[k] for uj, q in u_rows if q[k]), ZERO)
        rhs = sum((vi * p[k] for vi, p in v_rows if p[k]), ZERO) + w[k]
        if lhs > rhs:
            raise CertificateError(
                f"dual infeasible at slot {k}: mixture mass {lhs} exceeds {rhs}"
            )
        slack.append(rhs - lhs)
    gap = prob.alpha * sum(v, ZERO) + sum(w, ZERO) - gamma
    residuals = []
    residuals += [u[j] * (q_vals[j] - gamma) for j in range(len(u))]
    residuals += [v[i] * (prob.alpha - p_vals[i]) for i in range(len(v))]
    residuals += [w[k] * (ONE - xv[k]) for k in range(nv)]
    residuals += [slack[k] * xv[k] for k in range(nv)]
    if gap != 0:
        raise CertificateError(f"duality gap is {gap}, expected 0")
    for r, val in enumerate(residuals):
        if val != 0:
            raise CertificateError(
                f"complementary slackness residual {r} is {val}, expected 0"
            )
    # (u, v, w) and x are optimal now, so v fixes the least level (see Solution).
    if v_rows:
        least = prob.alpha
    else:
        support = [k for k in range(nv) if any(q[k] for q in q_rows)]
        least = max(sum((p[k] for k in support), ZERO) for p in p_rows)
    if attained != least:
        raise CertificateError(
            f"claimed attained level {attained}, the certificate proves {least}"
        )
    if max(p_vals) != attained:
        raise CertificateError(
            f"test reaches level {max(p_vals)}, claimed attained level {attained}"
        )
    if case is not (Case.LEVEL_SLACK if attained < prob.alpha else Case.LEVEL_ATTAINED):
        raise CertificateError(f"case {case.value} disagrees with attained level {attained}")
    return DualCertificate(
        q_constraint_duals=tuple(u),
        level_duals=tuple(v),
        box_duals=tuple(w),
    )
