"""Worst-case most powerful tests between two families of charges.

Given a null family (level constraint on every member) and an alternative
family (power measured against the worst member), `solve_minimax` finds a
randomized test maximizing the worst-case power at level alpha, together
with a least favorable pair: a mixture of the alternative family whose
single-measure testing problem the optimal test also solves, and a mixture
of the null family playing the same role on the level side.

The solver is a chain of small exact LPs; steps 2 and 4 run only where
the epigraph's certificate leaves them open:

1. the epigraph program for the worst-case power (gives the value, a first
   optimal dual point (u, v, w) and an optimal test x0),
2. one program over the cone of the dual optimal face that finds every
   alternative member some optimal dual charges; averaging its point with
   the first gives a dual whose support is maximal, so the alternative
   mixture charges every member that any optimal dual charges. Every
   optimal dual has u_j = 0 where E_{Q_j}[x0] > gamma, so only members
   tight at x0 are candidates,
3. a second program minimizing the worst-case attained level over the
   optimal tests (the reported test; the certificate decides the case split),
4. the best integral gamma_c of the countably additive part of the
   alternative mixture at level alpha, and an auxiliary program minimizing
   the level needed to reach it, whose level-side duals produce the null
   mixture and whose value level_c decides the grid precondition. For the
   countable program, x0 is feasible, (v, w without its tail entry) is
   dual feasible, and complementary slackness holds on every atom; when it
   also holds on the tail slot (no tail, x0[tail] = 0 or
   sum_i v_i p_i[tail] = 0), gamma_c = gamma - w_tail with no solve. If
   the level duals v* certifying gamma_c have s = sum v* > 0, weak duality
   puts the countable value at any level a < alpha at most
   gamma_c - (alpha - a) s, so level_c = alpha and v*/s is an optimal
   auxiliary dual; only s = 0 runs the auxiliary program.

One layout, "max t : t <= E_r[x] on the t rows, E_c[x] <= cap_c on the
cap rows, 0 <= x <= 1", serves steps 1, 3 and 4. The epigraph has the
alternative members as t rows and the null members, capped at alpha, as
cap rows. Steps 3 and 4 swap the families: they minimize the level t
over tests x whose reach rows (the alternative members, or the countable
part) reach a target, written in complements y = 1 - x and s = 1 - t
(every member is a probability charge):

    max s : s <= E_{P_i}[y], E_r[y] <= E_r[1] - target, 0 <= y <= 1.

The target is gamma <= 1 or gamma_c <= lam, so every right-hand side is
nonnegative and y = 0, s = 0 is a feasible slack basis, where the simplex
starts. At the optimum s = 1 - level >= 1 - alpha > 0 is basic, so its
reduced cost is 0 and the level-row duals sum to exactly 1: they are the
null mixture's weights as they stand. The dual face program of step 2 is
the transpose of the epigraph program, written as a cone (see
`_lift_dual_support`), so its right-hand sides are 0 and it starts from
the slack basis too. The test box goes to the simplex as variable bounds;
its multipliers w come back as the bound duals, and only the dual face
program carries them, as identity columns.

Every solution carries a dual certificate whose residuals are recomputed
exactly, in integers; a nonzero residual raises instead of warning. The same check
settles the case split with no LP. Complementary slackness gives
v_i (alpha - E_{P_i}[x]) = 0 for every optimal test x, so some v_i > 0 means
every optimal test spends alpha. If v = 0, summing the dual rows over the
slots gives 1 <= sum w = gamma, so every optimal test is 1 on the union S
of the alternative supports, and the least attained level is max_i P_i(S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .charge_model import (
    ONE,
    ZERO,
    Charge,
    SampleSpace,
    SublinearExpectation,
    TestFunction,
    frac,
    lower_expectation,
    mix,
)
from .neyman_pearson import _ratio_classes
from .simplex import _scale, solve_lp


class CertificateError(RuntimeError):
    """An optimality certificate failed an exact recomputation."""


class PureLeastFavorableError(ValueError):
    """A structural verifier was asked about a purely finitely additive mixture.

    When the least favorable alternative mixture has no countably additive
    part (or the null mixture has none, on the threshold side), there is
    no ratio of countable masses to cut and the representation in question
    is not defined.
    """


class Case(Enum):
    LEVEL_ATTAINED = "LevelAttained"
    LEVEL_SLACK = "LevelSlack"


@dataclass(frozen=True)
class TestProblem:
    """A testing problem: null family, alternative family, level alpha."""

    space: SampleSpace
    p_family: SublinearExpectation
    q_family: SublinearExpectation
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", frac(self.alpha))
        if not (ZERO < self.alpha < ONE):
            raise ValueError(f"alpha must lie strictly between 0 and 1, got {self.alpha}")
        if self.p_family.role != "null":
            raise ValueError("p_family must have role 'null'")
        if self.q_family.role != "alternative":
            raise ValueError("q_family must have role 'alternative'")
        if self.p_family.space != self.space or self.q_family.space != self.space:
            raise ValueError("families and problem disagree on the sample space")


@dataclass(frozen=True)
class DualCertificate:
    """Exact optimality certificate for the epigraph program.

    For any test x with all null levels at most alpha, the chain

        min_j E_{Q_j}[x]  <=  sum_j u_j E_{Q_j}[x]
                          <=  sum_i v_i E_{P_i}[x] + sum_k w_k x_k
                          <=  alpha * sum_i v_i + sum_k w_k

    bounds the worst-case power, using u >= 0 summing to 1, v >= 0,
    w >= 0, and the slot-wise inequality sum_j u_j q_j <= sum_i v_i p_i + w.
    The gap between the right end of the chain and the claimed value is
    checked to be exactly zero when the certificate is built, and is not
    stored: anyone holding (u, v, w) recomputes it. With the reported test
    feasible and its worst-case power equal to the claimed value, a zero gap
    makes every link tight, so the complementary slackness products are all
    zero with no further check.
    """

    q_constraint_duals: tuple[Fraction, ...]
    level_duals: tuple[Fraction, ...]
    box_duals: tuple[Fraction, ...]


@dataclass(frozen=True)
class Solution:
    """Output of :func:`solve_minimax`.

    ``x_alpha`` is an optimal test with the least worst-case level among
    optimal tests, ``attained_level``; ``gamma_alpha`` is its worst-case
    power. The certificate's level duals v fix both: some v_i > 0 makes
    every optimal test spend alpha (LevelAttained); v = 0 makes
    ``gamma_alpha`` 1 and ``attained_level`` max_i P_i(S), for S the union
    of the alternative supports, and the case is LevelSlack exactly when
    that is below alpha. ``q_alpha`` is the least favorable alternative
    mixture (weights in ``q_weights``), ``lam`` the weight of its countably
    additive part, and ``gamma_c`` the best power against that part alone.
    ``p_alpha`` is the null-side mixture, with weights ``p_weights`` from
    an optimal dual of the auxiliary program, and ``level_c`` that program's
    value: the smallest worst-case null level at which a test still
    integrates the countably additive part to ``gamma_c``. When the level
    duals certifying ``gamma_c`` have a positive sum, ``level_c`` is alpha
    and ``p_weights`` are those duals normalized, with no solve; otherwise
    they are the program's level-row multipliers, which sum to 1. So also
    at ``level_c == 0``, where every mixture is an optimal dual, they are
    the multipliers of the final basis, not a fixed choice. All three are
    ``None`` when ``lam == 0`` and the auxiliary program is vacuous.
    """

    x_alpha: TestFunction
    gamma_alpha: Fraction
    attained_level: Fraction
    case: Case
    q_alpha: Charge
    q_weights: tuple[Fraction, ...]
    lam: Fraction
    gamma_c: Fraction
    p_alpha: "Charge | None"
    p_weights: "tuple[Fraction, ...] | None"
    level_c: "Fraction | None"
    certificate: DualCertificate


@dataclass(frozen=True)
class RepresentationReport:
    """Outcome of checking an attained-case solution against the threshold form.

    ``classification`` maps each atom label to ``strict_accept``,
    ``strict_reject``, ``boundary`` or ``base_null``; ``b_values`` lists
    the test's values on the boundary atoms, where the form leaves them
    free. ``violations`` explains every atom where the test disagrees with
    the form, and ``verdict`` is True when there are none.

    The two cut points sit on reciprocal scales. With p and q the atom
    masses of tau_pc and lam_qc, the null and alternative mixtures'
    countable parts, ``kappa`` is a cut on q/p: the form asks x = 1 where
    q > kappa * p and x = 0 where q < kappa * p. ``kappa_formula`` is the
    smallest u with lam_qc{u * q >= p} >= gamma_c, a cut on p/q, so its
    reciprocal is on kappa's scale. The density ratio dQ/dP is q/p against
    any reference measure, so neither cut depends on one. ``tau`` is the
    mass of tau_pc.
    """

    kappa: Fraction
    kappa_formula: Fraction
    tau: Fraction
    classification: dict[str, str]
    b_values: dict[str, Fraction]
    verdict: bool
    violations: tuple[str, ...]
    precondition_grid: bool


def _slot_rows(prob: TestProblem) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """The null and alternative members' masses in slot order."""
    return (
        [p.slot_masses() for p in prob.p_family.family],
        [q.slot_masses() for q in prob.q_family.family],
    )


def _epigraph_program(t_rows, cap_rows, caps):
    """max t : t <= E_r[x] for r in t_rows, E_c[x] <= cap_c for c in cap_rows, 0 <= x <= 1.

    Returns ``(c, a_ub, b_ub, upper)`` over (x, t); the t rows come first,
    so the row duals split in that order, and the box is the bounds
    ``upper``, whose duals are w. With ``caps`` nonnegative, x = 0, t = 0
    is a feasible basis.
    """
    nv = len(t_rows[0])
    a_ub = [[-val if val else ZERO for val in r] + [ONE] for r in t_rows]
    a_ub += [list(r) + [ZERO] for r in cap_rows]
    b_ub = [ZERO] * len(t_rows) + list(caps)
    return [ZERO] * nv + [ONE], a_ub, b_ub, [ONE] * nv + [None]


def _solve_epigraph(prob: TestProblem, p_rows, q_rows):
    """Max worst-case power via the epigraph LP: value, duals (u, v, w), test x0."""
    mq = len(q_rows)
    c, a_ub, b_ub, upper = _epigraph_program(q_rows, p_rows, [prob.alpha] * len(p_rows))
    res = solve_lp(c, a_ub, b_ub, upper=upper)
    if res.status != "optimal":
        raise RuntimeError(f"epigraph program ended {res.status}; it is always solvable")
    u, v, w = list(res.y_ub[:mq]), list(res.y_ub[mq:]), list(res.y_upper[:-1])
    return res.value, u, v, w, list(res.x[:-1])


def _lift_dual_support(prob: TestProblem, p_rows, q_rows, gamma: Fraction, u, v, w, x0):
    """Widen the dual point to charge every member that some optimal dual charges.

    Only a member with u_j = 0 whose row is tight at the optimal test x0 is
    a candidate: complementary slackness u_j (E_{Q_j}[x0] - gamma) = 0
    holds for every optimal dual, so a slack row forces u_j = 0 on the
    whole face. With no candidate, (u, v, w) comes back unchanged.

    The epigraph's dual is its layout transposed: over (u, v, w) >= 0, the
    slot rows sum_j u_j q_jk <= sum_i v_i p_ik + w_k, the t row sum u >= 1
    and the objective alpha * sum v + sum w. Its optimal face is where the
    objective is gamma. Take the cone K of (u, v, w) >= 0 with

        slot rows,  alpha * sum v + sum w - gamma * sum u <= 0.

    A point of K with s = sum u > 0, divided by s, is dual feasible with
    objective at most gamma, so on the face by weak duality; s = 0 forces
    v = w = 0. So a candidate j is charged by some optimal dual exactly
    when some point of K has u_j > 0, and as K is closed under sums and
    positive scaling, one point of K has u_j >= 1 for all such j at once.
    One program finds them (Freund, Roundy & Todd 1985): over
    (u, v, w, t) >= 0 with the bounds t_j <= 1,

        max sum t :  the rows of K,  t_j - u_j <= 0 for each candidate j.

    Every right-hand side is 0, so it starts from the slack basis. The
    point above reaches t_j = 1 for every charged candidate and t_j <= u_j
    keeps t_j = 0 on the others, so at the optimum t_j = 1 exactly for the
    charged candidates. A value of 0 proves that no optimal dual charges a
    candidate. A positive value gives s >= 1, and the average of (u, v, w)
    and the point divided by s lies on the face and charges every member
    that some optimal dual charges.
    """
    mq, mp = len(q_rows), len(p_rows)
    cand = [
        j for j, q in enumerate(q_rows)
        if u[j] == 0 and sum((a * b for a, b in zip(q, x0) if a), ZERO) == gamma
    ]
    if not cand:
        return u, v, w
    nv = prob.space.n_slots
    n_face, nc = mq + mp + nv, len(cand)
    # Over (u, v, w, t): a row per slot, the gap row, a row per candidate.
    face_a = [
        [q[k] for q in q_rows] + [-p[k] for p in p_rows]
        + [-ONE if i == k else ZERO for i in range(nv)] + [ZERO] * nc
        for k in range(nv)
    ]
    face_a.append([-gamma] * mq + [prob.alpha] * mp + [ONE] * nv + [ZERO] * nc)
    for r, j in enumerate(cand):
        row = [ZERO] * (n_face + nc)
        row[j], row[n_face + r] = -ONE, ONE
        face_a.append(row)
    res = solve_lp(
        [ZERO] * n_face + [ONE] * nc, face_a, [ZERO] * len(face_a),
        upper=[None] * n_face + [ONE] * nc,
    )
    if res.status != "optimal":
        raise RuntimeError(f"dual face program ended {res.status}")
    if res.value == 0:
        return u, v, w
    s = sum(res.x[:mq], ZERO)
    avg = [(a + b / s) / 2 for a, b in zip(u + v + w, res.x)]
    return avg[:mq], avg[mq : mq + mp], avg[mq + mp :]


def _min_attained_level(prob: TestProblem, p_rows, q_rows, gamma: Fraction):
    """Among optimal tests, minimize the worst-case null level (in complements)."""
    c, a_ub, b_ub, upper = _epigraph_program(p_rows, q_rows, [ONE - gamma] * len(q_rows))
    res = solve_lp(c, a_ub, b_ub, upper=upper)
    if res.status != "optimal":
        raise RuntimeError(f"level program ended {res.status}")
    x = [ONE - y for y in res.x[: prob.space.n_slots]]
    return TestFunction.from_slots(prob.space, x), ONE - res.value


def _countable_value(prob: TestProblem, p_rows, lam_qc: Charge):
    """Best integral of the countably additive part at level alpha, with the level duals."""
    b_ub = [prob.alpha] * len(p_rows)
    upper = [ONE] * prob.space.n_slots
    res = solve_lp(lam_qc.slot_masses(), p_rows, b_ub, upper=upper)
    if res.status != "optimal":
        raise RuntimeError(f"countable part program ended {res.status}")
    return res.value, list(res.y_ub)


def _null_side_mixture(prob: TestProblem, p_rows, lam_qc: Charge, lam, gamma_c):
    """Null mixture from the auxiliary program's level-side duals.

    The auxiliary program minimizes the worst-case null level over tests
    whose integral against the countably additive part reaches gamma_c. In
    its complemented form the level rows' multipliers sum to 1 (module
    docstring) and define the mixture. Returns the mixture, its weights and
    the program's value. ``lam`` is the total mass of ``lam_qc``.
    """
    lam_row = lam_qc.slot_masses()
    c, a_ub, b_ub, upper = _epigraph_program(p_rows, [lam_row], [lam - gamma_c])
    res = solve_lp(c, a_ub, b_ub, upper=upper)
    if res.status != "optimal":
        raise RuntimeError(f"auxiliary level program ended {res.status}")
    weights = res.y_ub[: len(p_rows)]
    if (total := sum(weights, ZERO)) != ONE:
        raise RuntimeError(
            f"level duals of the auxiliary program sum to {total}, expected 1"
        )
    return mix(prob.p_family.family, weights), weights, ONE - res.value


def _cmp(num: int, den: int, f: Fraction) -> int:
    """Sign of num/den - f, for den > 0."""
    lhs, rhs = num * f.denominator, f.numerator * den
    return (lhs > rhs) - (lhs < rhs)


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
    """Recompute feasibility, the duality gap and the case split exactly.

    The arithmetic runs on integers: the test, each member row and each
    multiplier vector are kept over their least common denominator, and a
    ``Fraction`` is built only for a reported value or an error message.
    """
    nv = prob.space.n_slots
    if len(u) != len(prob.q_family) or len(v) != len(prob.p_family) or len(w) != nv:
        raise CertificateError("certificate has the wrong shape for this problem")
    (us, du), (vs, dv), (ws, dw) = _scale(u), _scale(v), _scale(w)
    if any(val < 0 for val in us + vs + ws):
        raise CertificateError("dual multipliers must be nonnegative")
    if sum(us) != du:
        raise CertificateError(f"alternative weights sum to {sum(u, ZERO)}, expected 1")
    xs, dx = _scale(x.slot_values())
    q_sc, p_sc = [_scale(q) for q in q_rows], [_scale(p) for p in p_rows]
    # E_C[x] as (numerator, denominator) for every member C.
    q_vals = [(sum(m * xk for m, xk in zip(qs, xs) if m), dq * dx) for qs, dq in q_sc]
    p_vals = [(sum(m * xk for m, xk in zip(ps, xs) if m), dp * dx) for ps, dp in p_sc]
    for i, (num, den) in enumerate(p_vals):
        if _cmp(num, den, prob.alpha) > 0:
            raise CertificateError(
                f"test exceeds level: null member {i} integrates to "
                f"{Fraction(num, den)} > {prob.alpha}"
            )
    if min(_cmp(num, den, gamma) for num, den in q_vals) != 0:
        power = min(Fraction(num, den) for num, den in q_vals)
        raise CertificateError(f"worst-case power of the test is {power}, claimed {gamma}")
    # slack_k = (sum_i v_i p_i + w - sum_j u_j q_j)[k], as integers over den.
    lq, lp = math.lcm(*[d for _, d in q_sc]), math.lcm(*[d for _, d in p_sc])
    den = math.lcm(du * lq, dv * lp, dw)
    fq, fp = den // (du * lq), den // (dv * lp)
    slack = [wk * (den // dw) for wk in ws]
    for vi, (ps, d) in zip(vs, p_sc):
        if vi:
            f = vi * fp * (lp // d)
            slack = [s + f * m if m else s for s, m in zip(slack, ps)]
    for uj, (qs, d) in zip(us, q_sc):
        if uj:
            f = uj * fq * (lq // d)
            slack = [s - f * m if m else s for s, m in zip(slack, qs)]
    for k, val in enumerate(slack):
        if val < 0:
            lhs = sum((uj * q[k] for uj, q in zip(u, q_rows)), ZERO)
            raise CertificateError(
                f"dual infeasible at slot {k}: mixture mass {lhs} exceeds "
                f"{lhs + Fraction(val, den)}"
            )
    gap = prob.alpha * Fraction(sum(vs), dv) + Fraction(sum(ws), dw) - gamma
    if gap != 0:
        raise CertificateError(f"duality gap is {gap}, expected 0")
    # (u, v, w) and x are optimal now, so v fixes the least level (see Solution).
    if any(vs):
        least = [(prob.alpha.numerator, prob.alpha.denominator)]
    else:
        support = [k for k in range(nv) if any(qs[k] for qs, _ in q_sc)]
        least = [(sum(ps[k] for k in support), d) for ps, d in p_sc]
    if max(_cmp(num, d, attained) for num, d in least) != 0:
        raise CertificateError(
            f"claimed attained level {attained}, the certificate proves "
            f"{max(Fraction(num, d) for num, d in least)}"
        )
    if max(_cmp(num, d, attained) for num, d in p_vals) != 0:
        raise CertificateError(
            f"test reaches level {max(Fraction(num, d) for num, d in p_vals)}, "
            f"claimed attained level {attained}"
        )
    if case is not (Case.LEVEL_SLACK if attained < prob.alpha else Case.LEVEL_ATTAINED):
        raise CertificateError(f"case {case.value} disagrees with attained level {attained}")
    return DualCertificate(
        q_constraint_duals=tuple(u),
        level_duals=tuple(v),
        box_duals=tuple(w),
    )


def solve_minimax(prob: TestProblem) -> Solution:
    """Solve the worst-case testing problem exactly.

    Raises :class:`CertificateError` if the assembled optimality
    certificate fails its exact recomputation, which would mean a bug in
    the pipeline rather than a property of the instance.
    """
    p_rows, q_rows = _slot_rows(prob)
    gamma, u0, v0, w0, x0 = _solve_epigraph(prob, p_rows, q_rows)
    u, v, w = _lift_dual_support(prob, p_rows, q_rows, gamma, u0, v0, w0, x0)
    if sum(u, ZERO) != ONE:
        raise RuntimeError(
            f"interior dual point has alternative weights summing to {sum(u, ZERO)}"
        )
    q_alpha = mix(prob.q_family.family, u)
    x_alpha, attained = _min_attained_level(prob, p_rows, q_rows, gamma)
    case = Case.LEVEL_SLACK if attained < prob.alpha else Case.LEVEL_ATTAINED
    lam = ONE - q_alpha.tail_mass
    lam_qc = q_alpha.atom_part()
    if lam == 0:
        gamma_c, p_alpha, p_weights, level_c = ZERO, None, None, None
    else:
        # Step 4's shortcuts, argued in the module docstring.
        has_tail = prob.space.has_tail
        if not has_tail or x0[-1] == 0 or not any(vi and p[-1] for vi, p in zip(v, p_rows)):
            gamma_c, v_c = gamma - (w[-1] if has_tail else ZERO), v
        else:
            gamma_c, v_c = _countable_value(prob, p_rows, lam_qc)
        if (s := sum(v_c, ZERO)) > 0:
            p_weights, level_c = tuple(vi / s for vi in v_c), prob.alpha
            p_alpha = mix(prob.p_family.family, p_weights)
        else:
            p_alpha, p_weights, level_c = _null_side_mixture(prob, p_rows, lam_qc, lam, gamma_c)
    certificate = _build_certificate(
        prob, p_rows, q_rows, x_alpha, gamma, attained, case, u, v, w
    )
    return Solution(
        x_alpha=x_alpha,
        gamma_alpha=gamma,
        attained_level=attained,
        case=case,
        q_alpha=q_alpha,
        q_weights=tuple(u),
        lam=lam,
        gamma_c=gamma_c,
        p_alpha=p_alpha,
        p_weights=p_weights,
        level_c=level_c,
        certificate=certificate,
    )


def kkt_certificate(prob: TestProblem, sol: Solution) -> DualCertificate:
    """Re-derive the certificate for ``sol`` with every residual recomputed.

    Nothing is trusted from the stored certificate except the multipliers
    themselves; feasibility, the duality gap (which settles complementary
    slackness), the attained level and the case split are rebuilt from the
    problem data, and no LP is solved. Any exact violation raises
    :class:`CertificateError`.
    """
    cert = sol.certificate
    return _build_certificate(
        prob,
        *_slot_rows(prob),
        sol.x_alpha,
        sol.gamma_alpha,
        sol.attained_level,
        sol.case,
        list(cert.q_constraint_duals),
        list(cert.level_duals),
        list(cert.box_duals),
    )


def compute_beta(p_family: SublinearExpectation, q_countable: Charge) -> Fraction:
    """Largest lower-family mass of a set the countable part cannot see.

    Over events B with ``q_countable(B) == 0``, the best choice is the
    complement of the support of ``q_countable`` (monotonicity), so the
    value is the lower expectation of that complement's indicator.
    """
    if q_countable.space != p_family.space:
        raise ValueError("charge and family live on different sample spaces")
    if not q_countable.is_countably_additive:
        raise ValueError("the countably additive part must have no tail mass")
    if q_countable.total == 0:
        raise ValueError("the countably additive part is zero; beta is not defined")
    space = q_countable.space
    zero = tuple(ONE if m == 0 else ZERO for m in q_countable.atom_mass)
    return lower_expectation(p_family, TestFunction(space, zero, ONE if space.has_tail else ZERO))


def _scan_threshold(
    space: SampleSpace,
    tau_pc: Charge,
    lam_qc: Charge,
    x: TestFunction,
    classes: list[tuple["Fraction | None", list[int]]],
) -> tuple[Fraction, dict[str, str], dict[str, Fraction], bool, tuple[str, ...]]:
    """Search for a cut kappa on the mass ratio q/p of lam_qc to tau_pc consistent with ``x``.

    Candidates are 0, every realized finite ratio, midpoints between
    consecutive realized ratios, and one value above the largest. For each
    candidate the atoms split into strict accept (q > kappa * p, x must be
    1), strict reject (x must be 0) and boundary (x free). The candidate
    with the fewest violations wins, ties broken toward fewer boundary
    atoms, then toward smaller kappa. The counts go class by class, walking
    kappa down from the top; only the winner's atoms are classified.
    ``classes`` is ``_ratio_classes(tau_pc, lam_qc)``.
    """
    xs = x.atom_value
    not_one = [sum(xs[i] != ONE for i in idxs) for _, idxs in classes]
    not_zero = [sum(xs[i] != ZERO for i in idxs) for _, idxs in classes]
    finite = [r for r, _ in classes[1:]]
    # Above the largest ratio every finite class is strict reject.
    accepts, rejects = not_one[0], sum(not_zero[1:])
    scores = [(accepts + rejects, 0, finite[0] + 1 if finite else ONE)]
    for k, r in enumerate(finite, start=1):
        rejects -= not_zero[k]
        scores.append((accepts + rejects, len(classes[k][1]), r))
        accepts += not_one[k]
        if k < len(finite):
            scores.append((accepts + rejects, 0, (r + finite[k]) / 2))
    if not finite or finite[-1] > 0:
        scores.append((accepts + rejects, 0, ZERO))
    kappa = min(scores)[2]

    ratio_of = {i: r for r, idxs in classes for i in idxs}
    classification: dict[str, str] = {}
    b_values: dict[str, Fraction] = {}
    violations: list[str] = []
    for i, label in enumerate(space.atoms):
        if i not in ratio_of:
            classification[label] = "base_null"
            continue
        r, xv = ratio_of[i], xs[i]
        p, q = tau_pc.atom_mass[i], lam_qc.atom_mass[i]
        if r is None or r > kappa:
            classification[label] = "strict_accept"
            if xv != ONE:
                violations.append(
                    f"atom {label!r}: q={q} > kappa*p={kappa * p} requires x=1, got {xv}"
                )
        elif r < kappa:
            classification[label] = "strict_reject"
            if xv != ZERO:
                violations.append(
                    f"atom {label!r}: q={q} < kappa*p={kappa * p} requires x=0, got {xv}"
                )
        else:
            classification[label] = "boundary"
            b_values[label] = xv
    return kappa, classification, b_values, not violations, tuple(violations)


def _kappa_from_quantile(
    classes: list[tuple["Fraction | None", list[int]]], lam_qc: Charge, gamma_c: Fraction
) -> Fraction:
    """Smallest u >= 0 with lam_qc{u * q >= p} >= gamma_c, for p, q the masses of tau_pc, lam_qc.

    ``classes`` is ``_ratio_classes(tau_pc, lam_qc)``. The answer is 1/ratio
    at the first class of q/p whose mass brings lam_qc to gamma_c, or 0 if
    the class where p vanishes already does.
    """
    mass = ZERO
    for ratio, idxs in classes:
        mass += sum((lam_qc.atom_mass[i] for i in idxs), ZERO)
        if mass >= gamma_c:
            return ZERO if ratio is None else 1 / ratio
    raise RuntimeError("quantile search failed; gamma_c exceeds the countable mass")


def verify_threshold_form(prob: TestProblem, sol: Solution) -> RepresentationReport:
    """Check the solution against the ratio-cut form of the attained case.

    The cut is on the ratio q/p of the atom masses of the alternative
    mixture's countably additive part to the null mixture's. Atoms where
    both masses are 0 are unconstrained (``base_null``), as is the tail.
    Also reports the quantile form of the cut point and the grid criterion
    of the attained-case precondition (tightening the level by any positive
    amount strictly cuts the best integral of the countable part), read
    exactly from ``sol.level_c``. Its support criterion, beta <= 1 - alpha,
    is :func:`compute_beta`'s to answer.

    The slack case needs no check: its degenerate form, x = 1 wherever
    lam_qc has mass, holds for every solution that carries a certificate.
    LevelSlack means attained level < alpha, which the certificate allows
    only with v = 0. Dual feasibility then gives sum_j u_j q_j <= w on
    every slot, tail included, and summing over the slots gives 1 <= sum w.
    The zero gap gives sum w = gamma <= 1, so gamma = 1 and w = q_alpha
    slot by slot. So min_j E_{Q_j}[x_alpha] = 1 puts x_alpha = 1 on every
    alternative member's support, supp(lam_qc) included, and
    E_{lam_qc}[x_alpha] = lam.
    """
    if sol.lam == 0:
        raise PureLeastFavorableError(
            "the least favorable alternative mixture has no countably additive part"
        )
    if sol.case is not Case.LEVEL_ATTAINED:
        raise ValueError(
            "threshold verification applies to the level-attained case; "
            "the slack case's degenerate form follows from the certificate"
        )
    tau = ONE - sol.p_alpha.tail_mass
    if tau == 0:
        raise PureLeastFavorableError(
            "the least favorable null mixture has no countably additive part"
        )
    lam_qc = sol.q_alpha.atom_part()
    tau_pc = sol.p_alpha.atom_part()
    classes = _ratio_classes(tau_pc, lam_qc)
    kappa, classification, b_values, verdict, violations = _scan_threshold(
        prob.space, tau_pc, lam_qc, sol.x_alpha, classes
    )
    # The grid criterion: the best countable integral V(a) at level a is
    # concave and nondecreasing with V(alpha) = gamma_c, and level_c is the
    # least level at which gamma_c is still reachable. So
    # V(alpha - eps) < gamma_c for every eps > 0 exactly when level_c == alpha.
    return RepresentationReport(
        kappa=kappa,
        kappa_formula=_kappa_from_quantile(classes, lam_qc, sol.gamma_c),
        tau=tau,
        classification=classification,
        b_values=b_values,
        verdict=verdict,
        violations=violations,
        precondition_grid=sol.level_c == prob.alpha,
    )
