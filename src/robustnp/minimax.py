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
   sum_i v_i p_i[tail] = 0), gamma_c = gamma - w_tail with no solve. So it
   never runs under H1: a tail-free P has every p_i[tail] = 0, and with a
   tail-free Q, x0[tail] > 0 makes the tail's row, which reads
   0 <= sum_i v_i p_i[tail] + w_tail, tight. If the level duals v*
   certifying gamma_c have s = sum v* > 0, weak duality puts the countable
   value at any level a < alpha at most gamma_c - (alpha - a) s, so
   level_c = alpha and v*/s is an optimal auxiliary dual; only s = 0 runs
   the auxiliary program.

One layout, "max t : t <= E_r[x] on the t rows, E_c[x] <= cap on the
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
reduced cost is 0 and the level-row multipliers sum to exactly 1: they are
the null mixture's weights as they stand. Each row of the layout holds one
charge's ``scaled`` integers, as ints over its denominator den, so the
simplex takes it as it is and its dual comes back over den; a stage reads
the multiplier as den times the dual. The dual face program of step 2 is
the transpose of the epigraph program, written as a cone (see
`_lift_dual_support`), so its right-hand sides are 0 and it starts from
the slack basis too. The test box goes to the simplex as variable bounds;
its multipliers w come back as the bound duals, and only the dual face
program carries them, as identity columns.

`solve_minimax` returns a solution only once `kkt_certificate` has rechecked
its dual certificate exactly, in integers; a nonzero residual raises. The
same check settles the case split with no LP. Complementary slackness gives
v_i (alpha - E_{P_i}[x]) = 0 for every optimal test x, so some v_i > 0 means
every optimal test spends alpha. If v = 0, summing the dual rows over the
slots gives 1 <= sum w = gamma, so every optimal test is 1 on the union S of
the alternative supports, and the least attained level is max_i P_i(S).
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
    _mixed,
    _scale,
    expectation,
    frac,
    lower_expectation,
    mix,
    upper_expectation,
)
from .neyman_pearson import _ratio_classes
from .simplex import solve_lp


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
    mixture, ``lam`` the weight of its countably additive part, and
    ``gamma_c`` the best power against that part alone; its weights
    ``q_weights`` are the certificate's u. The null-side mixture's weights
    ``p_weights`` come from an optimal dual of the auxiliary program, and
    :func:`verify_threshold_form`, its one reader, mixes it; ``level_c`` is
    that program's value: the smallest worst-case null level at which a test
    still integrates the countably additive part to ``gamma_c``. When the
    level duals certifying ``gamma_c`` have a positive sum, ``level_c`` is
    alpha and ``p_weights`` are those duals normalized, with no solve;
    otherwise they are the program's level-row multipliers, which sum to 1.
    So also at ``level_c == 0``, where every mixture is an optimal dual, they
    are the multipliers of the final basis, not a fixed choice. Both are
    ``None`` when ``lam == 0`` and the auxiliary program is vacuous.
    """

    x_alpha: TestFunction
    gamma_alpha: Fraction
    attained_level: Fraction
    case: Case
    q_alpha: Charge
    gamma_c: Fraction
    p_weights: "tuple[Fraction, ...] | None"
    level_c: "Fraction | None"
    certificate: DualCertificate

    @property
    def q_weights(self) -> tuple[Fraction, ...]:
        return self.certificate.q_constraint_duals

    @property
    def lam(self) -> Fraction:
        return ONE - self.q_alpha.tail_mass


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


def _epigraph_program(t_rows, cap_rows, cap):
    """max t : t <= E_r[x] for r in t_rows, E_c[x] <= cap for c in cap_rows, 0 <= x <= 1.

    Each row is a charge's masses as ``(ints, den)``, its ``scaled`` form: a
    t row reads den t - ints . x <= 0 and a cap row ints . x <= cap den, so
    a row's dual comes back over den. It returns ``(c, a_ub, b_ub, upper)``
    over (x, t), t rows first, so the row duals split in that order; the
    box is the bounds ``upper``, whose duals are w. With ``cap``
    nonnegative, x = 0, t = 0 is a feasible basis.
    """
    nv = len(t_rows[0][0])
    a_ub = [[-m for m in ints] + [den] for ints, den in t_rows]
    a_ub += [ints + [0] for ints, _ in cap_rows]
    b_ub = [ZERO] * len(t_rows) + [cap * den for _, den in cap_rows]
    return [0] * nv + [1], a_ub, b_ub, [ONE] * nv + [None]


def _optimal(res, what: str):
    """``res`` if the LP ended optimal; every program of the chain is solvable."""
    if res.status != "optimal":
        raise RuntimeError(f"{what} ended {res.status}; it is always solvable")
    return res


def _solve_epigraph(prob: TestProblem):
    """Max worst-case power via the epigraph LP: value, duals (u, v, w), test x0."""
    qs, ps = prob.q_family.family, prob.p_family.family
    c, a_ub, b_ub, upper = _epigraph_program([q.scaled for q in qs], [p.scaled for p in ps],
                                             prob.alpha)
    res = _optimal(solve_lp(c, a_ub, b_ub, upper=upper), "epigraph program")
    duals = [m.scaled[1] * y for m, y in zip(qs + ps, res.y_ub)]
    u, v, w = duals[: len(qs)], duals[len(qs) :], list(res.y_upper[:-1])
    xs, top = res._scaled_x()
    return res.value, u, v, w, TestFunction._from_scaled(prob.space, xs[:-1], top)


def _lift_dual_support(prob: TestProblem, gamma: Fraction, u, v, w, x0: TestFunction):
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

    In u, slot row k would be scaled by the lcm of every member's
    denominator, and a fraction-free tableau entry is a minor of the scaled
    input (Bareiss 1968): they reached 3000 bits at 40x10x10. So the LP is
    in u'_j = u_j / den_j and v'_i = v_i / den_i, for den a member's
    ``scaled`` denominator: slot row k holds the members' integers, the gap
    row -gamma den_j, alpha den_i and 1 per w_k over the lcm of their
    denominators, and candidate row t_j - den_j u'_j <= 0.
    """
    qs, ps = prob.q_family.family, prob.p_family.family
    cand = [j for j, q in enumerate(qs) if u[j] == 0 and expectation(q, x0) == gamma]
    if not cand:
        return u, v, w
    mq, mp, nv, nc = len(qs), len(ps), prob.space.n_slots, len(cand)
    n_face, dens = mq + mp + nv, [c.scaled[1] for c in qs + ps]
    # Over (u', v', w, t): a row per slot, the gap row, a row per candidate.
    face_a = [
        [q.scaled[0][k] for q in qs] + [-p.scaled[0][k] for p in ps]
        + [-1 if i == k else 0 for i in range(nv)] + [0] * nc
        for k in range(nv)
    ]
    gap = [d * (prob.alpha if j >= mq else -gamma) for j, d in enumerate(dens)]
    face_a.append(_scale(gap + [1] * nv + [0] * nc)[0])
    for r, j in enumerate(cand):
        row = [0] * (n_face + nc)
        row[j], row[n_face + r] = -dens[j], 1
        face_a.append(row)
    res = _optimal(solve_lp([0] * n_face + [1] * nc, face_a, [ZERO] * len(face_a),
                            upper=[None] * n_face + [ONE] * nc), "dual face program")
    if res.value == 0:
        return u, v, w
    s = sum((d * a for d, a in zip(dens, res.x[:mq])), ZERO)
    avg = [(a + d * b / s) / 2 for a, b, d in zip(u + v + w, res.x, dens + [1] * nv)]
    return avg[:mq], avg[mq : mq + mp], avg[mq + mp :]


def _min_attained_level(prob: TestProblem, gamma: Fraction):
    """Among optimal tests, minimize the worst-case null level (in complements)."""
    c, a_ub, b_ub, upper = _epigraph_program([p.scaled for p in prob.p_family.family],
                                             [q.scaled for q in prob.q_family.family], ONE - gamma)
    res = _optimal(solve_lp(c, a_ub, b_ub, upper=upper), "level program")
    ys, top = res._scaled_x()
    return TestFunction._from_scaled(prob.space, [top - y for y in ys[:-1]], top), ONE - res.value


def _countable_value(prob: TestProblem, lam_qc):
    """Best integral of the countably additive part at level alpha, with the level duals.

    Its rows are the null members' integers, as the epigraph's cap rows,
    and its objective is ``lam_qc``, the part's masses as ``(ints, den)``,
    so the value comes back times den and row i's dual times den over
    member i's.
    """
    ps, nv, (lam, den) = prob.p_family.family, prob.space.n_slots, lam_qc
    b_ub = [prob.alpha * p.scaled[1] for p in ps]
    res = _optimal(solve_lp(lam, [p.scaled[0] for p in ps], b_ub, upper=[ONE] * nv),
                   "countable part program")
    return res.value / den, [p.scaled[1] * y / den for p, y in zip(ps, res.y_ub)]


def _null_side_mixture(prob: TestProblem, lam_qc, lam, gamma_c):
    """Null mixture from the auxiliary program's level-side duals.

    The auxiliary program minimizes the worst-case null level over tests
    whose integral against the countably additive part reaches gamma_c. In
    its complemented form the level rows' multipliers sum to 1 (module
    docstring) and are the mixture's weights. Returns the weights and the
    program's value. ``lam_qc`` is the countably additive part's masses as
    ``(ints, den)``, and ``lam`` its total mass.
    """
    ps = prob.p_family.family
    c, a_ub, b_ub, upper = _epigraph_program([p.scaled for p in ps], [lam_qc], lam - gamma_c)
    res = _optimal(solve_lp(c, a_ub, b_ub, upper=upper), "auxiliary level program")
    weights = tuple(p.scaled[1] * y for p, y in zip(ps, res.y_ub))
    if (total := sum(weights, ZERO)) != ONE:
        raise RuntimeError(
            f"level duals of the auxiliary program sum to {total}, expected 1"
        )
    return weights, ONE - res.value


def kkt_certificate(prob: TestProblem, sol: Solution) -> DualCertificate:
    """Recompute the feasibility, duality gap, case split and u-mixture of ``sol`` exactly.

    Nothing is trusted from the stored certificate but the multipliers
    themselves, and no LP is solved; :func:`solve_minimax` runs this check
    once on every solution it returns. The multipliers are checked as
    integers over their least common denominators, and the levels, the
    power and the mixtures' slot sums come from the integer forms of the
    charge model, so a ``Fraction`` is built only for an expectation, a
    reported value or an error message. Returns ``sol.certificate`` once it
    has passed; any exact violation raises :class:`CertificateError`.
    """
    nv, ps, qs = prob.space.n_slots, prob.p_family.family, prob.q_family.family
    x, gamma, attained = sol.x_alpha, sol.gamma_alpha, sol.attained_level
    cert = sol.certificate
    u, v, w = cert.q_constraint_duals, cert.level_duals, cert.box_duals
    if len(u) != len(qs) or len(v) != len(ps) or len(w) != nv or x.space != prob.space:
        raise CertificateError("certificate has the wrong shape for this problem")
    try:
        (us, du), (vs, dv), (ws, dw) = _scale(u), _scale(v), _scale(w)
    except AttributeError:  # a multiplier with no numerator and denominator
        raise CertificateError("dual multipliers must be rationals") from None
    if any(val < 0 for val in us + vs + ws):
        raise CertificateError("dual multipliers must be nonnegative")
    if sum(us) != du:
        raise CertificateError(f"alternative weights sum to {sum(u, ZERO)}, expected 1")
    levels = [expectation(p, x) for p in ps]
    for i, val in enumerate(levels):
        if val > prob.alpha:
            raise CertificateError(
                f"test exceeds level: null member {i} integrates to {val} > {prob.alpha}"
            )
    if (power := min(expectation(q, x) for q in qs)) != gamma:
        raise CertificateError(f"worst-case power of the test is {power}, claimed {gamma}")
    # sum_j u_j q_j <= sum_i v_i p_i + w slot by slot, cross-multiplied.
    (qm, dq), (pm, dp) = _mixed(qs, us, du), _mixed(ps, vs, dv)
    fq, fp, fw = dp * dw, dq * dw, dq * dp
    for k, (a, b, c) in enumerate(zip(qm, pm, ws)):
        if a * fq > b * fp + c * fw:
            raise CertificateError(
                f"dual infeasible at slot {k}: mixture mass {Fraction(a, dq)} exceeds "
                f"{Fraction(b, dp) + Fraction(c, dw)}"
            )
    gap = prob.alpha * Fraction(sum(vs), dv) + Fraction(sum(ws), dw) - gamma
    if gap != 0:
        raise CertificateError(f"duality gap is {gap}, expected 0")
    # (u, v, w) and x are optimal now, so v fixes the least level (see Solution).
    if any(vs):
        least = prob.alpha
    else:  # the indicator of the union of the alternative supports
        on = [ONE if any(col) else ZERO for col in zip(*[q.scaled[0] for q in qs])]
        least = upper_expectation(prob.p_family, TestFunction.from_slots(prob.space, on))
    if least != attained:
        raise CertificateError(
            f"claimed attained level {attained}, the certificate proves {least}"
        )
    if max(levels) != attained:
        raise CertificateError(
            f"test reaches level {max(levels)}, claimed attained level {attained}"
        )
    if sol.case is not (Case.LEVEL_SLACK if attained < prob.alpha else Case.LEVEL_ATTAINED):
        raise CertificateError(f"case {sol.case.value} disagrees with attained level {attained}")
    # q_alpha is sum_j u_j Q_j, which is qm / dq: over one gcd, its scaled form.
    g = math.gcd(dq, *qm)
    if sol.q_alpha.space != prob.space or sol.q_alpha.scaled != ([m // g for m in qm], dq // g):
        raise CertificateError("q_alpha is not the mixture of the alternatives under q_weights")
    return cert


def solve_minimax(prob: TestProblem) -> Solution:
    """Solve the worst-case testing problem exactly.

    Raises :class:`CertificateError` if the assembled optimality
    certificate fails its exact recomputation, which would mean a bug in
    the pipeline rather than a property of the instance.
    """
    gamma, u0, v0, w0, x0 = _solve_epigraph(prob)
    u, v, w = _lift_dual_support(prob, gamma, u0, v0, w0, x0)
    q_alpha = mix(prob.q_family.family, u)
    x_alpha, attained = _min_attained_level(prob, gamma)
    case = Case.LEVEL_SLACK if attained < prob.alpha else Case.LEVEL_ATTAINED
    lam = ONE - q_alpha.tail_mass
    # The countable part's masses are q_alpha's integers with the tail at 0,
    # over the same den: q_alpha's total is 1, so it is still the least.
    ints, den = q_alpha.scaled
    lam_qc = (ints[:-1] + [0] if prob.space.has_tail else ints, den)
    if lam == 0:
        gamma_c, p_weights, level_c = ZERO, None, None
    else:
        # Step 4's shortcuts, argued in the module docstring.
        ps = prob.p_family.family
        if x0.tail_value == 0 or not any(vi and p.tail_mass for vi, p in zip(v, ps)):
            gamma_c, v_c = gamma - (w[-1] if x0.tail_value else ZERO), v
        else:
            gamma_c, v_c = _countable_value(prob, lam_qc)
        if (s := sum(v_c, ZERO)) > 0:
            p_weights, level_c = tuple(vi / s for vi in v_c), prob.alpha
        else:
            p_weights, level_c = _null_side_mixture(prob, lam_qc, lam, gamma_c)
    sol = Solution(
        x_alpha=x_alpha,
        gamma_alpha=gamma,
        attained_level=attained,
        case=case,
        q_alpha=q_alpha,
        gamma_c=gamma_c,
        p_weights=p_weights,
        level_c=level_c,
        certificate=DualCertificate(tuple(u), tuple(v), tuple(w)),
    )
    kkt_certificate(prob, sol)
    return sol


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

    Nor does the attained case's verdict where ``_countable_value`` did not
    run (always, under H1). With kappa = sum v the null mixture is v/kappa
    (the auxiliary program's if kappa = 0), and complementary slackness puts
    x_alpha at 1 where lam_qc > kappa * tau_pc (there w > 0) and at 0 where
    lam_qc < kappa * tau_pc (the slot row is slack), as one of the scan's
    candidates cuts. The countable program's duals need not, so the scan stays.
    """
    if sol.x_alpha.space != prob.space or sol.q_alpha.space != prob.space:
        raise ValueError("charge and test live on different sample spaces")
    if sol.lam == 0:
        raise PureLeastFavorableError(
            "the least favorable alternative mixture has no countably additive part"
        )
    if sol.case is not Case.LEVEL_ATTAINED:
        raise ValueError(
            "threshold verification applies to the level-attained case; "
            "the slack case's degenerate form follows from the certificate"
        )
    p_alpha = mix(prob.p_family.family, sol.p_weights)
    tau = ONE - p_alpha.tail_mass
    if tau == 0:
        raise PureLeastFavorableError(
            "the least favorable null mixture has no countably additive part"
        )
    # The cuts read only the atom masses: the mixtures' countable parts.
    classes = _ratio_classes(p_alpha, sol.q_alpha)
    kappa, classification, b_values, verdict, violations = _scan_threshold(
        prob.space, p_alpha, sol.q_alpha, sol.x_alpha, classes
    )
    # The grid criterion: the best countable integral V(a) at level a is
    # concave and nondecreasing with V(alpha) = gamma_c, and level_c is the
    # least level at which gamma_c is still reachable. So
    # V(alpha - eps) < gamma_c for every eps > 0 exactly when level_c == alpha.
    return RepresentationReport(
        kappa=kappa,
        kappa_formula=_kappa_from_quantile(classes, sol.q_alpha, sol.gamma_c),
        tau=tau,
        classification=classification,
        b_values=b_values,
        verdict=verdict,
        violations=violations,
        precondition_grid=sol.level_c == prob.alpha,
    )
