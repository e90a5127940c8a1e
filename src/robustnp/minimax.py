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
2. rounds over the dual optimal face, each maximizing the total weight of
   the alternative members still at zero and stopping at a round of value
   0 (averaging the collected points gives a dual whose support is
   maximal, so the alternative mixture charges every member that any
   optimal dual charges). Every optimal dual has u_j = 0 where
   E_{Q_j}[x0] > gamma, so only members tight at x0 are candidates,
3. a second program minimizing the worst-case attained level over the
   optimal tests (this decides the case split and picks the reported test),
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

Each LP layout is written down once. The dual face program of step 2 is
the transpose of the epigraph program of step 1, and steps 3 and 4 share
one level program, "min t : E_P[x] <= t, reach rows >= target, x <= 1",
with the alternative members or the countable part as the reach rows.
The test box 0 <= x <= 1 goes to the simplex as variable bounds, not rows;
its multipliers w come back as the bound duals, and only the dual face
program carries them, as identity columns.

Every solution carries a dual certificate whose residuals are recomputed
exactly; a nonzero residual raises instead of warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .charge_model import (
    ONE,
    ZERO,
    Charge,
    DensityPair,
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
from .simplex import solve_lp


class CertificateError(RuntimeError):
    """An optimality certificate failed an exact recomputation."""


class PureLeastFavorableError(ValueError):
    """A structural verifier was asked about a purely finitely additive mixture.

    When the least favorable alternative mixture has no countably additive
    part (or the null mixture has none, on the threshold side), the density
    machinery has nothing to work with and the representation in question
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
    w >= 0, and the slot-wise inequality sum_j u_j q_j <= sum_i v_i p_i + w
    (whose slack is ``lower_box_duals``). ``duality_gap`` is the difference
    between the right end of the chain and the claimed value, and
    ``cs_residuals`` are the products that make every link tight at the
    reported test. All of them must be exactly zero.
    """

    q_constraint_duals: tuple[Fraction, ...]
    level_duals: tuple[Fraction, ...]
    box_duals: tuple[Fraction, ...]
    lower_box_duals: tuple[Fraction, ...]
    cs_residuals: tuple[Fraction, ...]
    duality_gap: Fraction


@dataclass(frozen=True)
class Solution:
    """Output of :func:`solve_minimax`.

    ``x_alpha`` is an optimal test with the smallest possible worst-case
    attained level among optimal tests; ``gamma_alpha`` its worst-case
    power. ``q_alpha`` is the least favorable alternative mixture (weights
    in ``q_weights``), ``lam`` the weight of its countably additive part,
    and ``gamma_c`` the best power achievable against that part alone.
    ``p_alpha`` is the null-side mixture, with weights ``p_weights`` from
    an optimal dual of the auxiliary program, and ``level_c`` that program's
    value: the smallest worst-case null level at which a test still
    integrates the countably additive part to ``gamma_c``. When the level
    duals certifying ``gamma_c`` have a positive sum, ``level_c`` is alpha
    and ``p_weights`` are those duals normalized, with no solve; otherwise
    they are the program's level-row multipliers. All three are ``None``
    when ``lam == 0`` and the auxiliary program is vacuous.
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
    """Outcome of checking a solution against a structural test form.

    ``form`` is ``"threshold"`` or ``"degenerate"``. ``g`` and ``h`` are
    the densities of the two sides of the relevant pair against their
    average ``base`` (``None`` on base-null atoms). ``classification``
    maps each atom label to ``strict_accept``, ``strict_reject``,
    ``boundary`` or ``base_null``; ``b_values`` lists the test's values on
    the boundary atoms, where the form leaves them free. ``violations``
    explains every atom where the test disagrees with the form, and
    ``verdict`` is True when there are none.
    """

    form: str
    base: Charge
    g: tuple["Fraction | None", ...]
    h: tuple["Fraction | None", ...]
    kappa: Fraction
    kappa_formula: "Fraction | None"
    tau: "Fraction | None"
    lam: Fraction
    classification: dict[str, str]
    b_values: dict[str, Fraction]
    verdict: bool
    violations: tuple[str, ...]
    precondition_support: "bool | None"
    precondition_grid: "bool | None"
    gamma_consistent: "bool | None"


def _slot_rows(prob: TestProblem) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """The null and alternative members' masses in slot order."""
    return (
        [p.slot_masses() for p in prob.p_family.family],
        [q.slot_masses() for q in prob.q_family.family],
    )


def _epigraph_program(prob: TestProblem, p_rows, q_rows):
    """max t : t <= E_{Q_j}[x], E_{P_i}[x] <= alpha, 0 <= x <= 1, over (x, t).

    Returns ``(c, a_ub, b_ub, upper)``; the rows are the alternative
    members, then the null members, so the row duals split as (u, v), and
    the box is the bounds ``upper``, whose duals are w.
    """
    nv = prob.space.n_slots
    a_ub = [[-val for val in q] + [ONE] for q in q_rows]
    a_ub += [p + [ZERO] for p in p_rows]
    b_ub = [ZERO] * len(q_rows) + [prob.alpha] * len(p_rows)
    return [ZERO] * nv + [ONE], a_ub, b_ub, [ONE] * nv + [None]


def _level_program(p_rows, reach_rows, target: Fraction):
    """min t : E_{P_i}[x] <= t, E_r[x] >= target for each reach row r, x <= 1.

    Returns ``(c, a_ub, b_ub, upper)`` over (x, t); the level rows come
    first, and the box is the bounds ``upper``.
    """
    nv = len(p_rows[0])
    a_ub = [p + [-ONE] for p in p_rows]
    a_ub += [[-val for val in r] + [ZERO] for r in reach_rows]
    b_ub = [ZERO] * len(p_rows) + [-target] * len(reach_rows)
    return [ZERO] * nv + [ONE], a_ub, b_ub, [ONE] * nv + [None]


def _solve_epigraph(prob: TestProblem, p_rows, q_rows):
    """Max worst-case power via the epigraph LP: value, duals (u, v, w), test x0."""
    mq = len(q_rows)
    c, a_ub, b_ub, upper = _epigraph_program(prob, p_rows, q_rows)
    res = solve_lp(c, a_ub, b_ub, sense="max", upper=upper)
    if res.status != "optimal":
        raise RuntimeError(f"epigraph program ended {res.status}; it is always solvable")
    u, v, w = list(res.y_ub[:mq]), list(res.y_ub[mq:]), list(res.y_upper[:-1])
    return res.value, u, v, w, list(res.x[:-1])


def _lift_dual_support(prob: TestProblem, p_rows, q_rows, gamma: Fraction, u, v, w, x0):
    """Average the initial dual point with face points lifting the zero u_j.

    Only a member with u_j = 0 whose row is tight at the optimal test x0 is
    a candidate: complementary slackness u_j (E_{Q_j}[x0] - gamma) = 0
    holds for every optimal dual, so a slack row forces u_j = 0 on the
    whole face. With no candidate, (u, v, w) comes back unchanged.

    The dual optimal face is cut out by dual feasibility plus the equation
    "dual objective equals gamma". For the epigraph program max c.z subject
    to A z <= b and 0 <= x <= 1, with row duals y = (u, v) and bound duals
    w, that is -A^T y - w <= -c (the epigraph variable's row first, then one
    row per slot, w_k only in slot k's row) and b.y + sum w = gamma over
    (u, v, w) >= 0. Each round maximizes the total weight of the
    alternative members still at zero over that face and drops those the
    round's point charges; a round of value 0 proves that every optimal
    dual ignores the members left, and ends the sweep. Each other round
    lifts at least one member, so there are at most as many rounds as zero
    members. The average of all collected points charges every member that
    some optimal dual charges (Freund, Roundy & Todd 1985).
    """
    mq, mp = len(q_rows), len(p_rows)
    zero = [
        j for j, q in enumerate(q_rows)
        if u[j] == 0 and sum((a * b for a, b in zip(q, x0) if a), ZERO) == gamma
    ]
    if not zero:
        return u, v, w
    c, a_ub, b_ub, _ = _epigraph_program(prob, p_rows, q_rows)
    nv = len(c) - 1
    order = [nv, *range(nv)]
    face_a = [
        [-row[k] if row[k] else ZERO for row in a_ub]
        + [-ONE if i == k else ZERO for i in range(nv)]
        for k in order
    ]
    face_b = [-c[k] if c[k] else ZERO for k in order]
    b_all = b_ub + [ONE] * nv
    n_all = len(b_all)
    points = [u + v + w]
    while zero:
        obj = [ONE if j in zero else ZERO for j in range(n_all)]
        res = solve_lp(obj, face_a, face_b, [b_all], [gamma], sense="max")
        if res.status != "optimal":
            raise RuntimeError(f"dual face program ended {res.status}")
        points.append(list(res.x))
        if res.value == 0:
            break
        zero = [j for j in zero if res.x[j] == 0]
    k = len(points)
    avg = [sum((pt[i] for pt in points), ZERO) / k for i in range(n_all)]
    return avg[:mq], avg[mq : mq + mp], avg[mq + mp :]


def _min_attained_level(prob: TestProblem, p_rows, q_rows, gamma: Fraction):
    """Among optimal tests, minimize the worst-case null level."""
    c, a_ub, b_ub, upper = _level_program(p_rows, q_rows, gamma)
    res = solve_lp(c, a_ub, b_ub, sense="min", upper=upper)
    if res.status != "optimal":
        raise RuntimeError(f"level program ended {res.status}")
    return TestFunction.from_slots(prob.space, res.x[: prob.space.n_slots]), res.value


def _countable_value(prob: TestProblem, p_rows, lam_qc: Charge):
    """Best integral of the countably additive part at level alpha, with the level duals."""
    b_ub = [prob.alpha] * len(p_rows)
    upper = [ONE] * prob.space.n_slots
    res = solve_lp(lam_qc.slot_masses(), p_rows, b_ub, sense="max", upper=upper)
    if res.status != "optimal":
        raise RuntimeError(f"countable part program ended {res.status}")
    return res.value, list(res.y_ub)


def _null_side_mixture(prob: TestProblem, p_rows, lam_qc: Charge, gamma_c: Fraction):
    """Null mixture from the auxiliary program's level-side duals.

    The auxiliary program minimizes the worst-case null level over tests
    whose integral against the countably additive part reaches gamma_c.
    When its value is positive the level rows' multipliers sum to 1 and
    define the mixture; when it is zero the level constraint is slack at
    the auxiliary optimum and any mixture works, so the uniform one is
    reported. Returns the mixture, its weights and the program's value.
    """
    mp = len(p_rows)
    c, a_ub, b_ub, upper = _level_program(p_rows, [lam_qc.slot_masses()], gamma_c)
    res = solve_lp(c, a_ub, b_ub, sense="min", upper=upper)
    if res.status != "optimal":
        raise RuntimeError(f"auxiliary level program ended {res.status}")
    # min sense: multipliers of the level rows are <= 0, flip the sign.
    weights = [-d for d in res.y_ub[:mp]]
    total = sum(weights, ZERO)
    if total == 0:
        weights = [ONE / mp] * mp
    elif total != ONE:
        raise RuntimeError(
            f"level duals of the auxiliary program sum to {total}, expected 1"
        )
    return mix(prob.p_family.family, weights, normalize=False), tuple(weights), res.value


def _build_certificate(
    prob: TestProblem,
    p_rows,
    q_rows,
    x: TestFunction,
    gamma: Fraction,
    u: "list[Fraction]",
    v: "list[Fraction]",
    w: "list[Fraction]",
) -> DualCertificate:
    """Recompute feasibility, duality gap, and slackness products exactly."""
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
    return DualCertificate(
        q_constraint_duals=tuple(u),
        level_duals=tuple(v),
        box_duals=tuple(w),
        lower_box_duals=tuple(slack),
        cs_residuals=tuple(residuals),
        duality_gap=gap,
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
    q_alpha = mix(prob.q_family.family, u, normalize=False)
    x_alpha, attained = _min_attained_level(prob, p_rows, q_rows, gamma)
    if attained > prob.alpha:
        raise RuntimeError(f"minimal attained level {attained} exceeds alpha")
    case = Case.LEVEL_SLACK if attained < prob.alpha else Case.LEVEL_ATTAINED
    lam = yosida_hewitt(q_alpha).lam
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
            p_alpha = mix(prob.p_family.family, p_weights, normalize=False)
        else:
            p_alpha, p_weights, level_c = _null_side_mixture(prob, p_rows, lam_qc, gamma_c)
    certificate = _build_certificate(prob, p_rows, q_rows, x_alpha, gamma, u, v, w)
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


def detect_case(prob: TestProblem, sol: Solution) -> Case:
    """Recompute the case split for a solution from scratch.

    Verifies first that the solution's value is the true optimum and that
    its test attains it feasibly; a solution failing that is rejected with
    ``ValueError`` rather than classified.
    """
    p_rows, q_rows = _slot_rows(prob)
    gamma = _solve_epigraph(prob, p_rows, q_rows)[0]
    if gamma != sol.gamma_alpha:
        raise ValueError(
            f"solution claims value {sol.gamma_alpha}, the problem's optimum is {gamma}"
        )
    if lower_expectation(prob.q_family, sol.x_alpha) != gamma:
        raise ValueError("solution's test does not attain the optimal value")
    if upper_expectation(prob.p_family, sol.x_alpha) > prob.alpha:
        raise ValueError("solution's test violates the level constraint")
    _, attained = _min_attained_level(prob, p_rows, q_rows, gamma)
    return Case.LEVEL_SLACK if attained < prob.alpha else Case.LEVEL_ATTAINED


def kkt_certificate(prob: TestProblem, sol: Solution) -> DualCertificate:
    """Re-derive the certificate for ``sol`` with every residual recomputed.

    Nothing is trusted from the stored certificate except the multipliers
    themselves; feasibility, the duality gap, and all complementary
    slackness products are rebuilt from the problem data. Any exact
    violation raises :class:`CertificateError`.
    """
    cert = sol.certificate
    return _build_certificate(
        prob,
        *_slot_rows(prob),
        sol.x_alpha,
        sol.gamma_alpha,
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
    zero_atoms = frozenset(
        a for a, m in zip(q_countable.space.atoms, q_countable.atom_mass) if m == 0
    )
    z = Event(q_countable.space, zero_atoms, q_countable.space.has_tail)
    return lower_expectation(p_family, z.indicator())


def beta_criterion_check(prob: TestProblem, sol: Solution) -> bool:
    """Whether the case split agrees with the mass criterion beta > 1 - alpha."""
    if sol.lam == 0:
        raise PureLeastFavorableError(
            "the least favorable alternative mixture has no countably additive part"
        )
    qc = yosida_hewitt(sol.q_alpha).countable
    beta = compute_beta(prob.p_family, qc)
    return (sol.case is Case.LEVEL_SLACK) == (beta > ONE - prob.alpha)


def _scan_threshold(
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


def _kappa_from_quantile(lam_qc: Charge, dens: DensityPair, gamma_c: Fraction) -> Fraction:
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


def verify_threshold_form(prob: TestProblem, sol: Solution) -> RepresentationReport:
    """Check the solution against the ratio-cut form of the attained case.

    The densities are taken for the pair (countably additive part of the
    null mixture, countably additive part of the alternative mixture)
    against their average. Atoms outside that average's support are
    unconstrained, as is the tail. Also reports the quantile form of the
    cut point and two renderings of the attained-case precondition: the
    support criterion (the support of the alternative's countable part
    already uses up the level budget) and the grid criterion (tightening
    the level by any positive amount strictly cuts the best integral of the
    countable part), read exactly from ``sol.level_c``.
    """
    if sol.case is not Case.LEVEL_ATTAINED:
        raise ValueError(
            "threshold verification applies to the level-attained case; "
            "use verify_degenerate_form for the slack case"
        )
    if sol.lam == 0:
        raise PureLeastFavorableError(
            "the least favorable alternative mixture has no countably additive part"
        )
    if sol.p_alpha is None:
        raise PureLeastFavorableError("no null-side mixture is available")
    tau = ONE - sol.p_alpha.tail_mass
    if tau == 0:
        raise PureLeastFavorableError(
            "the least favorable null mixture has no countably additive part"
        )
    lam_qc = sol.q_alpha.atom_part()
    tau_pc = sol.p_alpha.atom_part()
    dens = radon_nikodym(tau_pc, lam_qc)
    kappa, classification, b_values, verdict, violations = _scan_threshold(
        prob.space, dens, sol.x_alpha
    )
    kappa_formula = _kappa_from_quantile(lam_qc, dens, sol.gamma_c)

    supp = lam_qc.support()
    precondition_support = upper_expectation(prob.p_family, supp.indicator()) >= prob.alpha
    # The best countable integral V(a) at level a is concave and
    # nondecreasing with V(alpha) = gamma_c, and level_c is the least level
    # at which gamma_c is still reachable. So V(alpha - eps) < gamma_c for
    # every eps > 0 exactly when level_c == alpha.
    precondition_grid = sol.level_c == prob.alpha

    return RepresentationReport(
        form="threshold",
        base=dens.base,
        g=dens.g,
        h=dens.h,
        kappa=kappa,
        kappa_formula=kappa_formula,
        tau=tau,
        lam=sol.lam,
        classification=classification,
        b_values=b_values,
        verdict=verdict,
        violations=violations,
        precondition_support=precondition_support,
        precondition_grid=precondition_grid,
        gamma_consistent=None,
    )


def verify_degenerate_form(
    prob: TestProblem,
    sol: Solution,
    reference_p: "Charge | None" = None,
) -> RepresentationReport:
    """Check the slack-case form: accept everywhere the countable part lives.

    The reference measure is any countably additive probability charge on
    the same space (uniform over the explicit atoms by default); the form
    does not depend on its choice, which is exactly what makes the slack
    case degenerate. Also asserts gamma-consistency: the solution's test
    integrates the countably additive part to its full mass.
    """
    if sol.case is not Case.LEVEL_SLACK:
        raise ValueError(
            "degenerate verification applies to the level-slack case; "
            "use verify_threshold_form for the attained case"
        )
    if sol.lam == 0:
        raise PureLeastFavorableError(
            "the least favorable alternative mixture has no countably additive part"
        )
    space = prob.space
    if reference_p is None:
        n = space.n_atoms
        reference_p = Charge(space, tuple(Fraction(1, n) for _ in range(n)), ZERO)
    if reference_p.space != space:
        raise ValueError("reference measure lives on a different sample space")
    if not reference_p.is_countably_additive:
        raise ValueError("the reference measure must be countably additive")
    if not reference_p.is_probability:
        raise ValueError("the reference measure must be a probability charge")
    lam_qc = sol.q_alpha.atom_part()
    dens = radon_nikodym(reference_p, lam_qc)
    classification: dict[str, str] = {}
    b_values: dict[str, Fraction] = {}
    violations: list[str] = []
    for i, label in enumerate(space.atoms):
        if i in dens.base_null:
            classification[label] = "base_null"
            continue
        if dens.h[i] > 0:
            classification[label] = "strict_accept"
            if sol.x_alpha.atom_value[i] != ONE:
                violations.append(
                    f"atom {label!r}: countable part is positive, x must be 1, "
                    f"got {sol.x_alpha.atom_value[i]}"
                )
        else:
            classification[label] = "boundary"
            b_values[label] = sol.x_alpha.atom_value[i]
    gamma_consistent = expectation(lam_qc, sol.x_alpha) == sol.lam
    return RepresentationReport(
        form="degenerate",
        base=dens.base,
        g=dens.g,
        h=dens.h,
        kappa=ZERO,
        kappa_formula=None,
        tau=None,
        lam=sol.lam,
        classification=classification,
        b_values=b_values,
        verdict=not violations,
        violations=tuple(violations),
        precondition_support=None,
        precondition_grid=None,
        gamma_consistent=gamma_consistent,
    )
