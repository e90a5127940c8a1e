"""Check a ``robustnp solve --json`` or ``robustnp np --json`` report by hand.

The checker shares no code with the solver: it uses the standard library
only and imports nothing from ``robustnp``. It reads the problem spec and
the report as JSON, works in ``Fraction``s, and accepts a report only if
the certificate in it proves the reported test optimal. Every check but
one is a sum over the slots (atoms, then the tail), so its cost is linear
in the size of the spec; nothing is re-solved.

A ``solve`` report carries u = ``q_weights`` and, under ``certificate``,
v = ``level_duals`` and w = ``box_duals``. For every test y in [0, 1] with
E_{P_i}[y] <= alpha for all i, weak duality gives

    min_j E_{Q_j}[y] <= sum_j u_j E_{Q_j}[y]
                     <= sum_i v_i E_{P_i}[y] + sum_k w_k y_k
                     <= alpha * sum v + sum w

when u >= 0 sums to 1, v >= 0, w >= 0 and sum_j u_j q_j <= sum_i v_i p_i + w
slot by slot. So a feasible test whose worst-case power equals
alpha * sum v + sum w is optimal. The reported attained level is the least
among optimal tests: some v_i > 0 forces E_{P_i}[y] = alpha on every
optimal y, and v = 0 forces value 1, so every optimal y is 1 on the union S
of the alternative supports and its level is at least max_i P_i(S).

The ``representation`` object is checked against the same data, before
the certificate, so that each of its claims is seen to fail on its own.
lam is 1 minus the tail mass of ``q_alpha``, lam_qc the atom part of
``q_alpha`` and tau_pc the atom part of the ``p_weights`` mixture of the
null members. The form is "none" when lam = 0, "degenerate" in the slack
case (the test is 1 on every atom of lam_qc, which the certificate also
proves: there v = 0 and the value is 1), and otherwise "threshold", or
"none" when tau_pc is zero. A threshold report's classification,
boundary values and violation count are rederived from its ``kappa``. A
false verdict needs proof: every candidate cut, that is 0, each finite
ratio q/p, the midpoints between consecutive ratios and one value above
the largest, must leave a violation. No atom changes class between two
consecutive candidates, so these are all the cuts there are. This is the
check that is not linear: it costs O(n) per candidate. Its
``kappa_formula`` is recomputed as the least u >= 0 with
lam_qc{u q >= p} >= gamma_c, for p and q the atom masses of tau_pc and
lam_qc and gamma_c the reported one, and its ``precondition_grid`` must
read ``level_c == alpha`` for the reported ``level_c``.

gamma_c, the best E_{lam_qc}[y] over tests y with E_{P_i}[y] <= alpha for
all i, is checked once the certificate has passed. The reported test is
such a y, and (v, w without its tail entry) is dual feasible for that
program with objective value - w_tail, so

    E_{lam_qc}[test] <= gamma_c <= value - w_tail,

and gamma_c = 0 when lam = 0. Setting y to 0 on the tail loses nothing,
and such a y has E_{tau_pc}[y] <= alpha for every mixture of the null
members. So the Neyman-Pearson value of (tau_pc, lam_qc) at alpha, found
by filling y down the ratio lam_qc/tau_pc, is at least gamma_c, and the
``p_weights`` are least favorable when it equals gamma_c, which is required.
Where the two bounds meet and sum v > 0, (v, w) certifies gamma_c, and
weak duality caps the countable value at any level a < alpha by
gamma_c - (alpha - a) sum v, so a threshold report's ``level_c`` must be
alpha.

The fields that read off the spec's masses alone are recomputed. beta is
min_i P_i of the atoms outside supp lam_qc, plus the tail, and
``beta_criterion_matches_case`` says whether beta > 1 - alpha exactly when
the case is LevelSlack; both are null when lam = 0. The ``hypotheses``
flags read off the largest tail masses p_tail and q_tail of the two
families: h1 is p_tail = 0 or q_tail = 0, h3 is p_tail < 1 and q_tail < 1,
and ``continuity_p`` and ``continuity_q`` are p_tail = 0 and q_tail = 0.
``witnesses`` has one key for each False flag.

An ``np`` report is checked from its ``kappa``: with w_k = max(q_k -
kappa p_k, 0) and kappa >= 0, every test y with E_p[y] <= alpha has
E_q[y] <= kappa * alpha + sum w, so a feasible test with that power is
optimal. Its ``b`` is the test's value on every atom with p_k > 0 and
q_k = kappa p_k, and 0 when there is no such atom.

    python tests/_report_checker.py SPEC REPORT

exits 0 when the report is accepted and 1, with the reason, when not. A
missing field, or one of the wrong JSON type, is a rejection that names
the field: a ``check`` report given as REPORT is rejected with
``problem: missing``. A file that cannot be read as JSON exits 2.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path


class ReportRejected(Exception):
    """The report's certificate does not prove what the report claims."""


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise ReportRejected(why)


def _number(value, what: str) -> Fraction:
    """A rational written as a JSON int or a "num/den" string."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ReportRejected(f"{what}: not a rational number")


class _Fields(dict):
    """A JSON object whose missing or mistyped fields are named when read.

    ``path`` is the object's own name followed by a dot ("" for a report).
    """

    def __init__(self, obj, path: str = ""):
        _require(isinstance(obj, dict), f"{path[:-1] or 'report'}: not an object")
        super().__init__(obj)
        self.path = path

    def __missing__(self, key):
        raise ReportRejected(f"{self.path}{key}: missing")

    def obj(self, key: str) -> "_Fields":
        return _Fields(self[key], f"{self.path}{key}.")

    def array(self, key: str) -> list:
        _require(isinstance(self[key], list), f"{self.path}{key}: not a list")
        return self[key]

    def rational(self, key: str) -> Fraction:
        return _rational(self[key], self.path + key)

    def rationals(self, key: str) -> list[Fraction]:
        return [_rational(e, f"{self.path}{key}[{i}]") for i, e in enumerate(self.array(key))]


def _rational(entry, what: str) -> Fraction:
    """A report rational: an object whose "exact" string is "num/den"."""
    return _number(_Fields(entry, what + ".")["exact"], what)


class _Spec:
    """A problem spec's slot labels and members as Fraction vectors."""

    def __init__(self, spec: dict):
        spec = _Fields(spec, "spec.")
        self.atoms = spec.array("atoms")
        self.has_tail = bool(spec.get("has_tail", False))
        self.labels = self.atoms + (["tail"] if self.has_tail else [])
        self.alpha = _number(spec["alpha"], "spec.alpha")
        self.p, self.q = (
            [self._slots(c, f"spec.{name}[{i}]") for i, c in enumerate(spec.array(name))]
            for name in ("p_family", "q_family")
        )

    def _slots(self, charge, what: str) -> list[Fraction]:
        charge = _Fields(charge, what + ".")
        _require(set(charge) <= set(self.labels), f"spec: unknown labels in {charge}")
        slots = [_number(charge.get(label, 0), charge.path + label) for label in self.labels]
        _require(sum(slots) == 1 and min(slots) >= 0, f"spec: {charge} is no probability")
        return slots

    def vector(self, obj: _Fields) -> list[Fraction]:
        """A report's per-slot object, keyed by label, as a slot vector."""
        _require(sorted(obj) == sorted(self.labels), f"{obj.path[:-1]}: keys {sorted(obj)}")
        return [obj.rational(label) for label in self.labels]


def _dot(a: list[Fraction], b: list[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _feasible_test(spec: _Spec, report: _Fields, alpha: Fraction) -> tuple[list, Fraction]:
    """The reported test as a vector, after checking its range and level."""
    x = spec.vector(report.obj("test"))
    _require(all(0 <= xk <= 1 for xk in x), "test: a value lies outside [0, 1]")
    attained = report.rational("attained_level")
    level = max(_dot(p, x) for p in spec.p)
    _require(level == attained, f"attained_level: test reaches {level}, report says {attained}")
    _require(attained <= alpha, f"attained_level {attained} exceeds alpha {alpha}")
    return x, attained


def _tau_pc(spec: _Spec, report: _Fields) -> list[Fraction]:
    """The atom masses of the ``p_weights`` mixture of the null members."""
    pw = report.rationals("p_weights")
    _require(len(pw) == len(spec.p), "p_weights: one weight per null member expected")
    _require(min(pw) >= 0 and sum(pw) == 1, f"p_weights: {pw} is not a probability vector")
    return [_dot(pw, col) for col in zip(*spec.p)][: len(spec.atoms)]


def _np_value(p: list[Fraction], q: list[Fraction], alpha: Fraction) -> Fraction:
    """max E_q[y] over y in [0, 1] with E_p[y] <= alpha: fill y down the ratio q/p."""
    power, budget = Fraction(0), alpha
    for _, pk, qk in sorted((pk / qk, pk, qk) for pk, qk in zip(p, q) if qk):
        take = min(1, budget / pk) if pk else 1
        power, budget = power + take * qk, budget - take * pk
    return power


def _classify(labels: list, x: list, p: list, q: list, kappa: Fraction) -> tuple[dict, dict, int]:
    """The cut kappa on q/p: each atom's class, the test on the boundary, and the violations."""
    classes, boundary, broken = {}, {}, 0
    for label, xk, pk, qk in zip(labels, x, p, q):
        if pk == qk == 0:
            classes[label] = "base_null"
        elif qk > kappa * pk:
            classes[label], broken = "strict_accept", broken + (xk != 1)
        elif qk < kappa * pk:
            classes[label], broken = "strict_reject", broken + (xk != 0)
        else:
            classes[label], boundary[label] = "boundary", xk
    return classes, boundary, broken


def _fitting_cut(x: list, p: list, q: list) -> "Fraction | None":
    """A cut on q/p with no violation, or None: 0, each finite ratio, the midpoints, one above.

    Between two consecutive candidates every atom keeps its class, so these
    are all the cuts there are.
    """
    ratios = sorted({qk / pk for pk, qk in zip(p, q) if pk})
    cuts = [Fraction(0), *ratios, *[(a + b) / 2 for a, b in zip(ratios, ratios[1:])]]
    for cut in cuts + [ratios[-1] + 1 if ratios else Fraction(1)]:
        if _classify(range(len(x)), x, p, q, cut)[2] == 0:
            return cut
    return None


def _check_representation(
    spec: _Spec, report: _Fields, x: list, q_alpha: list, alpha: Fraction, attained: Fraction
) -> None:
    """Accept the ``representation`` object of a ``solve`` report, and its ``lambda``."""
    n = len(spec.atoms)
    lam = 1 - sum(q_alpha[n:])
    _require(report.rational("lambda") == lam, f"lambda: q_alpha has countable mass {lam}")
    rep = report.obj("representation")
    if lam == 0:
        form = "none"
    elif attained < alpha:
        form = "degenerate"
    else:
        tau_pc = _tau_pc(spec, report)
        form = "threshold" if any(tau_pc) else "none"
    _require(rep["form"] == form, f"representation.form {rep['form']}, the masses say {form}")
    if form == "none":
        return
    if form == "degenerate":
        # The form asks x = 1 wherever lam_qc has mass.
        for label, xk, qk in zip(spec.atoms, x, q_alpha):
            _require(xk == 1 or qk == 0, f"representation: test is {xk} on lam_qc's atom {label}")
        _require(rep["verdict"] is True, "representation.verdict: the form holds")
        _require(rep.array("violations") == [], "representation.violations: the form holds")
        return
    tau = sum(tau_pc)
    _require(rep.rational("tau") == tau, f"representation.tau: tau_pc has mass {tau}")
    kappa = rep.rational("kappa")
    _require(kappa >= 0, f"representation.kappa {kappa} is negative")
    classes, boundary, broken = _classify(spec.atoms, x, tau_pc, q_alpha, kappa)
    _require(rep["classification"] == classes, f"representation.classification: not {classes}")
    reported = rep.obj("b_values")
    b_values = {label: reported.rational(label) for label in reported}
    _require(b_values == boundary, f"representation.b_values: the test gives {boundary}")
    broken_ok = len(rep.array("violations")) == broken
    _require(broken_ok, f"representation.violations: kappa gives {broken}")
    _require(rep["verdict"] == (broken == 0), f"representation.verdict: {broken} violations")
    if broken:
        cut = _fitting_cut(x, tau_pc, q_alpha)
        _require(cut is None, f"representation.verdict: false, but the cut {cut} fits the test")
    # kappa_formula is the least u >= 0 with lam_qc{u q >= p} >= gamma_c,
    # for p, q the masses of tau_pc, lam_qc: walk the ratios p/q up from 0.
    gamma_c, formula, mass = report.rational("gamma_c"), Fraction(0), Fraction(0)
    for ratio, qk in sorted((pk / qk, qk) for pk, qk in zip(tau_pc, q_alpha) if qk):
        if mass >= gamma_c:
            break
        formula, mass = ratio, mass + qk
    _require(
        mass >= gamma_c and rep.rational("kappa_formula") == formula,
        f"representation.kappa_formula: the masses and gamma_c give {formula}",
    )
    level_c = rep.rational("level_c")
    _require(
        rep["precondition_grid"] is (level_c == alpha),
        f"representation.precondition_grid: level_c is {level_c}, alpha {alpha}",
    )


def _check_countable(
    spec: _Spec, report: _Fields, x: list, q_alpha: list, v: list, w: list, alpha: Fraction
) -> None:
    """Accept ``gamma_c``, ``p_weights`` and ``level_c`` once the certificate has passed."""
    n = len(spec.atoms)
    lam_qc, gamma_c = q_alpha[:n], report.rational("gamma_c")
    if not any(lam_qc):
        _require(gamma_c == 0, f"gamma_c: lam is 0, so gamma_c is 0, not {gamma_c}")
        return
    # The test is feasible, and (v, w without its tail entry) is dual
    # feasible for the countable program, with objective value - w_tail.
    low, high = _dot(lam_qc, x), report.rational("value") - sum(w[n:])
    _require(low <= gamma_c <= high, f"gamma_c: {gamma_c} lies outside [{low}, {high}]")
    best = _np_value(_tau_pc(spec, report), lam_qc, alpha)
    _require(
        gamma_c == best,
        f"gamma_c: {gamma_c}, but the p_weights mixture and lam_qc have Neyman-Pearson value {best}",
    )
    rep = report.obj("representation")
    if low == high and any(v) and rep["form"] == "threshold":
        level_c = rep.rational("level_c")
        _require(
            level_c == alpha,
            f"representation.level_c: {level_c}, but (v, w) certify gamma_c, so it is {alpha}",
        )


def _check_masses(
    spec: _Spec, report: _Fields, q_alpha: list, alpha: Fraction, attained: Fraction
) -> None:
    """Accept ``beta``, ``beta_criterion_matches_case`` and ``hypotheses``."""
    n = len(spec.atoms)
    if not any(q_alpha[:n]):
        _require(report["beta"] is None, "beta: lam is 0, so beta is null")
        _require(
            report["beta_criterion_matches_case"] is None,
            "beta_criterion_matches_case: lam is 0, so it is null",
        )
    else:
        # The atoms outside supp lam_qc, and the tail.
        unseen = [not qk for qk in q_alpha[:n]] + [True] * (len(spec.labels) - n)
        beta = min(sum(pk for pk, s in zip(p, unseen) if s) for p in spec.p)
        _require(report.rational("beta") == beta, f"beta: the masses give {beta}")
        matches = (attained < alpha) == (beta > 1 - alpha)
        _require(
            report["beta_criterion_matches_case"] is matches,
            f"beta_criterion_matches_case: beta {beta} and the attained level give {matches}",
        )
    p_tail, q_tail = (max(sum(c[n:]) for c in family) for family in (spec.p, spec.q))
    flags = {
        "h1": p_tail == 0 or q_tail == 0,
        "h3": p_tail < 1 and q_tail < 1,
        "continuity_p": p_tail == 0,
        "continuity_q": q_tail == 0,
    }
    hyp = report.obj("hypotheses")
    for key, flag in flags.items():
        _require(hyp[key] is flag, f"hypotheses.{key}: tail masses {p_tail}, {q_tail} give {flag}")
    false = sorted(key for key, flag in flags.items() if not flag)
    witnesses = sorted(hyp.obj("witnesses"))
    _require(witnesses == false, f"hypotheses.witnesses: keys {witnesses}, false flags {false}")


def check_solve(spec_data: dict, report: dict) -> None:
    """Accept a ``solve`` report or raise :class:`ReportRejected`."""
    spec, report = _Spec(spec_data), _Fields(report)
    problem = report.obj("problem")
    _require(
        (problem["atoms"], problem["has_tail"], problem["p_members"], problem["q_members"])
        == (spec.atoms, spec.has_tail, len(spec.p), len(spec.q)),
        "problem: does not describe the spec",
    )
    alpha = problem.rational("alpha")
    _require(0 < alpha < 1, f"problem.alpha {alpha} is not in (0, 1)")
    x, attained = _feasible_test(spec, report, alpha)
    q_alpha = spec.vector(report.obj("q_alpha"))
    _check_representation(spec, report, x, q_alpha, alpha, attained)
    value = report.rational("value")
    power = min(_dot(q, x) for q in spec.q)
    _require(power == value, f"value: test's worst-case power is {power}, report says {value}")

    cert = report.obj("certificate")
    u = report.rationals("q_weights")
    v = cert.rationals("level_duals")
    w = spec.vector(cert.obj("box_duals"))
    _require(len(u) == len(spec.q), "q_weights: one weight per alternative member expected")
    _require(len(v) == len(spec.p), "level_duals: one dual per null member expected")
    _require(min(u) >= 0 and sum(u) == 1, f"q_weights: {u} is not a probability vector")
    _require(min(v) >= 0 and min(w) >= 0, "certificate: a negative dual")
    mixture = [_dot(u, col) for col in zip(*spec.q)]
    _require(q_alpha == mixture, "q_alpha: not the u-mixture")
    bound = [_dot(v, col) + wk for col, wk in zip(zip(*spec.p), w)]
    for label, lhs, rhs in zip(spec.labels, mixture, bound):
        _require(lhs <= rhs, f"certificate: dual infeasible at {label}: {lhs} > {rhs}")
    dual = alpha * sum(v) + sum(w)
    _require(dual == value, f"certificate: dual bound {dual} differs from value {value}")

    if any(v):
        least = alpha
    else:
        support = [any(q[k] for q in spec.q) for k in range(len(spec.labels))]
        least = max(sum(pk for pk, s in zip(p, support) if s) for p in spec.p)
    _require(attained == least, f"attained_level {attained}, the duals prove {least}")
    case = "LevelSlack" if attained < alpha else "LevelAttained"
    _require(report["case"] == case, f"case {report['case']}, the levels say {case}")
    _check_masses(spec, report, q_alpha, alpha, attained)
    _check_countable(spec, report, x, q_alpha, v, w, alpha)


def check_np(spec_data: dict, report: dict, alpha: "Fraction | None" = None) -> None:
    """Accept an ``np`` report or raise :class:`ReportRejected`.

    ``alpha`` is the spec's unless given, as it is under ``np --alpha``.
    """
    spec, report = _Spec(spec_data), _Fields(report)
    _require(len(spec.p) == len(spec.q) == 1, "spec: np needs one charge per family")
    (p,), (q,) = spec.p, spec.q
    alpha = spec.alpha if alpha is None else Fraction(alpha)
    x, attained = _feasible_test(spec, report, alpha)
    power = report.rational("power")
    _require(_dot(q, x) == power, f"power: test reaches {_dot(q, x)}, report says {power}")
    _require(report["level_slack"] == (attained < alpha), "level_slack: disagrees with level")
    kappa = report.rational("kappa")
    _require(kappa >= 0, f"kappa {kappa} is negative")
    dual = kappa * alpha + sum(max(qk - kappa * pk, 0) for pk, qk in zip(p, q))
    _require(dual == power, f"power {power} is not the bound {dual} that kappa proves")
    b = report.rational("b")
    # The test on the atoms with p > 0 and q = kappa p, or 0 when there are none.
    on_cut = {xk for xk, pk, qk in zip(x, p, q) if pk and qk == kappa * pk} or {Fraction(0)}
    _require(on_cut == {b}, f"b: {b}, but the test's boundary values are {sorted(map(str, on_cut))}")


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: _report_checker.py SPEC REPORT", file=sys.stderr)
        return 2
    try:
        spec, report = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        is_np = isinstance(report, dict) and "kappa" in report
        (check_np if is_np else check_solve)(spec, report)
    except ReportRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
