"""Command line front end: load problems, run the pipeline, emit reports.

Problem files are JSON with exact rationals as "num/den" strings:

    {
      "description": "optional free text",
      "atoms": ["w1", "w2"],
      "has_tail": false,
      "p_family": [{"w1": "1/2", "w2": "1/2"}],
      "q_family": [{"w2": "1"}],
      "alpha": "1/3"
    }

Any other top-level key is refused. The key "tail" inside a charge holds
its tail mass and is therefore reserved as an atom label. Floats are
rejected: exactness is the point.

Exit codes: 0 success, 2 input problem or unwritable --json path, 3
internal failure (certificate or solver).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import replace
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from .charge_model import (
    TAIL_LABEL,
    Charge,
    SampleSpace,
    SublinearExpectation,
    _digits,
    _show,
    frac,
)
from .hypotheses import hypothesis_report, nonexistence_problem, truncation_sweep
from .minimax import (
    Case,
    CertificateError,
    PureLeastFavorableError,
    TestProblem,
    compute_beta,
    solve_minimax,
    verify_threshold_form,
)
from .neyman_pearson import np_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERTIFICATE = 3


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
        charge = Charge.from_mapping(space, masses, tail)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not charge.is_probability:
        raise ValueError(f"{where}: masses sum to {_show(charge.total)}, expected 1")
    return charge


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


def load_problem(path: str, alpha_override: "Fraction | None" = None) -> TestProblem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:
        # An integer literal past the int-to-str digit limit, for one.
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    return parse_problem(data, alpha_override)


def _rat(v: Fraction) -> dict:
    n, d = v.as_integer_ratio()
    try:
        exact = str(n) if d == 1 else f"{n}/{d}"  # str(v)
    except ValueError:  # str refuses ints past sys.get_int_max_str_digits()
        raise ValueError(
            f"a reported value is a fraction too long to print ({_digits(abs(n))} digits "
            f"over {_digits(d)}); rerun with PYTHONINTMAXSTRDIGITS=0"
        ) from None
    try:
        f = n / d  # float(v), correctly rounded
    except OverflowError:
        f = math.inf
    if v and not sys.float_info.min <= abs(f) < math.inf:
        # Past float's range, or below its normal range, where a float
        # loses digits or reads 0.0: 17 significant digits, no float.
        ctx = Context(prec=17, Emax=MAX_EMAX, Emin=MIN_EMIN)
        approx = format(ctx.normalize(ctx.divide(Decimal(n), Decimal(d))), "e")
    else:
        approx = str(f)
    return {"exact": exact, "decimal": approx}


def _slot_obj(space: SampleSpace, values: "list[Fraction]") -> dict:
    """Per-slot values (a test's or a charge's) keyed by atom label, then "tail"."""
    labels = list(space.atoms) + ([TAIL_LABEL] if space.has_tail else [])
    return {a: _rat(v) for a, v in zip(labels, values)}


def _representation_obj(prob: TestProblem, sol) -> dict:
    if sol.case is Case.LEVEL_SLACK and sol.lam > 0:
        # The certificate proves this form (see verify_threshold_form).
        return {"form": "degenerate", "verdict": True, "violations": []}
    try:
        rep = verify_threshold_form(prob, sol)
    except PureLeastFavorableError as exc:
        return {"form": "none", "reason": str(exc)}
    return {
        "form": "threshold",
        "verdict": rep.verdict,
        "kappa": _rat(rep.kappa),
        "kappa_formula": _rat(rep.kappa_formula),
        "tau": _rat(rep.tau),
        "classification": rep.classification,
        "b_values": {a: _rat(v) for a, v in rep.b_values.items()},
        "violations": list(rep.violations),
        "precondition_grid": rep.precondition_grid,
        "level_c": _rat(sol.level_c),
    }


def _hypotheses_obj(prob: TestProblem) -> dict:
    r = hypothesis_report(prob)  # its fields, with a shallow copy of witnesses
    return {"h1": r.h1, "h3": r.h3, "continuity_p": r.continuity_p,
            "continuity_q": r.continuity_q, "witnesses": dict(r.witnesses)}


def _write_over(path: str, text: str) -> None:
    """Write ``text`` to ``path`` over the old bytes, then cut the file to length.

    Opening with O_TRUNC empties an existing file first, and ext4 (with its
    default ``auto_da_alloc``) then writes the new data to disk when the
    file is closed: tens of ms per report on a VM disk, ten times the cost
    of a small solve, and as unsteady as the disk. Overwriting in place and
    truncating to the new length last leaves the data to the kernel's
    background writeback. Pipes and devices are not truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as f:
        f.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def _emit(report: dict, json_out: "str | None") -> None:
    if json_out is not None:
        # One line: without indent, json.dumps runs its C encoder.
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            _write_over(json_out, text)
        except OSError as exc:
            raise ValueError(f"--json {json_out}: {exc}") from None


def _parse_alpha_flag(raw: "str | None") -> "Fraction | None":
    if raw is None:
        return None
    alpha = _parse_rational(raw, "--alpha")
    if not (0 < alpha < 1):
        raise ValueError(f"--alpha: must lie strictly between 0 and 1, got {alpha}")
    return alpha


def _print_test(test: dict) -> None:
    print("test:")
    for label, v in test.items():
        print(f"  {label} = {v['exact']}")


def cmd_solve(args) -> dict:
    prob = load_problem(args.spec, _parse_alpha_flag(args.alpha))
    # solve_minimax has already checked the certificate, case split included.
    sol = solve_minimax(prob)
    beta = criterion = None
    if sol.lam > 0:
        beta = compute_beta(prob.p_family, sol.q_alpha)
        criterion = (sol.case is Case.LEVEL_SLACK) == (beta > 1 - prob.alpha)
    report = {
        "problem": {
            "atoms": list(prob.space.atoms),
            "has_tail": prob.space.has_tail,
            "alpha": _rat(prob.alpha),
            "p_members": len(prob.p_family),
            "q_members": len(prob.q_family),
        },
        "value": _rat(sol.gamma_alpha),
        "attained_level": _rat(sol.attained_level),
        "case": sol.case.value,
        "test": _slot_obj(prob.space, sol.x_alpha.slot_values()),
        "q_weights": [_rat(wt) for wt in sol.q_weights],
        "q_alpha": _slot_obj(prob.space, sol.q_alpha.slot_masses()),
        "lambda": _rat(sol.lam),
        "gamma_c": _rat(sol.gamma_c),
        "p_weights": None if sol.p_weights is None else [_rat(wt) for wt in sol.p_weights],
        "beta": None if beta is None else _rat(beta),
        "beta_criterion_matches_case": criterion,
        "representation": _representation_obj(prob, sol),
        "hypotheses": _hypotheses_obj(prob),
        "certificate": {
            "level_duals": [_rat(vi) for vi in sol.certificate.level_duals],
            "box_duals": _slot_obj(prob.space, sol.certificate.box_duals),
        },
    }
    # Every line below is read off the report, so stdout and --json agree.
    pb, value = report["problem"], report["value"]
    print(
        f"problem: {len(pb['atoms'])} atoms" + (" + tail" if pb["has_tail"] else "")
        + f", |P|={pb['p_members']}, |Q|={pb['q_members']}, alpha={pb['alpha']['exact']}"
    )
    print(f"value: {value['exact']} ({value['decimal']})")
    print(f"case: {report['case']}   attained level: {report['attained_level']['exact']}")
    _print_test(report["test"])
    print(f"q_weights: {', '.join(wt['exact'] for wt in report['q_weights'])}")
    print(f"lambda: {report['lambda']['exact']}   gamma_c: {report['gamma_c']['exact']}")
    if report["beta"] is not None:
        matches = report["beta_criterion_matches_case"]
        print(f"beta: {report['beta']['exact']}   criterion matches case: {matches}")
    rep = report["representation"]
    if rep["form"] == "none":
        print(f"representation: none ({rep['reason']})")
    else:
        extra = f" kappa={rep['kappa']['exact']}" if rep["form"] == "threshold" else ""
        print(f"representation: {rep['form']} verdict={rep['verdict']}{extra}")
    hyp = report["hypotheses"]
    print(
        f"hypotheses: h1={hyp['h1']} h3={hyp['h3']} "
        f"continuity=({hyp['continuity_p']}, {hyp['continuity_q']})"
    )
    print("certificate: verified (duality gap 0)")
    return report


def cmd_np(args) -> dict:
    prob = load_problem(args.spec, _parse_alpha_flag(args.alpha))
    if len(prob.p_family) != 1 or len(prob.q_family) != 1:
        raise ValueError(
            "the np command needs exactly one charge per family, got "
            f"{len(prob.p_family)} and {len(prob.q_family)}"
        )
    p = prob.p_family.family[0]
    q = prob.q_family.family[0]
    res = np_test(p, q, prob.alpha)
    report = {
        "kappa": _rat(res.kappa),
        "b": _rat(res.b),
        "test": _slot_obj(prob.space, res.test.slot_values()),
        "attained_level": _rat(res.attained_level),
        "power": _rat(res.power),
        "level_slack": res.level_slack,
    }
    level, power = report["attained_level"], report["power"]
    print(f"kappa: {report['kappa']['exact']}   b: {report['b']['exact']}")
    _print_test(report["test"])
    print(f"attained level: {level['exact']} (slack: {report['level_slack']})")
    print(f"power: {power['exact']} ({power['decimal']})")
    return report


def _parse_sizes(raw: str) -> "range | list[int]":
    raw = raw.strip()
    try:
        if ":" in raw:
            lo_s, hi_s = raw.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            sizes = range(lo, hi + 1)  # checked on its ends, never listed
        else:
            sizes = [int(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise ValueError(
            f"--sizes: expected 'lo:hi' or comma separated integers, got {raw!r}"
        ) from None
    if ":" in raw and lo > hi:
        raise ValueError(f"--sizes: empty range {raw!r}")
    if not sizes:
        raise ValueError("--sizes: no sizes given")
    if (lo if ":" in raw else min(sizes)) < 1:
        raise ValueError(f"--sizes: sizes must be at least 1, got {raw!r}")
    return sizes


def cmd_sweep(args) -> dict:
    alpha = _parse_alpha_flag(args.alpha) or Fraction(1, 2)
    sizes = _parse_sizes(args.sizes)
    rows = truncation_sweep(partial(nonexistence_problem, alpha=alpha), sizes)
    monotone = all(b > a for (_, a), (_, b) in zip(rows, rows[1:]))
    if not monotone:
        print("warning: sweep values are not strictly increasing", file=sys.stderr)
    report = {
        "alpha": _rat(alpha),
        "rows": [{"size": n, "value": _rat(v)} for n, v in rows],
        "strictly_increasing": monotone,
    }
    print(f"alpha: {report['alpha']['exact']}")
    for row in report["rows"]:
        print(f"  N={row['size']}: {row['value']['exact']} ({row['value']['decimal']})")
    return report


def cmd_check(args) -> dict:
    prob = load_problem(args.spec)
    report = _hypotheses_obj(prob)
    print(f"h1: {report['h1']}")
    print(f"h3: {report['h3']}")
    print(f"continuity: P={report['continuity_p']} Q={report['continuity_q']}")
    for key, text in report["witnesses"].items():
        print(f"witness[{key}]: {text}")
    return report


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="robustnp",
        description="Exact worst-case tests between families of charges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=True):
        p.add_argument("spec", help="path to a problem JSON file")
        p.add_argument("--json", dest="json_out", metavar="OUT", help="write a JSON report")
        if alpha:
            p.add_argument("--alpha", help="override the level, e.g. 1/3")

    common(sub.add_parser("solve", help="solve the worst-case testing problem"))
    common(sub.add_parser("np", help="classical single-pair test"))
    p_sweep = sub.add_parser("sweep", help="solve nonexistence_problem(n) over sizes n")
    p_sweep.add_argument("--sizes", required=True, help="'lo:hi' or comma separated")
    p_sweep.add_argument("--alpha", help="level for the generated problems")
    p_sweep.add_argument("--json", dest="json_out", metavar="OUT")
    common(sub.add_parser("check", help="run hypothesis checks only"), alpha=False)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"solve": cmd_solve, "np": cmd_np, "sweep": cmd_sweep, "check": cmd_check}
    try:
        _emit(handlers[args.command](args), args.json_out)
        return EXIT_OK
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
