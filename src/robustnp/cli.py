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

The key "tail" inside a charge holds its tail mass and is therefore
reserved as an atom label. Floats are rejected: exactness is the point.

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
from dataclasses import asdict
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


def parse_problem(data, alpha_override: "Fraction | None" = None) -> TestProblem:
    if not isinstance(data, dict):
        raise ValueError("top level: expected a JSON object")
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
    alpha = (
        alpha_override
        if alpha_override is not None
        else _parse_rational(data["alpha"], "alpha")
    )
    return TestProblem(
        space,
        SublinearExpectation(p_members, "null"),
        SublinearExpectation(q_members, "alternative"),
        alpha,
    )


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
        exact = str(v)
    except ValueError:  # str refuses ints past sys.get_int_max_str_digits()
        raise ValueError(
            f"a reported value is a fraction too long to print ({_digits(abs(n))} digits "
            f"over {_digits(d)}); rerun with PYTHONINTMAXSTRDIGITS=0"
        ) from None
    try:
        f = float(v)
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


def _representation_obj(prob: TestProblem, sol, beta: "Fraction | None") -> dict:
    if sol.case is Case.LEVEL_SLACK and sol.lam > 0:
        # The certificate proves this form (see verify_threshold_form).
        return {
            "form": "degenerate",
            "verdict": True,
            "lambda": _rat(sol.lam),
            "gamma_consistent": True,
            "violations": [],
        }
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
        "lambda": _rat(sol.lam),
        "classification": rep.classification,
        "b_values": {a: _rat(v) for a, v in rep.b_values.items()},
        "violations": list(rep.violations),
        # A threshold form has lam > 0, so cmd_solve has computed beta.
        "precondition_support": beta <= 1 - prob.alpha,
        "precondition_grid": rep.precondition_grid,
        "level_c": _rat(sol.level_c),
    }


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
    if json_out:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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


def cmd_solve(args) -> int:
    prob = load_problem(args.spec, _parse_alpha_flag(args.alpha))
    # solve_minimax has already checked the certificate, case split included.
    sol = solve_minimax(prob)
    beta = None
    criterion = None
    if sol.lam > 0:
        beta = compute_beta(prob.p_family, sol.q_alpha.atom_part())
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
        "representation": _representation_obj(prob, sol, beta),
        "hypotheses": asdict(hypothesis_report(prob)),
        "certificate": {
            "level_duals": [_rat(vi) for vi in sol.certificate.level_duals],
            "box_duals": _slot_obj(prob.space, sol.certificate.box_duals),
        },
    }
    print(
        f"problem: {len(prob.space.atoms)} atoms"
        + (" + tail" if prob.space.has_tail else "")
        + f", |P|={len(prob.p_family)}, |Q|={len(prob.q_family)}, alpha={prob.alpha}"
    )
    print(f"value: {sol.gamma_alpha} ({report['value']['decimal']})")
    print(f"case: {sol.case.value}   attained level: {sol.attained_level}")
    print("test:")
    for a, v in zip(prob.space.atoms, sol.x_alpha.atom_value):
        print(f"  {a} = {v}")
    if prob.space.has_tail:
        print(f"  tail = {sol.x_alpha.tail_value}")
    print(f"q_weights: {', '.join(str(wt) for wt in sol.q_weights)}")
    print(f"lambda: {sol.lam}   gamma_c: {sol.gamma_c}")
    if beta is not None:
        print(f"beta: {beta}   criterion matches case: {criterion}")
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
    _emit(report, args.json_out)
    return EXIT_OK


def cmd_np(args) -> int:
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
    print(f"kappa: {res.kappa}   b: {res.b}")
    print("test:")
    for a, v in zip(prob.space.atoms, res.test.atom_value):
        print(f"  {a} = {v}")
    print(f"attained level: {res.attained_level} (slack: {res.level_slack})")
    print(f"power: {res.power} ({report['power']['decimal']})")
    _emit(report, args.json_out)
    return EXIT_OK


def _parse_sizes(raw: str) -> list[int]:
    raw = raw.strip()
    try:
        if ":" in raw:
            lo_s, hi_s = raw.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            sizes = list(range(lo, hi + 1))
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
    if any(n < 1 for n in sizes):
        raise ValueError(f"--sizes: sizes must be at least 1, got {sizes}")
    return sizes


def cmd_sweep(args) -> int:
    if args.generator != "nonexistence":
        raise ValueError(
            f"unknown generator {args.generator!r}; available: ['nonexistence']"
        )
    alpha = _parse_alpha_flag(args.alpha) or Fraction(1, 2)
    sizes = _parse_sizes(args.sizes)
    rows = truncation_sweep(partial(nonexistence_problem, alpha=alpha), sizes)
    monotone = all(b > a for (_, a), (_, b) in zip(rows, rows[1:]))
    if not monotone:
        print("warning: sweep values are not strictly increasing", file=sys.stderr)
    report = {
        "generator": args.generator,
        "alpha": _rat(alpha),
        "rows": [{"size": n, "value": _rat(v)} for n, v in rows],
        "strictly_increasing": monotone,
    }
    print(f"generator: {args.generator}   alpha: {alpha}")
    for row in report["rows"]:
        print(f"  N={row['size']}: {row['value']['exact']} ({row['value']['decimal']})")
    _emit(report, args.json_out)
    return EXIT_OK


def cmd_check(args) -> int:
    prob = load_problem(args.spec)
    report = asdict(hypothesis_report(prob))
    print(f"h1: {report['h1']}")
    print(f"h3: {report['h3']}")
    print(f"continuity: P={report['continuity_p']} Q={report['continuity_q']}")
    for key, text in report["witnesses"].items():
        print(f"witness[{key}]: {text}")
    _emit(report, args.json_out)
    return EXIT_OK


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
    p_sweep = sub.add_parser("sweep", help="solve a generated family over sizes")
    p_sweep.add_argument("generator", help="one of ['nonexistence']")
    p_sweep.add_argument("--sizes", required=True, help="'lo:hi' or comma separated")
    p_sweep.add_argument("--alpha", help="level for the generated problems")
    p_sweep.add_argument("--json", dest="json_out", metavar="OUT")
    common(sub.add_parser("check", help="run hypothesis checks only"), alpha=False)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"solve": cmd_solve, "np": cmd_np, "sweep": cmd_sweep, "check": cmd_check}
    try:
        return handlers[args.command](args)
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
