"""Command line entry points, JSON reports, and exit codes."""

import ast
import copy
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import _report_checker as checker
import pytest
from _oracle import np_oracle

import robustnp
import robustnp.minimax
from robustnp.cli import (
    EXIT_CERTIFICATE,
    EXIT_INPUT,
    EXIT_OK,
    load_problem,
    main,
    parse_problem,
)

F = Fraction

FIXTURES = Path(robustnp.__file__).parent / "fixtures"


def run(argv):
    return main([str(a) for a in argv])


def write_spec(tmp_path, payload, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SMALL = {
    "atoms": ["a", "b"],
    "has_tail": False,
    "alpha": "1/2",
    "p_family": [{"a": "1/2", "b": "1/2"}],
    "q_family": [{"b": "1"}],
}


def test_solve_three_atom_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["solve", FIXTURES / "three_atom.json", "--json", out]) == EXIT_OK
    text = capsys.readouterr().out
    assert "value: 1 (1.0)" in text
    report = json.loads(out.read_text())
    assert report["value"] == {"exact": "1", "decimal": "1.0"}
    assert report["case"] == "LevelAttained"
    assert report["attained_level"]["exact"] == "1/2"
    assert {a: v["exact"] for a, v in report["test"].items()} == {
        "w1": "1",
        "w2": "1",
        "w3": "0",
    }
    assert report["lambda"]["exact"] == "1"
    assert report["beta"]["exact"] == "1/2"
    assert report["beta_criterion_matches_case"] is True
    rep = report["representation"]
    assert sorted(rep) == [
        "b_values", "classification", "form", "kappa", "kappa_formula",
        "level_c", "precondition_grid", "tau", "verdict", "violations",
    ]
    assert rep["form"] == "threshold"
    assert rep["verdict"] is True
    assert report["certificate"] == {
        "level_duals": [{"exact": "0", "decimal": "0.0"}],
        "box_duals": {
            "w1": {"exact": "3/4", "decimal": "0.75"},
            "w2": {"exact": "1/4", "decimal": "0.25"},
            "w3": {"exact": "0", "decimal": "0.0"},
        },
    }


def test_solve_dirac_degenerate(tmp_path):
    out = tmp_path / "report.json"
    assert run(["solve", FIXTURES / "dirac.json", "--json", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["case"] == "LevelSlack"
    assert report["attained_level"]["exact"] == "0"
    rep = report["representation"]
    # The keys it shares with the threshold form, and no copy of lambda.
    assert sorted(rep) == ["form", "verdict", "violations"]
    assert rep["form"] == "degenerate"
    assert rep["verdict"] is True
    assert rep["violations"] == []


def test_threshold_kappas_are_on_reciprocal_scales(tmp_path):
    # With p, q the masses of tau_pc, lam_qc: kappa cuts q/p (x = 1 where
    # q > kappa*p); kappa_formula is the least u with lam_qc{u*q >= p} >= gamma_c,
    # a cut on p/q.
    out = tmp_path / "report.json"
    assert run(["solve", FIXTURES / "intro_example.json", "--json", out]) == EXIT_OK
    rep = json.loads(out.read_text())["representation"]
    assert rep["form"] == "threshold" and rep["verdict"] is True
    # Which optimal null mixture the pivots reach decides the cut points;
    # on either scale they name the same cut.
    kappa, u = F(rep["kappa"]["exact"]), F(rep["kappa_formula"]["exact"])
    assert kappa * u == 1
    prob = load_problem(str(FIXTURES / "intro_example.json"))
    sol = robustnp.solve_minimax(prob)
    p_alpha = robustnp.mix(prob.p_family.family, sol.p_weights)
    lam_qc, tau_pc = sol.q_alpha.atom_part(), p_alpha.atom_part()
    sides = {1: "strict_accept", -1: "strict_reject", 0: "boundary"}
    masses = list(zip(tau_pc.atom_mass, lam_qc.atom_mass))
    for label, (p, q) in zip(prob.space.atoms, masses):
        assert rep["classification"][label] == sides[(q > kappa * p) - (q < kappa * p)]
    charged = [(p, q) for p, q in masses if q]

    def mass_cut_at(v):
        return sum((q for p, q in charged if v * q >= p), F(0))

    # u reaches gamma_c, and the step function is below it up to u.
    assert mass_cut_at(u) >= sol.gamma_c
    below = max(v for v in [F(0)] + [p / q for p, q in charged] if v < u)
    assert mass_cut_at(below) < sol.gamma_c


def test_solve_with_oracle_agrees(tmp_path):
    # The brute-force value, computed here, and the independent checker
    # agree with the report on the fixture and on seeded specs.
    specs = [FIXTURES / "three_atom.json"]
    for i, spec in enumerate(_seeded_specs(41, 8)):
        specs.append(write_spec(tmp_path, spec, f"s{i}.json"))
    out = tmp_path / "report.json"
    values = []
    for spec in specs:
        assert run(["solve", spec, "--json", out]) == EXIT_OK
        report = json.loads(out.read_text())
        oracle = robustnp.vertex_enumerate(load_problem(str(spec)))
        assert F(report["value"]["exact"]) == oracle.value, spec.name
        checker.check_solve(json.loads(spec.read_text()), report)
        values.append(report["value"]["exact"])
    assert values[0] == "1"


def test_alpha_override(tmp_path):
    out = tmp_path / "report.json"
    assert run(["solve", FIXTURES / "dirac.json", "--alpha", "9/10", "--json", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["problem"]["alpha"]["exact"] == "9/10"
    spec = json.loads((FIXTURES / "dirac.json").read_text())
    checker.check_solve(spec, report)
    assert run(["np", FIXTURES / "dirac.json", "--alpha", "9/10", "--json", out]) == EXIT_OK
    checker.check_np(spec, json.loads(out.read_text()), F(9, 10))
    for bad in ("0", "1", "3/2"):
        assert run(["solve", FIXTURES / "dirac.json", "--alpha", bad]) == EXIT_INPUT
    assert run(["solve", FIXTURES / "dirac.json", "--alpha=-1/4"]) == EXIT_INPUT


def test_alpha_out_of_range_in_the_spec_is_an_input_error(tmp_path, capsys):
    # TestProblem's own ValueError reaches main unwrapped, with its text.
    spec = write_spec(tmp_path, dict(SMALL, alpha="3/2"))
    for command in ("solve", "check"):
        assert run([command, spec]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha must lie strictly between 0 and 1, got 3/2\n"


def test_the_specs_alpha_is_checked_under_the_alpha_flag(tmp_path, capsys):
    # --alpha overrides the level, but a spec whose own alpha is malformed
    # still exits 2, with the message it gets without the flag.
    floats = "error: alpha: floats are not exact, write the rational as a 'num/den' string\n"
    out_of_range = "error: alpha must lie strictly between 0 and 1, got 7\n"
    for alpha, err in ((0.3, floats), ("7", out_of_range)):
        spec = write_spec(tmp_path, dict(SMALL, alpha=alpha))
        for command in ("solve", "np"):
            for flags in ([], ["--alpha", "1/3"]):
                assert run([command, spec, *flags]) == EXIT_INPUT, (alpha, command, flags)
                captured = capsys.readouterr()
                assert (captured.out, captured.err) == ("", err), (alpha, command, flags)


def test_unknown_top_level_key_is_an_input_error(tmp_path, capsys):
    # A misspelt "has_tail" must not be solved as a tail-free problem.
    expected = "atoms, has_tail, p_family, q_family, alpha, description"
    spec = write_spec(tmp_path, dict(SMALL, has_tial=True))
    for command in ("solve", "np", "check"):
        assert run([command, spec]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: top level: unknown key 'has_tial'; expected {expected}\n"
    with pytest.raises(ValueError, match="unknown key 'Alpha'"):
        parse_problem(dict(SMALL, Alpha="1/2"))
    # The optional keys are accepted.
    assert run(["solve", write_spec(tmp_path, dict(SMALL, description="text"))]) == EXIT_OK


def test_pure_tail_alternative_reports_no_representation(tmp_path, capsys):
    # All of Q's mass is on the tail, so lam = 0: the verifiers' own guard
    # supplies the reason, and there is no beta.
    payload = {
        "atoms": ["a", "b"],
        "has_tail": True,
        "p_family": [{"a": "1/2", "b": "1/2"}],
        "q_family": [{"tail": "1"}],
        "alpha": "1/3",
    }
    spec = write_spec(tmp_path, payload)
    out = tmp_path / "report.json"
    assert run(["solve", spec, "--json", out]) == EXIT_OK
    reason = "the least favorable alternative mixture has no countably additive part"
    assert f"representation: none ({reason})" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["representation"] == {"form": "none", "reason": reason}
    assert report["lambda"] == {"exact": "0", "decimal": "0.0"}
    assert report["beta"] is None
    checker.check_solve(payload, report)


def test_json_output_is_deterministic(tmp_path):
    # Every command writes one line with sorted keys and no whitespace.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    spec = write_spec(tmp_path, SMALL)
    for argv in (
        ["solve", spec],
        ["np", spec],
        ["sweep", "--sizes", "1:3"],
        ["check", spec],
    ):
        assert run([*argv, "--json", a]) == EXIT_OK
        assert run([*argv, "--json", b]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_json_report_replaces_a_longer_file(tmp_path):
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    spec = write_spec(tmp_path, SMALL)
    old.write_text("x" * 100000)
    assert run(["solve", spec, "--json", fresh]) == EXIT_OK
    assert run(["solve", spec, "--json", old]) == EXIT_OK
    assert old.read_bytes() == fresh.read_bytes()


def test_input_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["solve", missing]) == EXIT_INPUT
    capsys.readouterr()

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run(["solve", bad_json]) == EXIT_INPUT
    assert "line 1" in capsys.readouterr().err

    float_mass = dict(SMALL, p_family=[{"a": 0.5, "b": "1/2"}])
    assert run(["solve", write_spec(tmp_path, float_mass, "f.json")]) == EXIT_INPUT
    assert "floats are not exact" in capsys.readouterr().err

    short = dict(SMALL, p_family=[{"a": "1/3"}])
    assert run(["solve", write_spec(tmp_path, short, "s.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "sum to 1/3" in err

    unknown = dict(SMALL, q_family=[{"zz": "1"}])
    assert run(["solve", write_spec(tmp_path, unknown, "u.json")]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: q_family[0]: unknown atom labels: ['zz']\n"
    # The masses are parsed first, so a bad mass on an unknown label is named.
    unknown = dict(SMALL, q_family=[{"zz": 1.0}])
    assert run(["solve", write_spec(tmp_path, unknown, "u.json")]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: q_family[0]['zz']: floats")

    no_alpha = {k: v for k, v in SMALL.items() if k != "alpha"}
    assert run(["solve", write_spec(tmp_path, no_alpha, "n.json")]) == EXIT_INPUT
    assert "alpha" in capsys.readouterr().err

    empty_family = dict(SMALL, q_family=[])
    assert run(["solve", write_spec(tmp_path, empty_family, "e.json")]) == EXIT_INPUT
    capsys.readouterr()

    # --oracle is gone: the report's certificate vouches for the answer.
    with pytest.raises(SystemExit) as refused:
        run(["solve", write_spec(tmp_path, SMALL), "--oracle"])
    assert refused.value.code == EXIT_INPUT
    assert "unrecognized arguments: --oracle" in capsys.readouterr().err

    # Malformed files are input problems too: one error line naming the file.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"atoms": ["\xe9"]}')
    for path in (deep, not_utf8):
        assert run(["solve", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    # An integer literal past Python's 4300-digit conversion limit.
    huge = tmp_path / "huge.json"
    huge.write_text('{"alpha": ' + "1" * 5000 + "}")
    assert run(["solve", huge]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {huge}: ") and err.count("\n") == 1


def test_exponent_notation_is_an_input_error(tmp_path, capsys):
    # Fraction reads "1e-5000" as a 5000-digit denominator, which then
    # broke the report; the spec format has no exponents, so each spot
    # refuses one and names itself.
    tiny = write_spec(tmp_path, dict(SMALL, p_family=[{"a": "1e-5000", "b": "1"}]), "m.json")
    alpha = write_spec(tmp_path, dict(SMALL, alpha="1e-5000"), "a.json")
    cases = [
        (["solve", tiny], "p_family[0]['a']: "),
        (["solve", alpha], "alpha: "),
        (["check", alpha], "alpha: "),
        (["solve", write_spec(tmp_path, SMALL), "--alpha", "1e-5000"], "--alpha: "),
    ]
    for argv, where in cases:
        assert run(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: {where}refusing exponent notation in '1e-5000'; write 'num/den'\n"


def test_mass_sum_too_long_to_print_is_an_input_error(tmp_path, capsys):
    # Each mass prints, but their sum's denominator has 5001 digits, past
    # the int-to-str limit: the message still names the charge.
    n = 10**2500
    spec = write_spec(
        tmp_path, dict(SMALL, p_family=[{"a": f"1/{n + 1}", "b": f"1/{n + 3}"}])
    )
    for command in ("solve", "check"):
        assert run([command, spec]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: p_family[0]: masses sum to a fraction too long to print "
            "(2501 digits over 5001), expected 1\n"
        )


def test_decimal_past_float_range_is_read_off_the_integers(tmp_path):
    # kappa near 10^400 is past float's range, so float() overflows; the
    # decimal rendering is computed from the exact integers instead.
    t = 10**400
    spec = {
        "atoms": ["a", "b"],
        "p_family": [{"a": f"1/{t}", "b": f"{t - 1}/{t}"}],
        "q_family": [{"a": "1/2", "b": "1/2"}],
    }
    # solve's scan cuts midway between the ratios q/p of a and b; np cuts
    # at a's ratio once alpha is below p_a.
    cases = [
        ("solve", F(1, t), (F(t, 2) + F(t, 2 * (t - 1))) / 2),
        ("np", F(1, 10 * t), F(t, 2)),
    ]
    for command, alpha, kappa in cases:
        path = write_spec(tmp_path, dict(spec, alpha=str(alpha)), f"{command}.json")
        out = tmp_path / f"{command}_report.json"
        assert run([command, path, "--json", out]) == EXIT_OK
        report = json.loads(out.read_text())
        got = report["representation"]["kappa"] if command == "solve" else report["kappa"]
        assert F(got["exact"]) == kappa
        assert abs(F(got["decimal"]) - kappa) <= kappa / 10**16


def test_decimal_below_float_range_is_read_off_the_integers(tmp_path):
    # alpha = 10^-400 is below the smallest normal float, where float()
    # returns 0.0; the decimal rendering is computed from the integers.
    t = 10**400
    spec = {
        "atoms": ["a", "b"],
        "p_family": [{"a": f"1/{t}", "b": f"{t - 1}/{t}"}],
        "q_family": [{"a": "1/2", "b": "1/2"}],
        "alpha": f"1/{t}",
    }
    out = tmp_path / "report.json"
    assert run(["solve", write_spec(tmp_path, spec), "--json", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["problem"]["alpha"]["decimal"] == "1e-400"
    rep = report["representation"]
    assert (rep["level_c"]["decimal"], rep["kappa_formula"]["decimal"]) == ("1e-400", "2e-400")


def test_stdout_decimal_below_float_range_matches_the_report(tmp_path, capsys):
    # With P = Q the value and the power equal alpha = 10^-400, which float()
    # reads as 0.0; stdout must print the report's decimal, not the float.
    t = 10**400
    half = {"a": "1/2", "b": "1/2"}
    spec = {"atoms": ["a", "b"], "p_family": [half], "q_family": [half], "alpha": f"1/{t}"}
    path = write_spec(tmp_path, spec)
    for command, prefix in [("solve", "value: "), ("np", "power: ")]:
        assert run([command, path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith(prefix)] == [f"{prefix}1/{t} (1e-400)"]


def test_stdout_is_read_off_the_report(tmp_path, capsys):
    # solve and np print each number as their --json report writes it, and
    # the test block lists the report's test slot by slot, the tail included.
    tail_pair = {
        "atoms": ["a", "b"],
        "has_tail": True,
        "p_family": [{"a": "1/2", "b": "1/2"}],
        "q_family": [{"a": "1/4", "b": "3/4"}],
        "alpha": "1/3",
    }
    specs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    specs += [*_seeded_specs(1606, 40), tail_pair]
    tail_mass = "error: tail mass present; this construction needs countably additive charges\n"
    out, seen = tmp_path / "report.json", set()
    for spec in specs:
        # np takes one charge per family, the first of each, and refuses tail mass.
        pair = dict(spec, p_family=spec["p_family"][:1], q_family=spec["q_family"][:1])
        for command, payload in (("solve", spec), ("np", pair)):
            code = run([command, write_spec(tmp_path, payload), "--json", out])
            text, err = capsys.readouterr()
            if code == EXIT_INPUT and err == tail_mass:
                continue
            assert code == EXIT_OK, (command, payload, err)
            report = json.loads(out.read_text())
            # The report's keys are sorted; stdout lists the slots in order.
            slots = payload["atoms"] + (["tail"] if payload.get("has_tail") else [])
            block = re.search(r"^test:\n((?:  .*\n)*)", text, re.M).group(1)
            assert block.splitlines() == [f"  {a} = {report['test'][a]['exact']}" for a in slots]
            seen.add((command, "tail" in slots))
            value = report["value" if command == "solve" else "power"]
            if command == "solve":
                rep, weights = report["representation"], report["q_weights"]
                lines = [
                    f"value: {value['exact']} ({value['decimal']})",
                    f"q_weights: {', '.join(wt['exact'] for wt in weights)}",
                    f"lambda: {report['lambda']['exact']}   gamma_c: {report['gamma_c']['exact']}",
                ]
                if rep["form"] == "threshold":
                    lines.append(f"representation: threshold verdict={rep['verdict']} "
                                 f"kappa={rep['kappa']['exact']}")
            else:
                lines = [
                    f"kappa: {report['kappa']['exact']}   b: {report['b']['exact']}",
                    f"power: {value['exact']} ({value['decimal']})",
                ]
            assert set(lines) <= set(text.splitlines()), (command, spec)
    assert seen == {("solve", False), ("solve", True), ("np", False), ("np", True)}


def test_value_too_long_to_print_asks_for_the_digit_limit(tmp_path):
    # A valid spec whose value has a denominator past the int-to-str limit:
    # solve names the digit counts and the variable that lifts the limit,
    # and with that variable set it prints the answer.
    n1, n2, n3 = 10**2500 + 1, 3, 7
    p = [F(1, n1), F(1, n2)]
    q = [F(1, n3), F(1, n1)]
    p.append(1 - sum(p))
    q.append(1 - sum(q))
    spec = write_spec(
        tmp_path,
        {
            "atoms": ["a", "b", "c"],
            "alpha": "1/3",
            "p_family": [dict(zip("abc", map(str, p)))],
            "q_family": [dict(zip("abc", map(str, q)))],
        },
    )
    src = str(Path(robustnp.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "robustnp.cli", "solve", str(spec)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (EXIT_INPUT, "")
    assert done.stderr == (
        "error: a reported value is a fraction too long to print "
        "(5001 digits over 5002); rerun with PYTHONINTMAXSTRDIGITS=0\n"
    )
    env["PYTHONINTMAXSTRDIGITS"] = "0"
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("problem: 3 atoms")


def test_unwritable_json_path_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, SMALL)
    # An empty path is a path that cannot be written, not an absent flag.
    argvs = [["solve", spec, "--json", tmp_path]]
    for out in (tmp_path / "no_such_dir" / "out.json", ""):
        argvs += [
            ["solve", spec, "--json", out],
            ["np", spec, "--json", out],
            ["check", spec, "--json", out],
            ["sweep", "--sizes", "1:2", "--json", out],
        ]
    for argv in argvs:
        assert run(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --json ") and err.count("\n") == 1


def test_np_command(tmp_path, capsys):
    out = tmp_path / "np.json"
    spec = write_spec(tmp_path, SMALL)
    assert run(["np", spec, "--json", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["power"]["exact"] == "1"
    prob = load_problem(str(spec))
    p, q = prob.p_family.family[0], prob.q_family.family[0]
    assert F(report["power"]["exact"]) == np_oracle(p, q, prob.alpha).value
    checker.check_np(SMALL, report)
    capsys.readouterr()

    two_members = dict(SMALL, q_family=[{"b": "1"}, {"a": "1"}])
    assert run(["np", write_spec(tmp_path, two_members, "t.json")]) == EXIT_INPUT
    assert "exactly one" in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--sizes", "1:4", "--json", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert sorted(report) == ["alpha", "rows", "strictly_increasing"]
    values = [row["value"]["exact"] for row in report["rows"]]
    assert values == ["3/4", "7/8", "15/16", "31/32"]
    assert capsys.readouterr().out.startswith("alpha: 1/2\n  N=1: 3/4 (0.75)\n")

    assert run(["sweep", "--sizes", "2,5,9", "--alpha", "1/4"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "13/16" in text

    # A range is checked on its ends, so a huge one is refused at once.
    for sizes in ("0:2", "0:1000000000000"):
        assert run(["sweep", "--sizes", sizes]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: --sizes: sizes must be at least 1, got {sizes!r}\n"
    assert run(["sweep", "--sizes", "3:1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: --sizes: empty range '3:1'\n"
    # sweep takes no generator: the old positional form is a usage error.
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "nonexistence", "--sizes", "1:2"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: nonexistence\n" in capsys.readouterr().err


def test_check_command(tmp_path, capsys):
    spec = write_spec(tmp_path, SMALL)
    out = tmp_path / "check.json"
    assert run(["check", spec, "--json", out]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report == {
        "h1": True,
        "h3": True,
        "continuity_p": True,
        "continuity_q": True,
        "witnesses": {},
    }
    assert "h2" not in capsys.readouterr().out


def test_check_takes_no_alpha(capsys):
    # The hypotheses never read alpha, so check has no flag to override it.
    with pytest.raises(SystemExit) as refused:
        run(["check", FIXTURES / "dirac.json", "--alpha", "1/3"])
    assert refused.value.code == EXIT_INPUT
    assert "unrecognized arguments: --alpha 1/3" in capsys.readouterr().err


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_INPUT, EXIT_CERTIFICATE}) == 3
    assert EXIT_OK == 0


def test_bundled_fixtures_match_repo_copies():
    repo = Path(__file__).resolve().parent.parent / "fixtures"
    names = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert names == sorted(p.name for p in repo.glob("*.json"))
    assert names
    for name in names:
        assert (FIXTURES / name).read_bytes() == (repo / name).read_bytes()


def test_every_fixture_solves(tmp_path):
    for path in sorted(FIXTURES.glob("*.json")):
        out = tmp_path / (path.stem + ".json")
        assert run(["solve", path, "--json", out]) == EXIT_OK, path.name
        assert checker.main([str(path), str(out)]) == 0, path.name


def _seeded_specs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        atoms = [f"w{i}" for i in range(rng.randint(2, 4))]
        has_tail = rng.random() < 0.5
        slots = atoms + (["tail"] if has_tail else [])

        def member():
            raw = [rng.randint(0, 4) for _ in slots]
            if sum(raw) == 0:
                raw[0] = 1
            return {s: f"{v}/{sum(raw)}" for s, v in zip(slots, raw) if v}

        yield {
            "atoms": atoms,
            "has_tail": has_tail,
            "alpha": rng.choice(["1/4", "1/3", "1/2"]),
            "p_family": [member() for _ in range(rng.randint(1, 2))],
            "q_family": [member() for _ in range(rng.randint(1, 3))],
        }


NUDGE = F(1, 10**6)


def _reports(tmp_path, command, specs):
    """(spec, report) for each spec, run through ``robustnp COMMAND --json``."""
    out, done = tmp_path / "report.json", []
    for i, spec in enumerate(specs):
        assert run([command, write_spec(tmp_path, spec, f"{i}.json"), "--json", out]) == EXIT_OK
        done.append((spec, json.loads(out.read_text())))
    return done


@pytest.fixture(scope="module")
def solve_reports(tmp_path_factory):
    specs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    specs += _seeded_specs(2016, 200)
    return _reports(tmp_path_factory.mktemp("solve"), "solve", specs)


@pytest.fixture(scope="module")
def np_reports(tmp_path_factory):
    # The single-pair fixtures and seeded pairs, none with a tail.
    fixtures = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    pairs = [s for s in fixtures if len(s["p_family"]) == len(s["q_family"]) == 1]
    pairs += [
        dict(s, p_family=s["p_family"][:1], q_family=s["q_family"][:1])
        for s in _seeded_specs(2017, 150)
    ]
    pairs = [s for s in pairs if not s.get("has_tail")]
    return _reports(tmp_path_factory.mktemp("np"), "np", pairs)


def test_checker_accepts_every_report(solve_reports, np_reports):
    for spec, report in solve_reports:
        checker.check_solve(spec, report)
    for spec, report in np_reports:
        checker.check_np(spec, report)
    assert len(solve_reports) == 205 and len(np_reports) >= 40
    # Both kinds of least level and of np dual are exercised.
    assert {report["case"] for _, report in solve_reports} == {"LevelAttained", "LevelSlack"}
    assert {report["kappa"]["exact"] == "0" for _, report in np_reports} == {True, False}


def _rejects_each_nudge(check, spec, report, entries):
    """Move each entry by +NUDGE and, where positive, by -NUDGE; count rejections.

    ``entries`` holds (container, key, pattern): the rejection must match
    ``pattern``, so each check is seen to fire on its own.
    """
    rejected = 0
    for holder, key, pattern in entries:
        kept = holder[key]
        for delta in (NUDGE, -NUDGE) if F(kept["exact"]) > 0 else (NUDGE,):
            holder[key] = _exact(F(kept["exact"]) + delta)
            with pytest.raises(checker.ReportRejected, match=pattern):
                check(spec, report)
            rejected += 1
        holder[key] = kept
    check(spec, report)
    return rejected


def test_checker_rejects_nudged_solve_reports(solve_reports):
    rejected = countable = 0
    for spec, report in solve_reports:
        cert = report["certificate"]
        u, v, w = report["q_weights"], cert["level_duals"], cert["box_duals"]
        entries = [(report, "value", "^value: "), (report, "attained_level", "^attained_level: ")]
        entries += [(u, j, "^q_weights: ") for j in range(len(u))]
        entries += [(v, i, "^certificate: dual ") for i in range(len(v))]
        entries += [(w, label, "^certificate: dual ") for label in w]
        rep = report["representation"]
        if rep["form"] != "none":
            entries.append((report, "lambda", "^lambda: "))
        if rep["form"] == "threshold":
            entries.append((rep, "tau", "^representation.tau: "))
            entries.append((rep, "kappa_formula", "^representation.kappa_formula: "))
        if report["beta"] is not None:
            entries.append((report, "beta", "^beta: "))
        rejected += _rejects_each_nudge(checker.check_solve, spec, report, entries)
        rejected += _rejects_each_representation_edit(spec, report)
        rejected += _rejects_each_mass_edit(spec, report)
        # kappa_formula is read off gamma_c, so it may be the first to fail.
        gamma_c = [(report, "gamma_c", "^(gamma_c|representation.kappa_formula): ")]
        countable += _rejects_each_nudge(checker.check_solve, spec, report, gamma_c)
        countable += _rejects_countable_edits(spec, report)
        case = report["case"]
        report["case"] = {"LevelSlack": "LevelAttained", "LevelAttained": "LevelSlack"}[case]
        with pytest.raises(checker.ReportRejected, match="^case "):
            checker.check_solve(spec, report)
        report["case"] = case
    assert rejected > 10 * len(solve_reports)
    assert countable > 2 * len(solve_reports)


def _rejects_countable_edits(spec, report):
    """Move weight between two null members, and lower level_c below alpha; count rejections.

    Either edit may leave a report that is still right: p_weights need not
    be the only least favorable null weights, and level_c is proved to be
    alpha only where the level duals certify gamma_c.
    """
    edits = []
    weights = [F(e["exact"]) for e in report["p_weights"] or ()]
    if len(weights) > 1:
        i = weights.index(max(weights))
        weights[i] -= NUDGE
        weights[(i + 1) % len(weights)] += NUDGE
        edits.append({"p_weights": [_exact(wt) for wt in weights]})
    rep = report["representation"]
    if rep.get("precondition_grid"):
        level_c = _exact(F(rep["level_c"]["exact"]) - NUDGE)
        edits.append({"representation": dict(rep, level_c=level_c, precondition_grid=False)})
    rejected = 0
    for edit in edits:
        try:
            checker.check_solve(spec, dict(report, **edit))
        except checker.ReportRejected as exc:
            assert re.match(r"(gamma_c|representation\.\w+): ", str(exc)), exc
            rejected += 1
    return rejected


def _rejects_each_mass_edit(spec, report):
    """Flip the beta criterion and each hypothesis flag, and edit beta and the witnesses."""
    criterion = report["beta_criterion_matches_case"]
    edits = [({"beta_criterion_matches_case": not criterion}, "beta_criterion_matches_case")]
    if report["beta"] is None:
        edits.append(({"beta": _exact(0)}, "beta"))
    hyp = report["hypotheses"]
    witnesses = hyp["witnesses"]
    for key in ("h1", "h3", "continuity_p", "continuity_q"):
        edits.append(({"hypotheses": dict(hyp, **{key: not hyp[key]})}, f"hypotheses.{key}"))
        # A witness for a flag that holds, or none for one that fails.
        moved = {k: text for k, text in witnesses.items() if k != key}
        if key not in witnesses:
            moved[key] = "edited"
        edits.append(({"hypotheses": dict(hyp, witnesses=moved)}, "hypotheses.witnesses"))
    for edit, key in edits:
        with pytest.raises(checker.ReportRejected, match=f"^{key}: "):
            checker.check_solve(spec, dict(report, **edit))
    return len(edits)


def _rejects_each_representation_edit(spec, report):
    """Flip the representation's flags and move one class or one test value; count rejections."""
    rep = report["representation"]
    if rep["form"] == "none":
        return 0
    edits = [(lambda r: r["representation"].update(verdict=not rep["verdict"]), "verdict")]
    if rep["form"] == "threshold":
        first, cls = next(iter(rep["classification"].items()))
        moved = {first: "boundary" if cls != "boundary" else "strict_accept"}
        edits.append(
            (lambda r: r["representation"]["classification"].update(moved), "classification")
        )
        grid = not rep["precondition_grid"]
        edits.append(
            (lambda r: r["representation"].update(precondition_grid=grid), "precondition_grid")
        )
    else:
        # Below 1 on an atom of lam_qc. Where a null member charges that
        # atom, the attained level no longer matches and fails first.
        atom = next(a for a in spec["atoms"] if F(report["q_alpha"][a]["exact"]) > 0)
        edits.append((lambda r: r["test"].update({atom: _exact(1 - NUDGE)}), None))
    for edit, key in edits:
        bad = copy.deepcopy(report)
        edit(bad)
        pattern = f"^representation.{key}: " if key else "^(representation: test|attained_level)"
        with pytest.raises(checker.ReportRejected, match=pattern):
            checker.check_solve(spec, bad)
    return len(edits)


def test_checker_rejects_nudged_np_reports(np_reports):
    # A nudged kappa is not required to fail: where np_test fills a ratio
    # class exactly (b = 0), every kappa up to the next ratio proves the
    # same power.
    for spec, report in np_reports:
        entries = [(report, "power", "^power: "), (report, "b", "^b: ")]
        _rejects_each_nudge(checker.check_np, spec, report, entries)
        kappa = report["kappa"]
        report["kappa"] = _exact(-NUDGE)
        with pytest.raises(checker.ReportRejected, match="negative"):
            checker.check_np(spec, report)
        report["kappa"] = kappa


def _exact(v):
    return {"exact": str(v), "decimal": "edited"}


def test_checker_names_each_broken_claim(tmp_path):
    # One report edit per check, each breaking that check first.
    three = json.loads((FIXTURES / "three_atom.json").read_text())
    dirac = json.loads((FIXTURES / "dirac.json").read_text())
    (_, three_report), (_, dirac_report) = _reports(tmp_path, "solve", [three, dirac])
    ((_, np_report),) = _reports(tmp_path, "np", [dirac])
    assert three_report["certificate"]["box_duals"]["w1"]["exact"] == "3/4"

    def off_least_level(report):
        # Still optimal, but not at the least level that zero duals prove.
        report["test"]["0"] = report["attained_level"] = _exact(F(1, 10))

    solve_cases = [
        (lambda r: r["test"].update(w3=_exact(-NUDGE)), "^test: a value lies outside"),
        (lambda r: r["test"].update(zz=r["test"].pop("w3")), "^test: keys"),
        (lambda r: r["problem"].update(alpha=_exact(F(1, 3))), "exceeds alpha"),
        (lambda r: r["problem"].update(alpha=_exact(1)), "is not in"),
        (lambda r: r["problem"].update(q_members=3), "^problem: "),
        (lambda r: r["q_weights"].append(_exact(0)), "^q_weights: one weight"),
        (lambda r: r["certificate"]["level_duals"].append(_exact(0)), "^level_duals: "),
        (lambda r: r["certificate"].update(level_duals=[_exact(-NUDGE)]), "negative dual"),
        (lambda r: r["q_alpha"].update(w3=_exact(NUDGE)), "^q_alpha: "),
        # w is positive only on tight slots: moving mass from w1 to w3
        # keeps the dual bound and breaks the row of w1.
        (
            lambda r: r["certificate"]["box_duals"].update(w1=_exact(F(1, 2)), w3=_exact(F(1, 4))),
            "dual infeasible at w1",
        ),
    ]

    def rep_edit(**changes):
        return lambda r: r["representation"].update(changes)

    solve_cases += [
        (lambda r: r.update({"lambda": _exact(1 - NUDGE)}), "^lambda: "),
        (rep_edit(form="degenerate"), "^representation.form degenerate, the masses say threshold"),
        (rep_edit(form="none"), "^representation.form "),
        (rep_edit(tau=_exact(1 - NUDGE)), "^representation.tau: "),
        (rep_edit(kappa=_exact(-NUDGE)), "^representation.kappa .* is negative"),
        (rep_edit(verdict=False), "^representation.verdict: "),
        (
            lambda r: r["representation"]["classification"].update(w3="boundary"),
            "^representation.classification: ",
        ),
        (lambda r: r["representation"]["b_values"].update(w1=_exact(1)), "^representation.b_val"),
        (lambda r: r["representation"]["violations"].append("w1"), "^representation.violations"),
        (lambda r: r.update(p_weights=[_exact(F(1, 2))]), "^p_weights: "),
    ]
    # The dirac report is slack: its representation is the degenerate form.
    dirac_cases = [
        (off_least_level, "the duals prove 0$"),
        (rep_edit(form="threshold"), "^representation.form threshold, the masses say degenerate"),
        (rep_edit(verdict=False), "^representation.verdict: "),
        (rep_edit(violations=["1"]), "^representation.violations: "),
        # P puts no mass on atom 1, so the attained level stays 0.
        (lambda r: r["test"].update({"1": _exact(1 - NUDGE)}), "^representation: test is "),
    ]
    cases = [(three, three_report, *case) for case in solve_cases]
    cases += [(dirac, dirac_report, *case) for case in dirac_cases]
    for spec, report, edit, pattern in cases:
        bad = copy.deepcopy(report)
        edit(bad)
        with pytest.raises(checker.ReportRejected, match=pattern):
            checker.check_solve(spec, bad)
    for member, pattern in (({"zz": "1"}, "unknown labels"), ({"w1": "1/2"}, "no probability")):
        with pytest.raises(checker.ReportRejected, match=pattern):
            checker.check_solve(dict(three, q_family=three["q_family"] + [member]), three_report)

    zero = {label: _exact(0) for label in np_report["test"]}
    np_cases = [
        (dirac, {"level_slack": not np_report["level_slack"]}, "^level_slack: "),
        # Feasible but not optimal: kappa's bound is above its power.
        (dirac, {"test": zero, "attained_level": _exact(0), "power": _exact(0)}, "kappa proves"),
        # The test is 0 on atom "0", where q = kappa p = 0 < p.
        (dirac, {"b": _exact(F(7, 3))}, "^b: 7/3, "),
        (three, {}, "one charge per family"),
    ]
    for spec, edit, pattern in np_cases:
        with pytest.raises(checker.ReportRejected, match=pattern):
            checker.check_np(spec, dict(np_report, **edit))


def test_checker_names_a_missing_or_mistyped_field(tmp_path, capsys):
    # A report that lacks a field or holds one of the wrong JSON type is a
    # rejection naming the field, never a KeyError or TypeError.
    three = json.loads((FIXTURES / "three_atom.json").read_text())
    dirac = json.loads((FIXTURES / "dirac.json").read_text())
    ((_, report),) = _reports(tmp_path, "solve", [three])
    ((_, np_report),) = _reports(tmp_path, "np", [dirac])
    assert report["representation"]["form"] == "threshold"

    solve_cases = [
        (lambda r: r.pop("value"), "value: missing"),
        (lambda r: r.update(value="1"), "value: not an object"),
        (lambda r: r["value"].pop("exact"), "value.exact: missing"),
        (lambda r: r["value"].update(exact="1/0"), "value: not a rational number"),
        (lambda r: r["problem"]["alpha"].update(exact=None), "problem.alpha: not a rational"),
        (lambda r: r["problem"].pop("p_members"), "problem.p_members: missing"),
        (lambda r: r.update(test=[]), "test: not an object"),
        (lambda r: r["test"].update(w2={"exact": True}), "test.w2: not a rational number"),
        (lambda r: r.update(q_weights={}), "q_weights: not a list"),
        (lambda r: r["q_weights"].__setitem__(0, 1), r"q_weights\[0\]: not an object"),
        (lambda r: r["certificate"].pop("box_duals"), "certificate.box_duals: missing"),
        (lambda r: r["certificate"].update(level_duals="0"), "certificate.level_duals: not a list"),
        (lambda r: r["representation"].pop("kappa"), "representation.kappa: missing"),
        (lambda r: r["representation"].update(violations=0), "representation.violations: not a"),
        (lambda r: r["representation"].update(b_values=[]), "representation.b_values: not an"),
        (lambda r: r.pop("hypotheses"), "hypotheses: missing"),
        (lambda r: r["hypotheses"].update(witnesses=[]), "hypotheses.witnesses: not an object"),
        (lambda r: r.pop("beta"), "beta: missing"),
    ]
    for edit, message in solve_cases:
        bad = copy.deepcopy(report)
        edit(bad)
        with pytest.raises(checker.ReportRejected, match=f"^{message}"):
            checker.check_solve(three, bad)
    for bad, message in (({}, "problem: missing"), ([report], "report: not an object")):
        with pytest.raises(checker.ReportRejected, match=f"^{message}$"):
            checker.check_solve(three, bad)
    for edit, message in ((lambda r: r.pop("power"), "power: missing"),
                          (lambda r: r.update(kappa="0"), "kappa: not an object"),
                          (lambda r: r.pop("b"), "b: missing")):
        bad = copy.deepcopy(np_report)
        edit(bad)
        with pytest.raises(checker.ReportRejected, match=f"^{message}$"):
            checker.check_np(dirac, bad)
    # The spec's fields are named too.
    spec_cases = [
        ({k: v for k, v in three.items() if k != "atoms"}, "spec.atoms: missing"),
        (dict(three, p_family={}), "spec.p_family: not a list"),
        (dict(three, q_family=[{"w1": "x"}]), r"spec.q_family\[0\].w1: not a rational number"),
    ]
    for spec, message in spec_cases:
        with pytest.raises(checker.ReportRejected, match=f"^{message}$"):
            checker.check_solve(spec, report)

    # From the command line: exit 1 with the field named, as for any
    # rejection; a check report is not a solve report. A file that is not
    # JSON is an input error, exit 2.
    spec_path = write_spec(tmp_path, three, "three.json")
    check_report = tmp_path / "check.json"
    assert run(["check", spec_path, "--json", check_report]) == EXIT_OK
    (tmp_path / "a.json").write_text('{"a": 1}')
    (tmp_path / "bad.json").write_text("{")
    capsys.readouterr()
    for name, code, err in (
        ("a.json", 1, "rejected: problem: missing\n"),
        ("check.json", 1, "rejected: problem: missing\n"),
        ("bad.json", 2, "error: "),
    ):
        assert checker.main([str(spec_path), str(tmp_path / name)]) == code, name
        assert capsys.readouterr().err.startswith(err), name
    script = Path(checker.__file__)
    done = subprocess.run(
        [sys.executable, str(script), str(spec_path), str(tmp_path / "a.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "rejected: problem: missing\n")


def test_checker_imports_only_the_standard_library():
    tree = ast.parse(Path(checker.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [a.name for node in imports if isinstance(node, ast.Import) for a in node.names]
    names += [node.module for node in imports if isinstance(node, ast.ImportFrom)]
    assert all(getattr(node, "level", 0) == 0 for node in imports)
    assert names and all(name.split(".")[0] in sys.stdlib_module_names for name in names)
    assert not any(name.startswith("robustnp") for name in names)


def _counting(monkeypatch, name):
    """Replace ``robustnp.minimax.<name>`` with a spy; returns its call list."""
    calls = []
    real = getattr(robustnp.minimax, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(robustnp.minimax, name, counting)
    return calls


def _fixtures_and_seeded_specs(tmp_path):
    specs = sorted(FIXTURES.glob("*.json"))
    for i, spec in enumerate(_seeded_specs(7, 8)):
        specs.append(write_spec(tmp_path, spec, f"s{i}.json"))
    return specs


def test_solve_runs_no_lp_beyond_solve_minimax(tmp_path, monkeypatch, capsys):
    calls = _counting(monkeypatch, "solve_lp")
    specs = _fixtures_and_seeded_specs(tmp_path)
    for spec in specs:
        calls.clear()
        robustnp.solve_minimax(load_problem(str(spec)))
        in_solve = len(calls)
        calls.clear()
        assert run(["solve", spec, "--json", tmp_path / "report.json"]) == EXIT_OK
        assert len(calls) == in_solve, spec.name
    capsys.readouterr()


def test_solve_builds_the_certificate_once(tmp_path, monkeypatch, capsys):
    # solve_minimax checks the certificate, case split included; the
    # command reports that check and does not repeat it.
    calls = _counting(monkeypatch, "kkt_certificate")
    for spec in _fixtures_and_seeded_specs(tmp_path):
        calls.clear()
        assert run(["solve", spec, "--json", tmp_path / "report.json"]) == EXIT_OK
        assert len(calls) == 1, spec.name
    capsys.readouterr()


def test_solve_and_check_report_the_same_hypotheses(tmp_path, capsys):
    # Both commands build the object with one helper; H2 holds at every
    # test on this model, so neither carries it.
    keys = {"h1", "h3", "continuity_p", "continuity_q", "witnesses"}
    witnessed = 0
    for spec in _fixtures_and_seeded_specs(tmp_path):
        assert run(["solve", spec, "--json", tmp_path / "solve.json"]) == EXIT_OK
        assert run(["check", spec, "--json", tmp_path / "check.json"]) == EXIT_OK
        hyp = json.loads((tmp_path / "solve.json").read_text())["hypotheses"]
        assert set(hyp) == keys, spec.name
        assert hyp == json.loads((tmp_path / "check.json").read_text()), spec.name
        witnessed += bool(hyp["witnesses"])
    assert "h2" not in capsys.readouterr().out
    assert witnessed > 0


def test_h2_holds_at_every_probe(tmp_path):
    # H2 has no check: the hypotheses module docstring argues that it holds
    # at every test on this model. Check the criterion that argument reduces
    # it to, that every null member attaining a positive upper level charges
    # {x > 0}, on the fixtures and 400 seeded specs at x_alpha, 1/2 and 1,
    # and that no report carries an H2 witness.
    problems = [load_problem(str(p)) for p in sorted(FIXTURES.glob("*.json"))]
    problems += [parse_problem(spec) for spec in _seeded_specs(1605, 400)]
    probes = 0
    for prob in problems:
        tests = [robustnp.solve_minimax(prob).x_alpha]
        space = prob.space
        tests += [
            robustnp.TestFunction(space, (v,) * space.n_atoms, v if space.has_tail else 0)
            for v in (F(1, 2), 1)
        ]
        for x in tests:
            top = robustnp.upper_expectation(prob.p_family, x)
            for c in prob.p_family.family:
                if top > 0 and robustnp.expectation(c, x) == top:
                    assert any(m and v for m, v in zip(c.slot_masses(), x.slot_values()))
            probes += 1
        rep = robustnp.hypothesis_report(prob)
        assert not any(key.startswith("h2") for key in rep.witnesses)
    assert len(problems) == 405 and probes == 1215


def test_grid_precondition_in_report(tmp_path):
    flat = {
        "atoms": ["a"],
        "has_tail": True,
        "alpha": "1/2",
        "p_family": [{"a": "536870911/1073741824", "tail": "536870913/1073741824"}],
        "q_family": [{"a": "1/2", "tail": "1/2"}],
    }
    out = tmp_path / "report.json"
    assert run(["solve", write_spec(tmp_path, flat), "--json", out]) == EXIT_OK
    rep = json.loads(out.read_text())["representation"]
    assert rep["form"] == "threshold"
    assert rep["precondition_grid"] is False
    assert rep["level_c"]["exact"] == "536870911/1073741824"
    assert run(["solve", FIXTURES / "three_atom.json", "--json", out]) == EXIT_OK
    rep = json.loads(out.read_text())["representation"]
    assert rep["precondition_grid"] is True
    assert rep["level_c"]["exact"] == "1/2"


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(
        robustnp.minimax, "solve_lp", lambda *args, **kwargs: robustnp.LpSolution("unbounded")
    )
    assert run(["solve", FIXTURES / "three_atom.json"]) == EXIT_CERTIFICATE
    err = capsys.readouterr().err
    assert err == "internal error: epigraph program ended unbounded; it is always solvable\n"
