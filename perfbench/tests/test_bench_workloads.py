"""Generators, checkers and golden data of the benchmark workloads."""

import dataclasses
import json
from fractions import Fraction as F

import pytest

import robustnp
import workloads
from robustnp import vertex_enumerate
from workloads import CheckError


def test_generators_repeat_for_a_seed():
    small = (((6, 2, 2), 3), ((6, 2, 6), 1))
    assert workloads.ladder_instances(7, small) == workloads.ladder_instances(7, small)
    assert workloads.ladder_instances(7, small) != workloads.ladder_instances(8, small)
    assert workloads.sweep_alphas(7, 50) == workloads.sweep_alphas(7, 50)
    assert workloads.sweep_alphas(7, 50) != workloads.sweep_alphas(8, 50)
    assert workloads.cli_specs(7, 30) == workloads.cli_specs(7, 30)
    assert workloads.cli_specs(7, 30) != workloads.cli_specs(8, 30)


def test_ladder_covers_every_cell():
    probs = workloads.ladder_instances(1)
    sizes = [(p.space.n_atoms, len(p.p_family), len(p.q_family)) for p in probs]
    assert sizes == [cell for cell, count in workloads.LADDER_CELLS for _ in range(count)]
    assert len(probs) >= 100
    assert all(p.space.has_tail for p in probs)


def test_cli_specs_stay_within_the_oracle_bound():
    for spec in workloads.cli_specs(3, workloads.CliReport.n_specs):
        assert 2 <= len(spec["atoms"]) <= 5
        assert len(spec["atoms"]) + spec["has_tail"] <= 6
        assert 1 <= len(spec["p_family"]) <= 3 and 1 <= len(spec["q_family"]) <= 3


@pytest.fixture(scope="module")
def ladder_solution():
    prob = workloads.ladder_instances(2, (((10, 3, 3), 1),))[0]
    return prob, robustnp.solve_minimax(prob)


def test_checker_accepts_a_true_solution(ladder_solution):
    prob, sol = ladder_solution
    workloads.check_certificate(prob, sol)


def test_checker_rejects_gamma_off_by_a_millionth(ladder_solution):
    prob, sol = ladder_solution
    bad = dataclasses.replace(sol, gamma_alpha=sol.gamma_alpha + F(1, 10**6))
    with pytest.raises(CheckError):
        workloads.check_certificate(prob, bad)


def test_checker_rejects_a_negative_dual(ladder_solution):
    prob, sol = ladder_solution
    v = list(sol.certificate.level_duals)
    v[0] = -v[0] if v[0] else F(-1, 10)
    cert = dataclasses.replace(sol.certificate, level_duals=tuple(v))
    with pytest.raises(CheckError, match="negative"):
        workloads.check_certificate(prob, dataclasses.replace(sol, certificate=cert))


@pytest.fixture(scope="module")
def cli_workload(tmp_path_factory):
    wl = workloads.CliReport(5, tmp_path_factory.mktemp("cli"))
    wl.prepare()
    wl.setup()
    return wl


def test_cli_check_rejects_a_nonzero_exit(cli_workload):
    assert cli_workload.run(0) == 0
    cli_workload.check(0, 0)
    with pytest.raises(CheckError, match="exited 2"):
        cli_workload.check(0, 2)


def test_cli_check_rejects_a_changed_value(cli_workload, tmp_path):
    assert cli_workload.run(1) == 0
    out = json.loads(open(cli_workload.out).read())
    out["value"]["exact"] = str(F(out["value"]["exact"]) + F(1, 10**6))
    with open(cli_workload.out, "w") as fh:
        json.dump(out, fh)
    with pytest.raises(CheckError, match="value"):
        cli_workload.check(1, 0)


def test_cli_reports_match_brute_force(cli_workload):
    for i in range(0, workloads.CliReport.n_specs, 6):
        assert cli_workload.run(i) == 0
        report = json.loads(open(cli_workload.out).read())
        oracle = vertex_enumerate(cli_workload.problems[i])
        assert F(report["value"]["exact"]) == oracle.value, cli_workload.specs[i]


def test_sweep_check_uses_the_closed_form(tmp_path):
    wl = workloads.SweepBits(4, tmp_path)
    wl.setup()
    i = 8 + len(wl.sizes) // 2  # n = 9, second pass
    n = wl.sizes[i]
    rows = wl.run(i)
    assert wl.check(i, rows) == [str(1 - (1 - wl.alphas[i]) / 2**n)]
    with pytest.raises(CheckError):
        wl.check(i, [(n, rows[0][1] + F(1, 10**6))])


def test_golden_covers_each_round():
    golden = json.loads(workloads.GOLDEN_PATH.read_text())
    assert set(golden) == set(workloads.WORKLOADS)
    assert len(golden["ladder"]) == sum(count for _, count in workloads.LADDER_CELLS)
    assert len(golden["sweep-bits"]) == len(workloads.SweepBits.sizes)
    assert len(golden["cli-report"]) == workloads.CliReport.n_specs + 5


def test_golden_matches_the_default_seed_on_a_sample(tmp_path):
    wl = workloads.Ladder(workloads.DEFAULT_SEED, tmp_path)
    wl.setup()
    golden = workloads.load_golden("ladder", workloads.DEFAULT_SEED)
    for i in range(0, len(wl.ops), 12):
        prob = wl.ops[i]
        assert wl.check(prob, wl.run(prob)) == golden[i]


def test_benchmark_json_reasons_match_the_workloads():
    spec = json.loads((workloads.GOLDEN_PATH.parent.parent / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
