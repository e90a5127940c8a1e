"""Span arithmetic and the outside-in wrappers of the traced run."""

import json
from pathlib import Path

import robustnp
import robustnp.cli
import robustnp.minimax
import robustnp.simplex
import child
import tracing
import workloads

PREDICTIONS = json.loads((Path(tracing.__file__).with_name("predictions.json")).read_text())
EXACT = [m for row in PREDICTIONS if row["exact"] for m in row["layer_metrics"]]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["minimax.a", 1.0, 4.0, 0, 0, None],
        ["minimax.b", 3.0, 6.0, 0, 0, None],
        ["charge_model.c", 2.0, 3.0, 1, 0, None],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["minimax.solve_minimax", 1.0, 9.0, 0, 0, None],
        ["simplex.solve_lp", 2.0, 5.0, 1, 0, ("epigraph", 3, 4, None)],
        ["simplex.solve_lp", 5.0, 8.0, 1, 0, ("lift", 5, 6, None)],
        ["charge_model.mix", 8.0, 8.5, 1, 0, None],
        ["op", 10.0, 12.0, -1, 1, None],
    ]
    m = tracing.layer_metrics(spans, 2)
    assert m["simplex.calls"] == 1.0
    assert m["minimax.lp_per_solve"] == 2.0
    assert m["simplex.ms"] == 3000.0
    assert m["simplex.ms_per_call"] == 3000.0
    assert m["simplex.share"] == 0.5
    assert (m["simplex.rows"], m["simplex.cols"]) == (4.0, 5.0)
    assert m["minimax.solve_ms"] == 4000.0
    assert m["minimax.self_ms"] == 750.0
    assert m["minimax.stage.epigraph_ms"] == 1500.0
    assert m["minimax.stage.lift_ms"] == 1500.0
    assert m["minimax.stage.lift_calls"] == 0.5
    assert m["charge_model.calls"] == 0.5 and m["charge_model.ms"] == 250.0


def test_wrappers_reach_every_reference_and_come_off():
    original = robustnp.simplex.solve_lp
    tracer = tracing.Tracer()
    assert tracing.installed_wrappers() == []
    tracer.install()
    try:
        wrapped = tracing.installed_wrappers()
        assert "robustnp.minimax.solve_lp" in wrapped
        assert "robustnp.cli.solve_minimax" in wrapped
        assert "robustnp.solve_minimax" in wrapped
        assert robustnp.minimax.solve_lp is not original
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert robustnp.minimax.solve_lp is original


def _traced(wl):
    loop = child.Loop(wl, None)
    tracer = tracing.Tracer()
    wl.json_bytes_total = 0
    tracer.install()
    try:
        loop.round(tracer)
    finally:
        tracer.uninstall()
    assert loop.failed == 0, loop.failures
    return tracing.layer_metrics(tracer.spans, len(wl.ops), wl.json_bytes_total)


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    cli = workloads.CliReport(2, tmp_path)
    cli.prepare()
    cli.setup()
    cli.ops = cli.ops[::20]
    sweep = workloads.SweepBits(2, tmp_path)
    sweep.setup()
    sweep.ops = sweep.ops[:25]
    ladder = workloads.Ladder(2, tmp_path)
    ladder.ops = workloads.ladder_instances(2, (((6, 2, 2), 4), ((6, 2, 6), 1)))
    for wl in (cli, sweep, ladder):
        first, second = _traced(wl), _traced(wl)
        assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
        assert first["simplex.calls"] > 0
    assert _traced(sweep)["minimax.lp_per_solve"] == 4.0
    assert _traced(sweep)["minimax.stage.lift_calls"] == 0.0
    assert _traced(cli)["cli.json_bytes"] > 0
