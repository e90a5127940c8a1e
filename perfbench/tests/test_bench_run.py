"""The benchmark's command: it refuses to run without the program's sources,
and it scales op times by the host factor around them."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no robustnp sources" in proc.stderr


def test_host_factor_takes_out_a_slow_stretch():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    ref = run.PROBE_REF_S
    # The second op of round 0 and all of round 1 ran twice as slow, and
    # so did the probes around them; a slow probe far away counts for none.
    rounds = [[0.010, 0.040], [0.020, 0.040], [0.010, 0.020]]
    probes = [[ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref],
              [2 * ref] * 3, [ref] * 3]
    at = [[0, 5], [0, 2], [0, 2]]
    factors = run.host_factors(probes, at)
    assert factors == [[1.0, 2.0], [2.0, 2.0], [1.0, 1.0]]
    assert run.op_times(rounds, factors) == [0.010, 0.020]
    metrics = run.time_metrics([0.010, 0.020])
    assert metrics["ops_per_s"] == 2 / 0.030
    assert metrics["op_ms.p50"] == 15.0
