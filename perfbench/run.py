"""robustnp benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's ``src``
directly, with no install. With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a record
of the run (seed, commit, machine, predictions, recorded observations).
The exit code is 0 when every op passed its checks, 1 when one did not,
and 2 when the benchmark could not run at all.

Every measurement runs in a fresh child interpreter (see child.py), one at
a time, so the parent's own imports never touch the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("ladder", "sweep-bits", "cli-report")
SETUP_PROBES = (3, 4)  # fresh interpreters before and after the measuring child
CHILD_TIMEOUT_S = 170
# Reference time of child.probe(). Op times are scaled to a host on which
# the probe's median takes this long, about what it takes on a 2-vCPU
# Intel Xeon VM under Python 3.11. Changing it rescales every time metric.
PROBE_REF_S = 0.001
# Probes on each side of the one before an op that set the op's host factor.
# The host changes speed within a second, so a window of about 250 ms
# follows it more closely than a whole round does.
PROBE_WINDOW = 2


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                          text=True, timeout=timeout, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(workload: str, seed: int, workdir: Path, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, each divided by the
    host factor of the probes it runs right after its set-up."""
    args = ["setup", workload, str(seed), str(workdir)]
    times = []
    for _ in range(count):
        out = _child(args, 60)
        times.append(out["setup_s"] / host_factor(out["probes"]))
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def host_factor(probes: list[float]) -> float:
    """How much slower than the reference the host ran: the median probe
    time over PROBE_REF_S."""
    return statistics.median(probes) / PROBE_REF_S


def host_factors(probes: list[list[float]], probe_at: list[list[int]]) -> list[list[float]]:
    """Host factor of every op in every round, from the probes around it."""
    return [[host_factor(times[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1]) for j in at]
            for times, at in zip(probes, probe_at)]


def op_times(rounds: list[list[float]], factors: list[list[float]]) -> list[float]:
    """One time per op: the median over the rounds of its time divided by
    its host factor.

    On a shared host, other tenants slow this process down by up to a half,
    for well under a second up to minutes at a time, and that slows the
    probe as much as the ops. Dividing by the probes around each op takes
    that out; the median over rounds takes out most of what is left.
    """
    return [statistics.median(t / f for t, f in zip(times, fs))
            for times, fs in zip(zip(*rounds), zip(*factors))]


def time_metrics(times: list[float]) -> dict:
    ms = [1000.0 * t for t in times]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[8],
    }


def end_to_end(out: dict, setup: list[float]) -> dict:
    factors = host_factors(out["probes"], out["probe_at"])
    return {
        **time_metrics(op_times(out["rounds"], factors)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "robustnp" / "__init__.py").is_file():
        raise BenchError(f"no robustnp sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    wl_class = workloads.WORKLOADS[workload]
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    setup: list[float] = []
    try:
        wl_class(seed, workdir).prepare()
        if not trace:
            # A first, uncounted probe fills the bytecode cache so that every
            # counted one starts alike; the rest straddle the measurement.
            setup_probes(workload, seed, workdir, 1)
            setup += setup_probes(workload, seed, workdir, SETUP_PROBES[0])
        out = _child(["measure", workload, str(seed), str(workdir), str(seconds),
                      "1" if trace else "0"], CHILD_TIMEOUT_S)
        if not trace:
            setup += setup_probes(workload, seed, workdir, SETUP_PROBES[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = out["layers"] if trace else end_to_end(out, setup)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": workload,
        "why": wl_class.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed, 1 client, 1 process, no threads",
        "rounds": out["trace_rounds"] if trace else len(out["rounds"]),
        "commit": git_commit(),
        **machine(),
        "failures": out["failures"],
        **({} if trace else {
            "host_factor_by_round": [host_factor(p) for p in out["probes"]],
            "wall": time_metrics([statistics.median(t) for t in zip(*out["rounds"])]),
        }),
        "notes": out["notes"],
        "predictions": json.loads((HERE / "predictions.json").read_text()),
    }
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    # failed_frac is 0 on a correct run, so it is reported here and through
    # the result's attempted/failed counts, not as a bounded metric.
    print(f"{workload} failed_frac = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} ops)")
    return record, result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
