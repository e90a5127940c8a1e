"""Child process of the benchmark: one fresh interpreter per invocation.

    python3 perfbench/child.py setup   WORKLOAD SEED WORKDIR
    python3 perfbench/child.py measure WORKLOAD SEED WORKDIR SECONDS TRACE

``setup`` times ``import robustnp, robustnp.cli`` plus building the
workload's inputs and prints the seconds and the times of probes run after
it. ``measure`` runs the workload and prints one JSON object: with TRACE=0
the time of every op and of the probes between them in every round, with
TRACE=1 the layer metrics of a traced round and the tracing overhead
against untraced rounds of the same ops.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import robustnp  # noqa: E402
import robustnp.cli  # noqa: E402, F401

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WARMUP_S = 1.0
MIN_ROUNDS = 3
TRACE_PAIRS = 2
MAX_FAILURES_SHOWN = 5
PROBE_EVERY_S = 0.05
SETUP_PROBE_COUNT = 21  # probes after the set-up, for its host factor


def probe() -> float:
    """Time a fixed piece of exact arithmetic that never touches robustnp.

    It sums 1/i for i < 300 in ``Fraction``s: gcds on integers of a few
    hundred bits, the same kind of work as the program's pivots. Run
    between ops, it tracks how fast the host runs this process right now.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return time.perf_counter() - t0


class Probes:
    """Probe times of one round and, for each op, the index of the last
    probe taken before it."""

    def __init__(self):
        self.times: list[float] = []
        self.at: list[int] = []
        self._last = float("-inf")

    def before_op(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.times.append(probe())
            self._last = time.perf_counter()
        self.at.append(len(self.times) - 1)


class Loop:
    """Runs ops one after another and checks each right after it returns."""

    def __init__(self, wl: workloads.Workload, golden):
        self.wl = wl
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one(self, index: int, tracer=None) -> float:
        """Run, time and check op ``index``; returns its time in seconds."""
        op = self.wl.ops[index]
        self.attempted += 1
        rec = tracer.begin(index) if tracer else None
        t0 = time.perf_counter()
        try:
            out, err = self.wl.run(op), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, exc
        dt = time.perf_counter() - t0
        if rec is not None:
            tracer.end(rec)
        try:
            if err is not None:
                raise err
            got = self.wl.check(op, out)
            if self.golden is not None:
                workloads.require(got == self.golden[index],
                                   f"op {index}: {got} differs from golden {self.golden[index]}")
        except Exception as exc:  # recorded, reported, and fails the run
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append("".join(traceback.format_exception_only(exc)).strip())
        return dt

    def round(self, tracer=None, probes: "Probes | None" = None) -> list[float]:
        """Run every op once, with ``probes`` probing between the ops."""
        times = []
        for i in range(len(self.wl.ops)):
            if probes is not None:
                probes.before_op()
            times.append(self.one(i, tracer))
        return times


def warm_up(loop: Loop) -> None:
    start = time.perf_counter()
    for i in range(len(loop.wl.ops)):
        if time.perf_counter() - start >= WARMUP_S:
            break
        loop.one(i)


def measure(loop: Loop, seconds: float) -> dict:
    """Repeat rounds until the op time is closest to ``seconds``, with at
    least MIN_ROUNDS rounds. Returns, per round, the op times, the probe
    times and the index of the probe before each op."""
    out: dict = {"rounds": [], "probes": [], "probe_at": []}
    timed = 0.0
    while True:
        probes = Probes()
        times = loop.round(probes=probes)
        out["rounds"].append(times)
        out["probes"].append(probes.times)
        out["probe_at"].append(probes.at)
        timed += sum(times)
        if len(out["rounds"]) >= MIN_ROUNDS and timed + sum(times) / 2 >= seconds:
            return out


def main(argv: list[str]) -> int:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    if mode == "setup":
        setup_s = time.perf_counter() - _T0
        probes = [probe() for _ in range(SETUP_PROBE_COUNT)]
        print(json.dumps({"setup_s": setup_s, "probes": probes}))
        return 0
    seconds, trace = float(argv[4]), argv[5] == "1"
    if tracing.installed_wrappers():
        raise RuntimeError("tracing wrappers are installed before the untraced run")
    loop = Loop(wl, workloads.load_golden(name, seed))
    result: dict = {}
    warm_up(loop)
    if not trace:
        result.update(measure(loop, seconds))
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        # Untraced and traced rounds alternate, TRACE_PAIRS of each; each
        # side takes every op's fastest repeat.
        # The layer metrics come from the last traced round.
        untraced, traced = [], []
        for _ in range(TRACE_PAIRS):
            untraced.append(loop.round())
            tracer = tracing.Tracer()
            wl.json_bytes_total = 0
            tracer.install()
            try:
                traced.append(loop.round(tracer))
            finally:
                tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, len(wl.ops), wl.json_bytes_total)
        fastest = [sum(map(min, zip(*rounds))) for rounds in (untraced, traced)]
        metrics["trace.overhead_frac"] = fastest[1] / fastest[0] - 1.0
        result["layers"] = metrics
        result["trace_rounds"] = 2 * TRACE_PAIRS
    result.update(attempted=loop.attempted, failed=loop.failed,
                  failures=loop.failures, notes=wl.notes())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
