"""Outside-in layer tracing for the benchmark's traced run.

:meth:`Tracer.install` replaces every public function of the traced
robustnp modules, in every robustnp module that holds a reference to it,
with a wrapper that records a span; :meth:`Tracer.uninstall` puts the
originals back. Nothing inside the program changes. Only calls made inside
an op span (see :meth:`Tracer.begin`) are recorded. Spans stay in memory
and are reduced to per-layer metrics once the traced round has ended.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the id of the op it
belongs to, and ``info`` extra data (set for ``simplex.solve_lp`` only).
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("simplex", "minimax", "charge_model", "hypotheses", "cli")
LP = "simplex.solve_lp"
SOLVE = "minimax.solve_minimax"

# A solve_lp call is attributed to the stage named by its caller.
STAGES = {
    "_solve_epigraph": "epigraph",
    "_lift_dual_support": "lift",
    "_min_attained_level": "level",
    "_countable_value": "countable",
    "_null_side_mixture": "null_side",
}
STAGE_NAMES = ("epigraph", "lift", "level", "countable", "null_side", "other")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, op: int) -> list:
        """Open the root span of op ``op``; only calls inside one are traced."""
        self.op = op
        rec = ["op", 0.0, 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = self.clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        tracer = self
        is_lp = name == LP

        def wrapper(*args, **kwargs):
            if not stack:  # outside every op, e.g. in the benchmark's checks
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            caller = sys._getframe(1).f_code.co_name if is_lp else None
            result = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if is_lp:
                    rec[5] = _lp_info(caller, args, kwargs, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper._perfbench_span = name
        return wrapper

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"robustnp.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    replacements[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in robustnp_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(mod, attr, replacements[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


def robustnp_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "robustnp" or name.startswith("robustnp."))]


def installed_wrappers() -> list[str]:
    """Names of robustnp attributes that currently hold a tracing wrapper."""
    return [f"{m.__name__}.{attr}" for m in robustnp_modules()
            for attr, value in vars(m).items() if hasattr(value, "_perfbench_span")]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _lp_info(caller, args, kwargs, result) -> tuple:
    c = _arg(args, kwargs, 0, "c") or ()
    rows = len(_arg(args, kwargs, 1, "a_ub") or ()) + len(_arg(args, kwargs, 3, "a_eq") or ())
    return STAGES.get(caller, "other"), rows, len(c), result


def _bits(result) -> int:
    if result is None or getattr(result, "status", None) != "optimal":
        return 0
    values = [result.value, *result.x, *(result.y_ub or ()), *(result.y_eq or ())]
    return max(max(abs(v.numerator).bit_length(), v.denominator.bit_length())
               for v in values)


# --------------------------------------------------------------------------
# Reduction


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], n_ops: int, json_bytes: int = 0) -> dict[str, float]:
    """Per-op layer metrics of one traced round of ``n_ops`` ops."""
    selfs = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    names = [s[0] for s in spans]
    layers = [_layer(n) for n in names]

    def outermost(i: int) -> bool:
        parent = spans[i][3]
        return parent < 0 or layers[parent] != layers[i]

    def total(pred) -> float:
        return sum(dur[i] for i in range(len(spans)) if pred(i))

    def ancestor_named(i: int, target: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if names[p] == target:
                return True
            p = spans[p][3]
        return False

    per_op = 1.0 / n_ops
    ms = 1000.0 * per_op
    lps = [i for i, n in enumerate(names) if n == LP]
    infos = [spans[i][5] for i in lps]
    lp_time = total(lambda i: names[i] == LP and outermost(i))
    op_time = total(lambda i: names[i] == "op")
    solves = sum(1 for n in names if n == SOLVE)
    in_solve = sum(1 for i in lps if ancestor_named(i, SOLVE))

    def named(*targets):
        return total(lambda i: names[i] in targets
                     and not (spans[i][3] >= 0 and names[spans[i][3]] in targets)) * ms

    m = {
        "simplex.calls": len(lps) * per_op,
        "simplex.ms": lp_time * ms,
        "simplex.ms_per_call": 1000.0 * lp_time / len(lps) if lps else 0.0,
        "simplex.share": lp_time / op_time if op_time else 0.0,
        "simplex.rows": sum(info[1] for info in infos) / len(infos) if infos else 0.0,
        "simplex.cols": sum(info[2] for info in infos) / len(infos) if infos else 0.0,
        "simplex.bits_max": max((_bits(info[3]) for info in infos), default=0),
        "simplex.non_optimal": sum(
            1 for info in infos if getattr(info[3], "status", None) != "optimal") * per_op,
        "minimax.lp_per_solve": in_solve / solves if solves else 0.0,
        "minimax.solve_ms": named(SOLVE),
        "minimax.self_ms": sum(selfs[i] for i in range(len(spans))
                               if layers[i] == "minimax") * ms,
    }
    for stage in STAGE_NAMES:
        m[f"minimax.stage.{stage}_ms"] = sum(
            dur[i] for i, info in zip(lps, infos) if info[0] == stage) * ms
    m["minimax.stage.lift_calls"] = sum(1 for info in infos if info[0] == "lift") * per_op
    m["minimax.detect_case_ms"] = named("minimax.detect_case")
    m["minimax.kkt_ms"] = named("minimax.kkt_certificate")
    m["minimax.verify_ms"] = named("minimax.verify_threshold_form",
                                   "minimax.verify_degenerate_form")
    m["minimax.beta_ms"] = named("minimax.compute_beta", "minimax.beta_criterion_check")
    m["charge_model.calls"] = sum(1 for lay in layers if lay == "charge_model") * per_op
    m["charge_model.ms"] = total(
        lambda i: layers[i] == "charge_model" and outermost(i)) * ms
    m["hypotheses.report_ms"] = named("hypotheses.hypothesis_report")
    m["hypotheses.sweep_ms"] = named("hypotheses.truncation_sweep")
    m["cli.load_ms"] = named("cli.load_problem")
    m["cli.self_ms"] = sum(selfs[i] for i in range(len(spans)) if layers[i] == "cli") * ms
    m["cli.json_bytes"] = json_bytes * per_op
    return m
