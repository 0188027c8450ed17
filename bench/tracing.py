"""Span tracing of audkit from outside the package, and the per-layer metrics.

``Tracer.install`` replaces every public function of the six layer modules
(``dist``, ``queue_core``, ``optimize``, ``sim``, ``report``, ``cli``) and
every public method of the classes they define with a timing wrapper.  The
wrapper is bound under every name in the package that referred to the
original (``from .queue_core import departure_moments`` in ``optimize``
included), so calls between modules are seen too.  ``uninstall`` puts the
originals back.  audkit itself is not modified on disk.

Each call opens a span ``{name, id, parent, start, end}``.  A span's self
time is its duration minus the durations of its child spans.  Spans are
folded into per-name totals as they close; the first ``SPAN_CAP`` are kept
verbatim for the result file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from typing import Dict, List, Optional

import audkit
from audkit.errors import ConvergenceError

LAYERS = ("dist", "queue_core", "optimize", "sim", "report", "cli")

FAMILY_TAGS = {
    "Exponential": "exp",
    "Uniform": "uniform",
    "Lomax": "lomax",
    "FoldedNormal": "fnorm",
    "Deterministic": "det",
}
SUBCOMMANDS = ("optimize-arrival", "optimize-offset", "sweep")
SPAN_CAP = 5000  # spans kept verbatim for the result file

# name -> unit of every per-layer metric, in the order they are reported
PER_LAYER_UNITS: Dict[str, str] = {}
for _tag in FAMILY_TAGS.values():
    PER_LAYER_UNITS[f"dist.{_tag}.transform_calls"] = "calls/op"
    PER_LAYER_UNITS[f"dist.{_tag}.transform_us"] = "us"
PER_LAYER_UNITS.update({
    "dist.sample_ms": "ms",
    "queue_core.solve_rho1.calls": "calls/op",
    "queue_core.solve_rho1.iterations_p50": "count",
    "queue_core.solve_rho1.iterations_max": "count",
    "queue_core.solve_rho1.self_ms": "ms",
    "queue_core.rho1_cache_hit_ratio": "ratio",
    "queue_core.derive_ms": "ms",
    "queue_core.mean_aud_ms": "ms",
    "queue_core.missing_probability_ms": "ms",
    "optimize.outer_iterations": "count",
    "optimize.objective_evals": "count",
    "optimize.objective_us": "us",
    "optimize.objective_share": "ratio",
    "optimize.offset_iterations": "count",
    "sim.run_trajectory_ms": "ms",
    "sim.assign_decisions_ms": "ms",
    "sim.lindley_epochs_ms": "ms",
    "sim.aggregate_ms": "ms",
    "sim.dump_ms": "ms",
    "sim.dump_bytes": "bytes",
    "sim.threads_speedup": "ratio",
    "report.sweep_row_ms": "ms",
    "report.serialize_ms": "ms",
    "report.repeat_optimum_ratio": "ratio",
})
for _cmd in SUBCOMMANDS:
    PER_LAYER_UNITS[f"cli.main_ms.{_cmd}"] = "ms"
PER_LAYER_UNITS["cli.import_s"] = "s"
PER_LAYER_UNITS["bench.trace_overhead"] = "ratio"


class _Frame:
    __slots__ = ("name", "id", "parent", "start", "child", "duration", "extra")

    def __init__(self, name, span_id, parent, start):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.start = start
        self.child = 0.0
        self.duration = 0.0
        self.extra: Optional[dict] = None


class Tracer:
    """Installs timing wrappers and aggregates the spans they record."""

    def __init__(self):
        self.active = False
        self.spans: List[dict] = []
        self.spans_dropped = 0
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.rho1_iterations: List[int] = []
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"audkit.{m}") for m in LAYERS]
        namespaces = [audkit] + modules
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if n[0] != "_"]
            for name in names:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patches.append((ns, attr, obj))
                                setattr(ns, attr, wrapper)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patches.append((obj, attr, fn))
                            setattr(obj, attr, self._wrap(f"{layer}.{name}.{attr}", fn))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # --- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._close(frame)
                if observe:
                    observe(tracer, frame, signature.bind(*args, **kwargs), None, err)
                raise
            tracer._close(frame)
            if observe:
                observe(tracer, frame, signature.bind(*args, **kwargs), result, None)
            return result

        return wrapper

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        frame = _Frame(name, self._next_id, parent, time.perf_counter())
        self._stack.append(frame)
        if (name == "queue_core.solve_rho1" and parent is not None
                and parent.name == "queue_core.rho1_value"):
            parent.extra = {"solved": True}
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = frame.duration = end - frame.start
        if frame.parent is not None:
            frame.parent.child += duration
        entry = self.stats[frame.name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child
        if len(self.spans) < SPAN_CAP:
            self.spans.append({
                "name": frame.name,
                "id": frame.id,
                "parent": frame.parent.id if frame.parent else None,
                "start": frame.start,
                "end": end,
            })
        else:
            self.spans_dropped += 1

    def ancestor(self, frame: _Frame, name: str) -> Optional[_Frame]:
        node = frame.parent
        while node is not None and node.name != name:
            node = node.parent
        return node

    # --- per-layer metrics ------------------------------------------------

    def _mean_ms(self, name: str, self_time: bool = False) -> float:
        calls, total, self_total = self.stats.get(name, (0, 0.0, 0.0))
        return 1e3 * _ratio(self_total if self_time else total, calls)

    def layer_metrics(self, n_ops: int, extra: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics over the traced operations; ``extra`` fills the rest."""
        stats, counts, mean_ms = self.stats, self.counts, self._mean_ms
        out: Dict[str, float] = {}
        for cls, tag in FAMILY_TAGS.items():
            transforms = [stats[f"dist.{cls}.{m}"] for m in ("laplace", "weighted_first_moment")]
            calls = sum(t[0] for t in transforms)
            out[f"dist.{tag}.transform_calls"] = _ratio(calls, n_ops)
            out[f"dist.{tag}.transform_us"] = 1e6 * _ratio(sum(t[2] for t in transforms), calls)
        samples = [stats[f"dist.{cls}.sample"] for cls in FAMILY_TAGS]
        out["dist.sample_ms"] = 1e3 * _ratio(sum(t[1] for t in samples),
                                             sum(t[0] for t in samples))

        its = sorted(self.rho1_iterations)
        out["queue_core.solve_rho1.calls"] = _ratio(stats["queue_core.solve_rho1"][0], n_ops)
        out["queue_core.solve_rho1.iterations_p50"] = float(its[len(its) // 2]) if its else 0.0
        out["queue_core.solve_rho1.iterations_max"] = float(its[-1]) if its else 0.0
        out["queue_core.solve_rho1.self_ms"] = mean_ms("queue_core.solve_rho1", True)
        out["queue_core.rho1_cache_hit_ratio"] = _ratio(counts["rho1_hits"],
                                                        counts["rho1_lookups"])
        for fn in ("derive", "mean_aud", "missing_probability"):
            out[f"queue_core.{fn}_ms"] = mean_ms(f"queue_core.{fn}")

        bisections = counts["bisections"]
        out["optimize.outer_iterations"] = _ratio(counts["outer_iterations"], bisections)
        out["optimize.objective_evals"] = _ratio(counts["objective_evals"], bisections)
        out["optimize.objective_us"] = 1e3 * mean_ms("optimize.penalized_objective")
        out["optimize.objective_share"] = _ratio(stats["optimize.penalized_objective"][1],
                                                 stats["optimize.bisection_optimal_arrival"][1])
        out["optimize.offset_iterations"] = _ratio(counts["offset_iterations"],
                                                   counts["offset_calls"])

        out["sim.run_trajectory_ms"] = mean_ms("sim.run_trajectory")
        out["sim.assign_decisions_ms"] = mean_ms("sim.assign_decisions")
        out["sim.lindley_epochs_ms"] = mean_ms("sim.run_trajectory", True)
        out["sim.aggregate_ms"] = mean_ms("sim.run_replications", True)
        out["sim.dump_ms"] = mean_ms("sim.dump_trajectory_csv")
        out["sim.dump_bytes"] = _ratio(counts["dump_bytes"], stats["sim.dump_trajectory_csv"][0])
        out["sim.threads_speedup"] = 0.0

        out["report.sweep_row_ms"] = 1e3 * _ratio(stats["report.run_sweep"][1],
                                                  counts["sweep_rows"])
        out["report.serialize_ms"] = mean_ms("report.serialize")
        out["report.repeat_optimum_ratio"] = _ratio(counts["repeat_optimum"],
                                                    counts["optimum_cells"])
        for cmd in SUBCOMMANDS:
            out[f"cli.main_ms.{cmd}"] = 1e3 * _ratio(counts[f"main:{cmd}:s"],
                                                     counts[f"main:{cmd}:calls"])
        out["cli.import_s"] = 0.0
        out["bench.trace_overhead"] = 0.0
        out.update(extra)
        return {name: out[name] for name in PER_LAYER_UNITS}

    def name_stats(self) -> Dict[str, dict]:
        return {
            name: {"calls": int(c), "total_ms": 1e3 * t, "self_ms": 1e3 * s}
            for name, (c, t, s) in sorted(self.stats.items()) if c
        }


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


# --- observers: facts read from arguments and results at span close ---------


def _solve_rho1(tracer, frame, bound, result, err):
    if result is not None:
        tracer.rho1_iterations.append(result.iterations)
    elif isinstance(err, ConvergenceError):
        bound.apply_defaults()
        tracer.rho1_iterations.append(bound.arguments["max_iter"])


def _rho1_value(tracer, frame, bound, result, err):
    if isinstance(bound.arguments["arrival"], audkit.Deterministic):
        return  # closed form via Lambert W; no cache involved
    tracer.counts["rho1_lookups"] += 1
    if not (frame.extra and frame.extra.get("solved")):
        tracer.counts["rho1_hits"] += 1


def _bisection(tracer, frame, bound, result, err):
    if result is not None:
        tracer.counts["bisections"] += 1
        tracer.counts["outer_iterations"] += result.outer_iterations
        tracer.counts["objective_evals"] += result.inner_evaluations
    sweep = tracer.ancestor(frame, "report.run_sweep")
    if sweep is not None:
        key = (bound.arguments["family"], bound.arguments["mu"])
        if sweep.extra is None:
            sweep.extra = {"optima": set()}
        seen = sweep.extra["optima"]
        tracer.counts["optimum_cells"] += 1
        if key in seen:
            tracer.counts["repeat_optimum"] += 1
        seen.add(key)


def _offset(tracer, frame, bound, result, err):
    tracer.counts["offset_calls"] += 1
    if result is not None:
        tracer.counts["offset_iterations"] += result.iterations
    elif isinstance(err, ConvergenceError):
        bound.apply_defaults()
        tracer.counts["offset_iterations"] += bound.arguments["max_iter"]


def _run_sweep(tracer, frame, bound, result, err):
    if result is not None:
        tracer.counts["sweep_rows"] += len(result)


def _dump(tracer, frame, bound, result, err):
    if result is not None:
        tracer.counts["dump_bytes"] += os.path.getsize(result)


def _main(tracer, frame, bound, result, err):
    argv = bound.arguments.get("argv") or []
    if argv:
        tracer.counts[f"main:{argv[0]}:calls"] += 1
        tracer.counts[f"main:{argv[0]}:s"] += frame.duration


_OBSERVERS = {
    "queue_core.solve_rho1": _solve_rho1,
    "queue_core.rho1_value": _rho1_value,
    "optimize.bisection_optimal_arrival": _bisection,
    "optimize.optimize_offset": _offset,
    "report.run_sweep": _run_sweep,
    "sim.dump_trajectory_csv": _dump,
    "cli.main": _main,
}
