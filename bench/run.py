#!/usr/bin/env python3
"""Benchmark of audkit: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One caller runs the workload's operations in a closed loop, in a number of
whole passes that ``--seconds`` fixes (``passes_for``), so that a run does
the same work, and fails the same operations, whatever the speed of the
machine.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
result file with the environment, every metric and every failure goes to
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("closed-form", "optimize", "monte-carlo")

# name -> unit of every end-to-end metric reported to the caller
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# also printed and written to the result file, where they apply
EXTRA_UNITS = {"fail_ratio": "ratio", "updates_per_s": "1/s", "dump_rows_per_s": "1/s"}

SETUP_PROBES = {"full": 5, "tiny": 1}

# Time of one full-size pass at the reference speed (see REFERENCE_S) on the
# 2-vCPU machine the benchmark was built on; a run makes seconds / PASS_S
# passes, whatever the speed, so its work and its failures are fixed.
PASS_S = {"closed-form": 3.6, "optimize": 6.0, "monte-carlo": 3.3}

# The machine the benchmark was built on changes speed by up to 75% from one
# minute to the next.  The runner therefore times a short fixed loop every
# CALIBRATE_EVERY_S between operations, and scales each pass's timings to a
# machine on which that loop takes REFERENCE_S.  Unscaled values go to the
# result file.  The loop is Python method calls doing scalar float math, as
# audkit's densities and objectives do, plus a numpy sort; it tracked the
# Lomax transforms, run_replications and optimize_offset across slow and fast
# minutes to within 1-3% (coefficient of variation).
REFERENCE_S = 0.0013
CALIBRATE_EVERY_S = 0.2


class _Scalar:
    """An object whose method does scalar float math, for the calibration loop."""

    def __init__(self, a: float):
        self.a = a

    def value(self, x: float) -> float:
        return self.a * math.log1p(x / (x + 1.0)) - math.exp(-x)


class Calibrator:
    """Samples the calibration loop; ``take`` returns the mean since the last take."""

    def __init__(self):
        import numpy as np

        self._sort = np.sort
        self._data = np.random.default_rng(0).random(20_000)
        self._scalar = _Scalar(2.5)
        self._last = -CALIBRATE_EVERY_S
        self._samples = []

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < CALIBRATE_EVERY_S:
            return
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += self._scalar.value(i * 1e-3)
        self._sort(self._data)
        self._last = time.perf_counter()
        self._samples.append(self._last - t0)

    def take(self) -> float:
        mean = statistics.mean(self._samples)
        self._samples = []
        return mean


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every pass, for the self-test")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_sources() -> None:
    """Import audkit from this checkout's src/ and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "audkit", "__init__.py")):
        sys.exit(f"error: no audkit sources at {os.path.relpath(SRC)}; run from a full checkout")
    sys.path[:0] = [SRC, BENCH]
    import audkit

    if os.path.dirname(os.path.dirname(os.path.abspath(audkit.__file__))) != SRC:
        sys.exit(f"error: imported audkit from {audkit.__file__}, not from {SRC}")


# --- set-up time -------------------------------------------------------------


def probe(args) -> None:
    """Child side of a set-up measurement: import audkit, make the first pass."""
    t0 = time.perf_counter()
    use_checkout_sources()
    import audkit.cli  # noqa: F401  (imports every layer)

    import_s = time.perf_counter() - t0
    import workloads

    workloads.PASSES[args.workload](args.seed, 0, workloads.SIZES[args.size], OUT)
    done_at = time.time()
    calibrator = Calibrator()
    for _ in range(30):
        calibrator.sample(force=True)
    print(json.dumps({"done_at": done_at, "import_s": import_s,
                      "reference_s": calibrator.take()}))


def measure_setup(args):
    """Median time from spawning a fresh interpreter until the inputs exist.

    Returns the scaled median, the unscaled median and the median import time.
    """
    walls, scaled, imports = [], [], []
    for _ in range(SETUP_PROBES[args.size]):
        cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size]
        spawned = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(report["done_at"] - spawned)
        scaled.append(walls[-1] * REFERENCE_S / report["reference_s"])
        imports.append(report["import_s"])
    return statistics.median(scaled), statistics.median(walls), statistics.median(imports)


# --- the measured loop ---------------------------------------------------------


class Samples:
    """Latencies, dump counters and failures of the operations of one kind of pass."""

    def __init__(self):
        self.latency = []
        self.kinds = []
        self.dump_rows = 0  # rows written by the dump operations
        self.dump_s = 0.0  # time spent in dump_trajectory_csv
        self.failures = []
        self.scaled = []  # latencies scaled to the reference machine
        self.passes = []  # (operations, scaled busy s, scaled median s, reference s)

    def close_pass(self, first: int, reference: float) -> None:
        lat = [v * REFERENCE_S / reference for v in self.latency[first:]]
        self.scaled.extend(lat)
        self.passes.append((len(lat), sum(lat), statistics.median(lat), reference))


def run_op(op, samples: Samples, tracer, calibrator, workloads) -> None:
    from audkit import AudKitError

    op.prepare()
    result = error = None
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as err:  # a failing operation must not stop the run
        error = err
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    calibrator.sample()
    samples.latency.append(elapsed)
    samples.kinds.append(op.kind)
    if isinstance(result, workloads.DumpResult):
        samples.dump_rows += result.rows
        samples.dump_s += result.seconds
    if error is not None:
        known = op.known_error(error) if isinstance(error, AudKitError) else None
        message = f"{type(error).__name__}: {error}"
        if not isinstance(error, AudKitError):
            message += "\n" + "".join(traceback.format_exception(error))
        samples.failures.append({"kind": op.kind, "known": known, "message": message[:2000]})
        return
    try:
        op.check(result)
    except workloads.Failure as fail:
        samples.failures.append({"kind": op.kind, "known": fail.known, "message": str(fail)})
    except Exception as err:  # a crashing check is an unexplained failure
        samples.failures.append({"kind": op.kind, "known": None,
                                 "message": "".join(traceback.format_exception(err))[:2000]})


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes of a run: about ``seconds`` of work, and at least two."""
    return max(2, round(seconds / PASS_S[workload]))


def run_passes(args, tmpdir, tracer):
    """A fixed number of whole passes; traced passes alternate with untraced ones."""
    import workloads

    make = workloads.PASSES[args.workload]
    size = workloads.SIZES[args.size]
    plain, traced = Samples(), Samples()
    calibrator = Calibrator()
    passes = passes_for(args.workload, args.seconds)
    start = time.perf_counter()
    for index in range(passes):
        ops = make(args.seed, index, size, tmpdir)
        on = tracer is not None and index % 2 == 1
        samples = traced if on else plain
        first = len(samples.latency)
        calibrator.sample(force=True)
        if on:
            tracer.install()
        try:
            for op in ops:
                run_op(op, samples, tracer if on else None, calibrator, workloads)
        finally:
            if on:
                tracer.uninstall()
        samples.close_pass(first, calibrator.take())
    return plain, traced, passes, time.perf_counter() - start


def end_to_end(samples: Samples, setup_s: float, tail_pct: float, updates_per_op: int) -> dict:
    """``updates_per_op`` is the updates one replication operation simulates (0: none)."""
    import numpy as np

    attempted = len(samples.latency)
    # Rate and median are medians over passes: every pass has the same mix
    # of operations, so a pass slowed by a noisy neighbour is an outlier.
    out = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(n / busy for n, busy, _, _ in samples.passes),
        "op_p50_ms": 1e3 * statistics.median(median for _, _, median, _ in samples.passes),
        "op_tail_ms": 1e3 * float(np.percentile(samples.scaled, tail_pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": len(samples.failures) / attempted,
    }
    if updates_per_op:
        replications = [s for kind, s in zip(samples.kinds, samples.latency) if kind != "dump"]
        out["updates_per_s"] = updates_per_op * len(replications) / sum(replications)
    if samples.dump_rows:
        out["dump_rows_per_s"] = samples.dump_rows / samples.dump_s
    return out


def unscaled(samples: Samples, setup_wall_s: float, tail_pct: float) -> dict:
    """The timing metrics as measured, before scaling to the reference machine."""
    import numpy as np

    lat = np.asarray(samples.latency)
    return {
        "setup_s": setup_wall_s,
        "ops_per_s": len(lat) / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.median(lat)),
        "op_tail_ms": 1e3 * float(np.percentile(lat, tail_pct)),
    }


def latency_by_kind(samples: Samples) -> dict:
    by_kind = {}
    for kind, seconds in zip(samples.kinds, samples.latency):
        by_kind.setdefault(kind, []).append(1e3 * seconds)
    return {kind: {"count": len(v), "p50_ms": statistics.median(v), "max_ms": max(v)}
            for kind, v in sorted(by_kind.items())}


def threads_speedup(args, size) -> tuple:
    """run_replications wall time at threads=1 over threads=nproc; reports must match."""
    import audkit as ak
    import numpy as np
    from audkit import sim

    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 10**6]))
    mu = float(rng.uniform(0.5, 2.0))
    config = ak.SystemConfig(ak.Exponential(rate=0.6 * mu), ak.ServiceModel(rate=mu),
                             ak.PoissonDecisions(rate=mu))
    nproc = os.cpu_count() or 1
    times, reports = [], []
    for threads in (1, nproc):
        t0 = time.perf_counter()
        reports.append(sim.run_replications(config, horizon=size["horizon"],
                                            n_reps=size["replications"], base_seed=args.seed,
                                            threads=threads))
        times.append(time.perf_counter() - t0)
    return times[0] / times[1], reports[0] == reports[1]


# --- reporting -------------------------------------------------------------------


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
    }


def summarize_failures(failures) -> dict:
    from workloads import KNOWN_DEFECTS

    known, unexpected = {}, []
    for f in failures:
        if f["known"] is None:
            unexpected.append(f)
        else:
            entry = known.setdefault(f["known"], {
                "symptom": KNOWN_DEFECTS[f["known"]], "count": 0, "examples": []})
            entry["count"] += 1
            if len(entry["examples"]) < 3:
                entry["examples"].append(f["message"])
    return {"known": known, "unexpected": unexpected[:20], "unexpected_count": len(unexpected)}


def latest_overhead(workload: str) -> dict:
    """The overhead of the newest traced result file of the workload, and where it came from.

    That run may have used another seed, size or version of the code; the
    source fields say which run it was.
    """
    files = sorted(glob.glob(os.path.join(OUT, f"{workload}-seed*-trace1.json")),
                   key=os.path.getmtime)
    if not files:
        return {"value": None, "source": None}
    with open(files[-1], encoding="utf-8") as fh:
        traced = json.load(fh)
    return {
        "value": traced["tracing_overhead"]["value"],
        "source": {
            "file": os.path.relpath(files[-1], ROOT),
            "seed": traced["seed"],
            "size": traced["size"],
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z",
                                        time.localtime(os.path.getmtime(files[-1]))),
        },
    }


def print_metric(workload, name, value, unit, note=""):
    print(f"{workload:<12} {name:<38} {value:>16.6g} {unit}{note}")


def run_workload(args) -> int:
    use_checkout_sources()
    setup_s, setup_wall_s, import_s = measure_setup(args)
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer

    os.makedirs(OUT, exist_ok=True)
    tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    try:
        plain, traced, passes, elapsed = run_passes(args, tmpdir, tracer)
        size = workloads.SIZES[args.size]
        updates_per_op = size["horizon"] * size["replications"] \
            if args.workload == "monte-carlo" else 0
        metrics = end_to_end(plain, setup_s, tail_pct, updates_per_op)
        failures = plain.failures + traced.failures
        attempted = len(plain.latency) + len(traced.latency)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "size": args.size,
            "trace": args.trace,
            "environment": environment(args),
            "passes": passes,
            "measured_s": elapsed,
            "attempted": attempted,
            "failed": len(failures),
            "op_tail_percentile": tail_pct,
            "op_tail_samples_beyond": int(sum(
                1 for v in plain.scaled if v > metrics["op_tail_ms"] / 1e3)),
            "reference_s": {"nominal": REFERENCE_S,
                            "per_pass": [p[3] for p in plain.passes + traced.passes]},
            "unscaled": unscaled(plain, setup_wall_s, tail_pct),
            "end_to_end": {k: {"value": v, "unit": {**END_TO_END_UNITS, **EXTRA_UNITS}[k]}
                           for k, v in metrics.items()},
            "latency_by_kind": latency_by_kind(plain),
            "pass_stats": plain.passes,
        }
        if tracer is not None:
            overhead = (sum(traced.scaled) / len(traced.scaled)) / (
                sum(plain.scaled) / len(plain.scaled)) - 1.0
            extra = {"cli.import_s": import_s, "bench.trace_overhead": overhead}
            if args.workload == "monte-carlo":
                speedup, identical = threads_speedup(args, size)
                extra["sim.threads_speedup"] = speedup
                attempted += 1
                if not identical:
                    failures.append({"kind": "threads", "known": None,
                                     "message": "run_replications report depends on threads"})
            layer = tracer.layer_metrics(len(traced.latency), extra)
            result.update({
                "attempted": attempted,
                "failed": len(failures),
                "tracing_overhead": {"value": overhead, "source": "this run"},
                "per_layer": {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                              for k, v in layer.items()},
                "traced_ops": len(traced.latency),
                "functions": tracer.name_stats(),
                "spans": tracer.spans,
                "spans_dropped": tracer.spans_dropped,
            })
        else:
            result["tracing_overhead"] = latest_overhead(args.workload)
        result["failures"] = summarize_failures(failures)
        correct = result["failures"]["unexpected_count"] == 0
        result["correct"] = correct
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    for defect, entry in result["failures"]["known"].items():
        print(f"{args.workload:<12} known defect {defect}: {entry['count']} failed operations")
    for f in result["failures"]["unexpected"][:5]:
        print(f"{args.workload:<12} UNEXPECTED {f['kind']}: {f['message'].splitlines()[0]}")
    if args.trace:
        reported = {k: v["value"] for k, v in result["per_layer"].items()}
        units = PER_LAYER_UNITS
    else:
        for name in EXTRA_UNITS:
            if name in metrics:
                print_metric(args.workload, name, metrics[name], EXTRA_UNITS[name])
        reported = {k: metrics[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    for name, value in reported.items():
        note = f"  (p{tail_pct:g}, {result['op_tail_samples_beyond']} samples beyond)" \
            if name == "op_tail_ms" else ""
        print_metric(args.workload, name, value, units[name], note)
    print(f"{args.workload:<12} result file {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    if args.workload == "all":
        use_checkout_sources()  # fail fast outside a checkout
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
