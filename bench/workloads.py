"""Inputs, operations and correctness checks of the three benchmark workloads.

A workload is a sequence of passes.  Pass ``p`` of a run with seed ``s`` is
drawn from ``numpy.random.SeedSequence([s, p])``, so the same seed gives the
same inputs, and every pass holds fresh, distinct inputs (a cache warmed by
one pass does not serve the next).  Loads and other cost-driving parameters
are stratified inside a pass, so every pass carries the same mix of cheap and
expensive operations whatever the seed.

The inputs that reach a known seed defect are drawn from regions where the
defect shows on every draw, and the other inputs from regions where it never
does, so every pass of every seed fails the same number of operations:
``failed / attempted`` does not depend on the seed or on the machine.

Each operation is an ``Op``: ``prepare`` runs untimed (writing an input file,
say), ``run`` is the timed call into audkit, and ``check`` validates what it
returned.  A check raises ``Failure``; a failure that one of the known seed
defects explains carries that defect's id in ``known``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import audkit as ak
from audkit import cli, queue_core as qc, sim
from audkit.dist import format_arrival

# Seed defects the benchmark counts as failures without calling the run
# incorrect.  Each id maps to the symptom that identifies it.
KNOWN_DEFECTS = {
    "rho1-near-critical": "at rho >= 0.9999 solve_rho1 raises ConvergenceError or "
    "the closed forms lose accuracy (exp/poisson vs average_aud_mm1m, det/poisson vs "
    "average_aud_dm1m)",
    "offset-convergence": "optimize_offset raises ConvergenceError after 100k "
    "iterations for lam/mu above about 0.817",
    "dm1d-offset-formula": "average_aud_dm1d_offset disagrees with Monte Carlo, "
    "which agrees with the independent offset law",
}

# Per-workload percentile reported as op_tail_ms: the highest standard
# percentile with at least ten samples beyond it in a 30 s run at the seed.
TAIL_PERCENTILE = {"closed-form": 99.0, "optimize": 95.0, "monte-carlo": 75.0}

SIZES = {
    "full": {
        "configs": 500,          # closed-form configurations per pass
        "offsets": 100,          # optimize-offset calls per pass
        "offset_sweep_rows": 8,
        "arrival_sweep_rows": 3,
        "arrival_families": ("fnorm", "exp", "uniform"),
        "arrival_sweeps": ("exp", "uniform"),
        "horizon": 200_000,      # Monte Carlo updates per replication
        "replications": 10,
        "dump_rows": 20_000,
    },
    "tiny": {
        "configs": 25,
        "offsets": 3,
        "offset_sweep_rows": 3,
        "arrival_sweep_rows": 2,
        "arrival_families": ("exp",),
        "arrival_sweeps": ("exp",),
        "horizon": 50_000,
        "replications": 4,
        "dump_rows": 2_000,
    },
}

# closed-form tolerances
RESIDUAL_TOL = 1e-10    # |L(mu(1-rho1)) - rho1|; the solver stops at 1e-12
MM1M_REL_TOL = 1e-5     # ten times the error a 1e-12 residual allows at rho 0.999
DM1M_REL_TOL = 1e-9     # both sides share the Lambert-W rho1
NEAR_CRITICAL = 0.9999
# The near-critical share: 1 - rho in [1e-5, 7e-5].  From rho = 0.99992 up,
# solve_rho1 fails on every exp, uniform and fnorm configuration.
CRITICAL_GAP = (1e-5, 7e-5)
# optimize_offset fails from lam/mu = 0.8173 up at the seed; a failure at a
# load below OFFSET_BAND is not the known defect.
OFFSET_BAND = 0.81
# optimize-offset loads: OFFSET_LOW passes at the seed and OFFSET_HIGH fails;
# the gap around 0.8173 keeps every call on a known side of it.
OFFSET_LOW = (0.05, 0.80)
OFFSET_HIGH = (0.83, 0.95)
# Monte Carlo: |mean - closed form| <= Z_BOUND standard errors.  With ten
# replications the statistic has nine degrees of freedom; 8 keeps a false
# alarm below 3e-5 per operation and passed the Lomax shapes used here.
Z_BOUND = 8.0


class Failure(Exception):
    """A failed correctness check; ``known`` names the seed defect behind it."""

    def __init__(self, message: str, known: Optional[str] = None):
        super().__init__(message)
        self.known = known


def _no_known_defect(err: Exception) -> Optional[str]:
    return None


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] = lambda: None
    known_error: Callable[[Exception], Optional[str]] = _no_known_defect


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values, one uniform draw from each of n equal slices of [lo, hi], shuffled."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# --- closed-form ----------------------------------------------------------------


def _arrival_at_load(rng, family: str, lam: float) -> ak.ArrivalModel:
    if family == "exp":
        return ak.Exponential(rate=lam)
    if family == "uniform":
        return ak.Uniform(beta=2.0 / lam)
    if family == "lomax":
        alpha = rng.uniform(2.5, 6.0)
        return ak.Lomax(alpha=alpha, beta=(alpha - 1.0) / lam)
    if family == "fnorm":
        shape = ak.FoldedNormal(alpha=1.0, sigma=_log_uniform(rng, 0.05, 2.0))
        scale = 1.0 / (lam * shape.mean())
        return ak.FoldedNormal(alpha=scale, sigma=shape.sigma * scale)
    return ak.Deterministic(period=1.0 / lam)


def _closed_form_op(arrival, mu: float, decision, rho: float) -> Op:
    family = type(arrival).__name__
    discipline = type(decision).__name__

    def run():
        config = ak.SystemConfig(arrival, ak.ServiceModel(rate=mu), decision)
        return config, qc.derive(config), qc.mean_aud(config), qc.missing_probability(config)

    def known_error(err):
        if isinstance(err, ak.ConvergenceError) and rho >= NEAR_CRITICAL:
            return "rho1-near-critical"
        return None

    def check(out):
        config, derived, aud, pmis = out
        residual = abs(arrival.laplace(mu * (1.0 - derived.rho1)) - derived.rho1)
        if not residual <= RESIDUAL_TOL:
            raise Failure(f"rho1 residual {residual:.3g} at rho={rho}")
        lam = config.arrival_rate
        if isinstance(arrival, ak.Exponential) and isinstance(decision, ak.PoissonDecisions):
            err = _rel(aud, qc.average_aud_mm1m(lam, mu))
            if not err <= MM1M_REL_TOL:
                known = "rho1-near-critical" if rho >= NEAR_CRITICAL else None
                raise Failure(f"exp/poisson AuD off mm1m by {err:.3g} at rho={rho}", known)
        if isinstance(arrival, ak.Deterministic) and isinstance(decision, ak.PoissonDecisions):
            err = _rel(aud, qc.average_aud_dm1m(lam, mu))
            if not err <= DM1M_REL_TOL:
                known = "rho1-near-critical" if rho >= NEAR_CRITICAL else None
                raise Failure(f"det/poisson AuD off dm1m by {err:.3g} at rho={rho}", known)
        if pmis is not None and not 0.0 <= pmis <= 1.0:
            raise Failure(f"missing probability {pmis} outside [0, 1]")
        if not (math.isfinite(aud) and aud > 0.0):
            raise Failure(f"mean AuD {aud} not finite and positive")

    return Op(f"{family}/{discipline}", run, check, known_error=known_error)


def closed_form_pass(seed: int, index: int, size: dict, tmpdir: str) -> List[Op]:
    """One analyze-style operation per configuration, all five families.

    Every family gets a fifth of the pass.  Loads are stratified over
    [0.05, 0.999] (Lomax: [0.05, 0.95], where its quadrature stays
    tractable); exp, uniform and fnorm also get 1% of their share in the
    near-critical band 0.99993-0.99999, where solve_rho1 fails on every
    draw.  Deterministic arrivals rotate through the three decision
    disciplines and get no near-critical share: their rho1 is a Lambert-W
    closed form, not a solve, and near rho = 1 the det/poisson check against
    average_aud_dm1m passes or fails with the last bit of the load.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    per_family = size["configs"] // 5
    ops: List[Op] = []
    for family in ("exp", "uniform", "lomax", "fnorm", "det"):
        if family == "lomax":
            loads = _strata(rng, per_family, 0.05, 0.95)
        elif family == "det":
            loads = _strata(rng, per_family, 0.05, 0.999)
        else:
            n_crit = max(1, per_family // 100)
            gap = np.exp(_strata(rng, n_crit, *np.log(CRITICAL_GAP)))
            loads = np.concatenate([_strata(rng, per_family - n_crit, 0.05, 0.999), 1.0 - gap])
        for i, rho in enumerate(loads):
            rho = float(rho)
            mu = _log_uniform(rng, 0.5, 2.0)
            arrival = _arrival_at_load(rng, family, rho * mu)
            if family == "det" and i % 3 == 1:
                decision = ak.PeriodicSyncDecisions(m0=int(rng.integers(1, 5)))
            elif family == "det" and i % 3 == 2:
                delta = rng.uniform(0.05, 0.95) * arrival.period
                decision = ak.PeriodicOffsetDecisions(delta=delta)
            else:
                decision = ak.PoissonDecisions(rate=mu * _log_uniform(rng, 0.2, 2.0))
            ops.append(_closed_form_op(arrival, mu, decision, rho))
    return [ops[i] for i in rng.permutation(len(ops))]


# --- optimize -------------------------------------------------------------------


def _schemas() -> dict:
    from jsonschema import Draft202012Validator

    root = os.path.join(os.path.dirname(ak.__file__), "schemas")
    out = {}
    for name in ("cli", "sweep"):
        with open(os.path.join(root, f"{name}.schema.json"), encoding="utf-8") as fh:
            out[name] = Draft202012Validator(json.load(fh))
    return out


_VALIDATORS: dict = {}


def _validate(doc: dict, schema: str) -> None:
    if not _VALIDATORS:
        _VALIDATORS.update(_schemas())
    errors = sorted(_VALIDATORS[schema].iter_errors(doc), key=str)
    if errors:
        raise Failure(f"output fails {schema}.schema.json: {errors[0].message[:200]}")


def _positive_finite(value, what: str) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise Failure(f"{what} = {value!r} is not finite and positive")


def _offset_defect(load: float) -> Optional[str]:
    """The known defect behind an offset search that fails at lam/mu = ``load``."""
    return "offset-convergence" if load >= OFFSET_BAND else None


def _cli_op(kind: str, argv: List[str], out_path: str, check_doc, prepare=lambda: None,
            offset_load: Optional[float] = None) -> Op:
    """``offset_load`` is lam/mu of an optimize-offset call, None for other calls."""

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue()

    def check(result):
        rc, stderr = result
        if rc != 0:
            known = None
            if offset_load is not None and rc == 3 and "offset search did not reach" in stderr:
                known = _offset_defect(offset_load)
            raise Failure(f"{' '.join(argv[:5])} exited {rc}: {stderr.strip()[:200]}", known)
        with open(out_path, encoding="utf-8") as fh:
            check_doc(json.load(fh))

    return Op(kind, run, check, prepare=prepare)


def _check_arrival_doc(doc: dict) -> None:
    _validate(doc, "cli")
    _positive_finite(doc["c0"], "c0")


def _check_offset_doc(doc: dict) -> None:
    _validate(doc, "cli")


def _check_sweep_doc(doc: dict, mu: float) -> None:
    """Raises the first failure that no known defect explains, else the first one."""
    _validate(doc, "sweep")
    failures = []
    for row in doc["rows"]:
        for name, cell in row["cells"].items():
            status = cell["status"]
            try:
                if status == "ok":
                    if name == "aud_opt":
                        _positive_finite(cell["value"], f"c0 at grid {row['grid']}")
                elif status == "ConvergenceError" and name in ("delta_opt", "aud_at_delta_opt"):
                    load = row["grid"] / mu
                    raise Failure(f"optimal-offset cell at lambda={row['grid']} "
                                  f"(lam/mu {load:.4f}) failed", _offset_defect(load))
                else:
                    raise Failure(f"cell {name} at grid {row['grid']} has status {status!r}")
            except Failure as fail:
                failures.append(fail)
    if failures:
        raise next((f for f in failures if f.known is None), failures[0])


def _sweep_op(path: str, out_path: str, spec: dict) -> Op:
    def prepare():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

    mu = spec["template"]["mu"]
    argv = ["sweep", "--spec", path, "--json", "--out", out_path]
    return _cli_op("sweep", argv, out_path, lambda doc: _check_sweep_doc(doc, mu), prepare)


def optimize_pass(seed: int, index: int, size: dict, tmpdir: str) -> List[Op]:
    """In-process CLI calls of the two optimizers and of optimizer sweeps.

    Per pass: optimize-arrival for each family, optimize-offset over loads
    stratified on OFFSET_LOW and, for 15% of the calls, on OFFSET_HIGH (the
    band above 0.8173 where the offset search fails at the seed), one lambda
    sweep per arrival-sweep family whose optimal-arrival rows all recompute
    the same optimum, and one lambda sweep of optimal-offset over loads
    0.1-0.9.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    out = os.path.join(tmpdir, "optimize-out.json")
    ops: List[Op] = []
    for family in size["arrival_families"]:
        mu = _log_uniform(rng, 0.5, 2.0)
        argv = ["optimize-arrival", "--family", family, "--mu", repr(mu), "--json", "--out", out]
        ops.append(_cli_op("optimize-arrival", argv, out, _check_arrival_doc))
    for family in size["arrival_sweeps"]:
        mu = _log_uniform(rng, 0.5, 2.0)
        grid = sorted(mu * _strata(rng, size["arrival_sweep_rows"], 0.2, 0.8))
        template = format_arrival(_arrival_at_load(rng, family, 0.5 * mu))
        spec = {
            "variable": "lambda",
            "grid": [float(v) for v in grid],
            "template": {"arrival": template, "mu": mu, "decision": f"poisson:rate={mu!r}"},
            "evaluations": ["analytic-aud", "optimal-arrival"],
        }
        ops.append(_sweep_op(os.path.join(tmpdir, f"arrival-sweep-{len(ops)}.json"), out, spec))
    mu = _log_uniform(rng, 0.5, 2.0)
    # An evenly spaced grid over loads 0.1-0.9, jittered by +-0.02: the top
    # row always lies above the 0.8173 where the offset search fails, the
    # next always below, so every sweep costs the same.
    rows = size["offset_sweep_rows"]
    grid = mu * (np.linspace(0.1, 0.9, rows) + rng.uniform(-0.02, 0.02, rows))
    spec = {
        "variable": "lambda",
        "grid": [float(v) for v in grid],
        "template": {"arrival": f"det:period={2.0 / mu!r}", "mu": mu,
                     "decision": f"poisson:rate={mu!r}"},
        "evaluations": ["optimal-offset"],
    }
    ops.append(_sweep_op(os.path.join(tmpdir, "offset-sweep.json"), out, spec))
    n_high = max(1, round(0.15 * size["offsets"]))
    loads = np.concatenate([_strata(rng, size["offsets"] - n_high, *OFFSET_LOW),
                            _strata(rng, n_high, *OFFSET_HIGH)])
    for load in rng.permutation(loads):
        mu = _log_uniform(rng, 0.5, 2.0)
        lam = float(load) * mu
        argv = ["optimize-offset", "--lambda", repr(lam), "--mu", repr(mu),
                "--json", "--out", out]
        ops.append(_cli_op("optimize-offset", argv, out, _check_offset_doc,
                           offset_load=lam / mu))
    return ops


# --- monte-carlo ----------------------------------------------------------------


def exact_offset_aud(lam: float, mu: float, delta: float) -> float:
    """Mean AuD of the offset-periodic system from the system-time recursion.

    The age at a decision is delta plus one period for each consecutive
    predecessor whose system time overshot its slot, a geometric count;
    this law is independent of ``average_aud_dm1d_offset``.
    """
    rho1 = qc.rho1_deterministic(lam / mu)
    u1 = math.exp(-mu * (1.0 - rho1) * delta)
    return delta + u1 / (lam * (1.0 - rho1))


def _replication_op(config, horizon: int, reps: int, base_seed: int, state: dict) -> Op:
    def run():
        report = sim.run_replications(config, horizon=horizon, n_reps=reps, base_seed=base_seed)
        state[config] = report
        return report

    def check(report):
        closed = qc.mean_aud(config)
        z = (report.mean_aud - closed) / report.aud_std_error
        if abs(z) <= Z_BOUND:
            return
        known = None
        if isinstance(config.decision, ak.PeriodicOffsetDecisions):
            lam, mu = config.arrival_rate, config.service.rate
            exact = exact_offset_aud(lam, mu, config.decision.delta)
            if abs(report.mean_aud - exact) <= Z_BOUND * report.aud_std_error:
                known = "dm1d-offset-formula"
        raise Failure(
            f"{config.describe()}: Monte Carlo {report.mean_aud:.6g} vs closed form "
            f"{closed:.6g}, z = {z:.2f}", known,
        )

    kind = f"{type(config.arrival).__name__}/{type(config.decision).__name__}"
    return Op(kind, run, check)


def _slice(records: "sim.UpdateRecords", decisions: "sim.DecisionSamples", rows: int):
    """First ``rows`` updates of a trajectory and the decisions made over them."""
    rows = min(rows, len(records))
    head = sim.UpdateRecords(*(getattr(records, f)[:rows] for f in records.__dataclass_fields__))
    keep = int(np.searchsorted(decisions.epoch, records.departure[rows - 1], side="right"))
    dec = sim.DecisionSamples(
        decisions.epoch[:keep], decisions.used_update[:keep], decisions.age[:keep],
        decisions.n_before_first_departure,
    )
    return head, dec


@dataclass
class DumpResult:
    """What the dump operation computed and wrote; ``seconds`` is the time in the dump."""

    records: "sim.UpdateRecords"
    decisions: "sim.DecisionSamples"
    head: "sim.UpdateRecords"
    dec: "sim.DecisionSamples"
    path: str
    seconds: float

    @property
    def rows(self) -> int:
        return len(self.head) + len(self.dec)


def _dump_op(config, horizon: int, reps: int, base_seed: int, rows: int, path: str,
             state: dict) -> Op:
    """Recompute replication 0 of ``config`` and dump its first ``rows`` updates."""

    def run():
        seq = np.random.SeedSequence(base_seed).spawn(reps)[0]
        records, decisions = sim.run_trajectory(config, horizon, seq)
        head, dec = _slice(records, decisions, rows)
        t0 = time.perf_counter()
        written = sim.dump_trajectory_csv(head, dec, path)
        return DumpResult(records, decisions, head, dec, written, time.perf_counter() - t0)

    def check(out):
        report = state.get(config)
        if report is None:
            raise Failure("no replication report to compare the dump with")
        warm = out.records.departure[horizon // 10]
        mean0 = float(out.decisions.age[out.decisions.epoch >= warm].mean())
        if mean0 != report.replication_means[0]:
            raise Failure(f"dumped trajectory is not replication 0 ({mean0} vs "
                          f"{report.replication_means[0]})")
        with open(out.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != out.rows + 2:
            raise Failure(f"dump has {len(lines)} lines, expected {out.rows + 2}")
        first = [float(v) for v in lines[1].split(",")[1:]]
        # columns t_k X_k S_k W_k T_k t_dep_k Y_k follow the record field order
        if first != [float(getattr(out.head, f)[0]) for f in out.head.__dataclass_fields__]:
            raise Failure("first dumped row does not round-trip")

    return Op("dump", run, check)


def monte_carlo_pass(seed: int, index: int, size: dict, tmpdir: str) -> List[Op]:
    """run_replications on five systems, then a dump of one replication.

    Loads are stratified over [0.3, 0.85] and Poisson decision rates stay
    within 0.8-1.25 times the arrival rate (the decision count drives the
    cost); the Lomax shape stays in [3.5, 5], where the age has a finite
    variance.  The det/offset system takes its load from [0.5, 0.65] and its
    offset from [0.2, 0.4] periods: there average_aud_dm1d_offset is 2-3% off,
    and the simulation finds it more than 15 standard errors off on every
    draw.  The dump recomputes replication 0 of the exp/poisson run of the
    same pass and writes its first rows, so it is the trajectory the
    replications computed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    horizon, reps = size["horizon"], size["replications"]
    loads = np.append(_strata(rng, 4, 0.3, 0.85), rng.uniform(0.5, 0.65))
    state: dict = {}
    configs = []
    for i, rho in enumerate(loads):
        mu = _log_uniform(rng, 0.5, 2.0)
        lam = float(rho) * mu
        nu = lam * rng.uniform(0.8, 1.25)
        if i == 0:
            arrival, decision = ak.Exponential(rate=lam), ak.PoissonDecisions(rate=nu)
        elif i == 1:
            arrival = _arrival_at_load(rng, "fnorm", lam)
            decision = ak.PoissonDecisions(rate=nu)
        elif i == 2:
            alpha = rng.uniform(3.5, 5.0)
            arrival = ak.Lomax(alpha=alpha, beta=(alpha - 1.0) / lam)
            decision = ak.PoissonDecisions(rate=nu)
        elif i == 3:
            arrival = ak.Deterministic(period=1.0 / lam)
            decision = ak.PeriodicSyncDecisions(m0=2)
        else:
            arrival = ak.Deterministic(period=1.0 / lam)
            decision = ak.PeriodicOffsetDecisions(delta=rng.uniform(0.2, 0.4) / lam)
        configs.append(ak.SystemConfig(arrival, ak.ServiceModel(rate=mu), decision))
    seeds = rng.integers(0, 2**31, size=len(configs))
    ops = [_replication_op(c, horizon, reps, int(s), state) for c, s in zip(configs, seeds)]
    ops.append(_dump_op(configs[0], horizon, reps, int(seeds[0]), size["dump_rows"],
                        os.path.join(tmpdir, "trajectory.csv"), state))
    return ops


PASSES = {
    "closed-form": closed_form_pass,
    "optimize": optimize_pass,
    "monte-carlo": monte_carlo_pass,
}
