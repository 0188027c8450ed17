"""Discrete-event Monte Carlo for single-server FCFS update-and-decide systems.

The engine validates every closed form in ``queue_core`` from first
principles: it draws inter-arrival and service times, runs the Lindley
recursion for the waiting times, lays the decision stream on top, and
estimates the mean age upon decisions and the update missing probability.

There is no event heap.  For a single FCFS server the departure epochs
satisfy  dep_k = S_k + max(t_k, dep_{k-1}),  whose running maximum form

    dep_k = C_k + max_{i<=k} (t_i - C_{i-1}),   C_k = S_1 + ... + S_k

vectorizes exactly with a cumulative sum and a cumulative maximum; a
10^7-update trajectory costs a fraction of a second.

Replications are seeded through ``numpy.random.SeedSequence.spawn`` on a
counter-based Philox generator, so streams are independent by construction
and a report is bit-identical for a given base seed regardless of how many
worker threads execute it.  By default replications of 10^5 updates or more
run on every available core, which lifted the benchmark's Monte Carlo
workload about 1.8x on 2 cores.

Each decision discipline estimates a replication from its arrival and
departure epochs (``replication_sums``).  Poisson decisions are sampled and
matched to the updates, so their cost grows with the decision rate.
Periodic ones are summed per update window by grid arithmetic, with no
decision epoch drawn: their cost does not depend on m0.  A replication that
is not dumped peaks at max(5, 2 + 3 nu/lambda) horizon-length float64 arrays:
five in the Lindley scan (7.6 MiB at 2*10^5 updates), and under Poisson
decisions the arrival and departure epochs plus three 8-byte arrays per
decision (8.4 MiB for exp arrivals at load 0.6 and nu = 0.7).
"""

from __future__ import annotations

import gzip
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._inplace import overwrite
from .errors import InputError
from .queue_core import SystemConfig, _first_counted

__all__ = [
    "UpdateRecords",
    "DecisionSamples",
    "SimulationReport",
    "run_trajectory",
    "assign_decisions",
    "run_replications",
    "dump_trajectory_csv",
]

DEFAULT_HORIZON = 1_000_000  # the default Monte Carlo budget, also of the CLI and
DEFAULT_REPLICATIONS = 5  # sweeps: updates per replication, and replications


@dataclass(frozen=True)
class UpdateRecords:
    """Column-oriented per-update trajectory (index k runs over positions).

    Invariants, for every k:  system = waiting + service,
    departure = arrival + system, interdeparture[k] = departure[k] -
    departure[k-1] >= 0 (with departure[-1] taken as 0), and
    interdeparture equals service exactly when an update arrives to a
    busy server.
    """

    arrival: np.ndarray        # t_k
    interarrival: np.ndarray   # X_k
    service: np.ndarray        # S_k
    waiting: np.ndarray        # W_k
    system: np.ndarray         # T_k
    departure: np.ndarray      # t'_k
    interdeparture: np.ndarray  # Y_k

    def __len__(self) -> int:
        return self.arrival.shape[0]


@dataclass(frozen=True)
class DecisionSamples:
    """Decisions at and after the first departure, with their AuD values.

    ``used_update`` is the 0-based index of the most recent departure at
    each decision epoch (ties go to the just-departed update), and
    ``age`` is the decision epoch minus that update's generation time.
    An update that appears nowhere in ``used_update`` is missed; that one
    rule gives both the ages and the missing-probability estimate.
    ``n_before_first_departure`` counts the discarded early decisions for
    which no update had been received yet.
    """

    epoch: np.ndarray
    used_update: np.ndarray
    age: np.ndarray
    n_before_first_departure: int

    def __len__(self) -> int:
        return self.epoch.shape[0]


@dataclass(frozen=True)
class SimulationReport:
    """Replicated estimate of mean AuD and missing probability."""

    mean_aud: float
    aud_std_error: float
    ci95: Tuple[float, float]
    p_mis_hat: float
    p_mis_std_error: float
    n_updates: int
    n_decisions: int
    updates_discarded: int
    decisions_discarded: int
    seed: int
    n_replications: int
    horizon: int
    replication_means: Tuple[float, ...]
    config: dict

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["ci95"] = list(self.ci95)
        d["replication_means"] = list(self.replication_means)
        return d


def assign_decisions(
    arrivals: np.ndarray, departures: np.ndarray, epochs: np.ndarray
) -> DecisionSamples:
    """Match decision epochs to the latest departed update and compute AuD.

    ``epochs`` ascend, as every discipline draws them.  A decision at
    exactly a departure epoch sees that departure.  Epochs strictly before
    the first departure are dropped and only counted.
    """
    idx = np.searchsorted(departures, epochs, side="right")
    skipped = int(np.count_nonzero(idx == 0))  # a prefix, as the epochs ascend
    epochs = epochs[skipped:]
    used = idx[skipped:]
    used -= 1
    age = arrivals[used]
    np.subtract(epochs, age, out=age)
    return DecisionSamples(epochs, used, age, skipped)


def run_trajectory(
    config: SystemConfig, horizon: int, seed
) -> Tuple[UpdateRecords, DecisionSamples]:
    """Simulate ``horizon`` updates plus the decision stream over them.

    ``seed``, an int or a SeedSequence, is fed to a Philox bit generator,
    so the full trajectory is a pure function of (config, horizon, seed).
    A negative int seed raises ``InputError``.
    """
    _check_seed(seed)
    records, t, dep, rng = _trajectory(config, horizon, seed, keep=True)
    return records, _decisions(config, t, dep, rng)


def _check_seed(seed) -> None:
    """Rejects a negative int seed, which numpy refuses with a ValueError."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")


def _trajectory(config: SystemConfig, horizon: int, seed, keep: bool):
    """(records if ``keep`` else None, arrival epochs, departure epochs, and
    the generator, for the decisions).  Without ``keep`` the inter-arrival
    and service times are dropped as soon as the departures exist, and the
    waiting, system and inter-departure columns are never built."""
    rng = np.random.Generator(np.random.Philox(seed))
    x, s, t, dep = _lindley(config, horizon, rng)
    records = None
    if keep:
        t_sys = dep - t
        w = t_sys - s
        np.maximum(w, 0.0, out=w)  # clip roundoff at the idle-server boundary
        records = UpdateRecords(t, x, s, w, t_sys, dep, np.diff(dep, prepend=0.0))
    return records, t, dep, rng


def _decisions(config: SystemConfig, t: np.ndarray, dep: np.ndarray,
               rng: np.random.Generator) -> DecisionSamples:
    """The decision epochs over (0, dep[-1]], drawn from ``rng``, and their
    match to the updates."""
    return assign_decisions(t, dep, config.decision.epochs(config, float(dep[-1]), rng))


def _lindley(config: SystemConfig, horizon: int, rng: np.random.Generator):
    """Draw the inter-arrival and service times of ``horizon`` updates and
    run the Lindley scan: returns (x, s, t, dep)."""
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    x = np.asarray(config.arrival.sample(rng, size=horizon), dtype=np.float64)
    s = rng.exponential(1.0 / config.service.rate, size=horizon)
    t = np.cumsum(x)
    c = np.cumsum(s)
    # dep_k = C_k + max_{i<=k}(t_i - C_{i-1}), in place
    dep = t - c
    dep += s
    np.maximum.accumulate(dep, out=dep)
    dep += c
    return x, s, t, dep


def _missed(used_update: np.ndarray, n: int, skip: int) -> Tuple[int, int]:
    """(missed updates, counted updates) of a trajectory of ``n`` updates,
    from the update each decision used.

    An update is missed when no decision used it.  That is the one tie rule
    of ``assign_decisions``: update k serves the decisions in
    [dep[k], dep[k+1]), so a decision exactly at a departure epoch uses the
    update that just departed.  Updates max(skip, 1) - 1 to n - 2 are
    counted; the horizon cuts off the last update's window.
    """
    start = _first_counted(n, skip)
    unused = np.bincount(used_update, minlength=n)[start - 1:-1] == 0
    return int(np.count_nonzero(unused)), int(unused.shape[0])


def _replicate(config: SystemConfig, horizon: int, seq: np.random.SeedSequence,
               keep: bool = False):
    """One replication: returns (mean AuD, kept decisions, missed, counted,
    discarded, and the trajectory (records, decisions) if ``keep`` else None).

    The estimates come from the discipline's ``replication_sums``, the same
    with and without ``keep``: a kept trajectory draws its decisions once,
    and a discipline that needs no epochs ignores them."""
    records, t, dep, rng = _trajectory(config, horizon, seq, keep)
    decisions = _decisions(config, t, dep, rng) if keep else None
    sums = config.decision.replication_sums(config, t, dep, horizon // 10, rng, decisions)
    return (*sums, (records, decisions) if keep else None)


# From this many updates per replication on, replications run on every core
# by default.  On 2 cores, 10 replications of exp arrivals at load 0.6, two
# threads gave 0.86-1.36x at 2*10^4 updates, 1.33-1.72x at 2*10^5, 1.91x at
# 10^6 and 1.80-2.00x at 4*10^6.
_PARALLEL_HORIZON = 100_000


def _default_threads(horizon: int) -> int:
    """The thread count ``threads=None`` stands for: every available core
    from ``_PARALLEL_HORIZON`` updates per replication up, and 1 below."""
    if horizon < _PARALLEL_HORIZON:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_replications(
    config: SystemConfig,
    horizon: int = DEFAULT_HORIZON,
    n_reps: int = DEFAULT_REPLICATIONS,
    base_seed: int = 0,
    threads: Optional[int] = None,
) -> SimulationReport:
    """Independent replications with deterministically split seeds.

    The first 10% of updates of each replication are discarded as warm-up,
    together with every decision made before the first retained departure.
    The report aggregates per-replication means; its standard error is the
    across-replication one, which is robust to within-trajectory
    autocorrelation.

    ``threads`` threads, the calling one among them, take whole replications
    in turn; the report is bit-identical for every thread count, and
    ``threads`` < 1 raises ``InputError``.  The default, None, is one thread
    per available core, at most one per replication, from 10^5 updates per
    replication up, and 1 below.  The module docstring gives its speed-up
    and the peak memory of each replication in flight.
    """
    return _replications(config, horizon, n_reps, base_seed, threads)[0]


def _replications(config: SystemConfig, horizon: int, n_reps: int, base_seed: int,
                  threads: Optional[int], keep_first: bool = False):
    """``run_replications``, and replication 0's (records, decisions) if
    ``keep_first`` (None otherwise), so a dump reuses that trajectory."""
    if n_reps < 2:
        raise InputError(f"need at least 2 replications, got {n_reps}")
    _check_seed(base_seed)
    if threads is None:
        threads = _default_threads(horizon)
    elif threads < 1:
        raise InputError(f"need at least 1 thread, got {threads}")
    children = np.random.SeedSequence(base_seed).spawn(n_reps)
    results = [None] * n_reps
    pending = iter(range(n_reps))  # shared; next() on it is atomic under the GIL

    def work():
        for i in pending:
            results[i] = _replicate(config, horizon, children[i], keep_first and i == 0)

    # The calling thread works too: an idle caller would add a malloc arena.
    helpers = min(threads, n_reps) - 1
    if helpers:
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            futures = [pool.submit(work) for _ in range(helpers)]
            work()
        for future in futures:
            future.result()
    else:
        work()

    means, kept, missed, counted, discarded, trajectories = zip(*results)
    means = np.array(means)
    p_mis_reps = np.array(missed) / np.array(counted)

    mean_aud = float(means.mean())
    se = float(means.std(ddof=1) / np.sqrt(n_reps))
    return SimulationReport(
        mean_aud=mean_aud,
        aud_std_error=se,
        ci95=(mean_aud - 1.96 * se, mean_aud + 1.96 * se),
        p_mis_hat=sum(missed) / sum(counted),
        p_mis_std_error=float(p_mis_reps.std(ddof=1) / np.sqrt(n_reps)),
        n_updates=sum(counted),
        n_decisions=sum(kept),
        updates_discarded=(horizon // 10) * n_reps,
        decisions_discarded=sum(discarded),
        seed=base_seed,
        n_replications=n_reps,
        horizon=horizon,
        replication_means=tuple(float(m) for m in means),
        config=config.describe(),
    ), trajectories[0]


_DUMP_BLOCK = 4096


def dump_trajectory_csv(
    records: UpdateRecords, decisions: DecisionSamples, path: str
) -> str:
    """Write the per-update and per-decision tables to one CSV file; return ``path``.

    Two header rows delimit the tables, and every value is written with
    ``repr``, which round-trips the double.  Rows are written in blocks, so
    the file is never held in memory.  A path ending in ``.gz`` is streamed
    through gzip at level 6 with a zero header timestamp, so the trajectory
    and the path fix the bytes.  Level 9, gzip's default, took 1.5 times as
    long for 0.06% fewer bytes.

    An existing file is overwritten in place and then cut to length, not
    truncated first (``_inplace``): over a 2.7 MB file on ext4 the write
    itself took 0.32-0.33 ms in place against 2.2-2.5 ms truncated first.
    Like a truncating open, the overwrite is not atomic.
    """
    with overwrite(path) as raw:
        if path.endswith(".gz"):  # the header names the file, as when gzip opens it
            raw = gzip.GzipFile(path, "wb", compresslevel=6, fileobj=raw, mtime=0)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
            _write_table(fh, "k,t_k,X_k,S_k,W_k,T_k,t_dep_k,Y_k",
                         [getattr(records, f) for f in records.__dataclass_fields__])
            _write_table(fh, "j,tau_j,used_update,aud",
                         [decisions.epoch, decisions.used_update + 1, decisions.age])
    return path


def _write_table(fh, header: str, columns) -> None:
    """``header``, then one CSV row per element of the equal-length ``columns``,
    numbered from 1, in blocks of ``_DUMP_BLOCK`` rows."""
    fh.write(header + "\n")
    for a in range(0, columns[0].shape[0], _DUMP_BLOCK):
        cells = [map(repr, range(a + 1, a + 1 + _DUMP_BLOCK))]  # zip stops at the columns
        cells += [map(repr, c[a:a + _DUMP_BLOCK].tolist()) for c in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
