"""Monte Carlo engine: trajectory law, decision matching, estimators,
replication protocol, and the trajectory dump."""

import csv
import gzip
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audkit as ak
from audkit import queue_core as qc
from audkit import sim
from audkit.errors import InputError, InsufficientDataError

from dump_oracle import dump_bytes
from paper_sync_expression import short_interdeparture_prob_dm1d_sync

SVC2 = ak.ServiceModel(2.0)

FAMILY_CONFIGS = {
    "exp": ak.Exponential(1.0),
    "uniform": ak.Uniform(2.0),
    "lomax": ak.Lomax(3.0, 2.0),
    "fnorm": ak.FoldedNormal(1.0, 0.3),
    "det": ak.Deterministic(1.0),
}


def poisson_cfg(arrival, nu=2.0, mu=2.0):
    return ak.SystemConfig(arrival, ak.ServiceModel(mu), ak.PoissonDecisions(nu))


def exact_offset_aud(lam, mu, delta):
    """Independent law of the offset system derived from the system-time
    recursion: the age at a decision is delta plus one period per consecutive
    predecessor whose system time overshot its slot, a geometric count."""
    rho1 = qc.rho1_deterministic(lam / mu)
    u1 = math.exp(-mu * (1.0 - rho1) * delta)
    return delta + u1 / (lam * (1.0 - rho1))


# --- trajectory law -----------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_lindley_invariants(family):
    cfg = poisson_cfg(FAMILY_CONFIGS[family])
    rec, dec = sim.run_trajectory(cfg, 200_000, seed=7)
    assert np.allclose(rec.system, rec.waiting + rec.service, rtol=0, atol=1e-9)
    assert np.allclose(rec.departure, rec.arrival + rec.system, rtol=0, atol=1e-6)
    assert np.all(rec.waiting >= 0.0)
    assert np.all(rec.interdeparture >= -1e-9)
    # busy arrivals depart one service after the previous departure; the
    # epoch arithmetic carries ~t_end * eps of representation error
    tol = float(rec.departure[-1]) * 4e-16 + 1e-12
    busy = rec.interarrival[1:] < rec.system[:-1]
    assert np.allclose(
        rec.interdeparture[1:][busy], rec.service[1:][busy], rtol=0, atol=tol
    )
    # idle arrivals: Y = X + S - T_prev
    idle = ~busy
    assert np.allclose(
        rec.interdeparture[1:][idle],
        rec.interarrival[1:][idle] + rec.service[1:][idle] - rec.system[:-1][idle],
        rtol=0,
        atol=tol,
    )


def test_deterministic_replay():
    cfg = poisson_cfg(ak.Exponential(1.0))
    r1, d1 = sim.run_trajectory(cfg, 50_000, seed=123)
    r2, d2 = sim.run_trajectory(cfg, 50_000, seed=123)
    assert np.array_equal(r1.arrival, r2.arrival)
    assert np.array_equal(r1.departure, r2.departure)
    assert np.array_equal(d1.epoch, d2.epoch)
    assert np.array_equal(d1.age, d2.age)
    r3, _ = sim.run_trajectory(cfg, 50_000, seed=124)
    assert not np.array_equal(r1.departure, r3.departure)


def test_decision_assignment_ties_and_skips():
    arrivals = np.array([1.0, 2.0, 3.0])
    departures = np.array([1.5, 2.5, 3.5])
    epochs = np.array([0.5, 1.5, 2.4, 2.5, 3.6])
    out = sim.assign_decisions(arrivals, departures, epochs)
    assert out.n_before_first_departure == 1  # 0.5 precedes every departure
    # a decision exactly at a departure epoch sees the just-departed update
    assert list(out.used_update) == [0, 0, 1, 2]
    assert out.age == pytest.approx([0.5, 1.4, 0.5, 0.6])


@st.composite
def tied_trajectories(draw):
    """Departures on a half-unit grid, some equal, and ascending decision
    epochs on a quarter-unit grid: exact copies of departures, epochs before
    the first departure and after the last, and repeated epochs."""
    steps = draw(st.lists(st.integers(0, 3), min_size=2, max_size=12))
    departure = 1.0 + 0.5 * np.cumsum(steps)
    grid = st.integers(0, int(4 * departure[-1]) + 4).map(lambda i: 0.25 * i)
    epochs = draw(st.lists(st.one_of(st.sampled_from(departure.tolist()), grid), max_size=30))
    return departure, np.sort(np.array(epochs, dtype=np.float64))


@settings(max_examples=300, deadline=None)
@given(tied_trajectories())
def test_tie_rule_matches_brute_force(trajectory):
    departure, epochs = trajectory
    arrival = departure - 0.125
    dec = sim.assign_decisions(arrival, departure, epochs)
    # per epoch, the latest departure at or before it
    latest = [max((k for k, d in enumerate(departure) if d <= tau), default=None)
              for tau in epochs]
    used = [(tau, k) for tau, k in zip(epochs, latest) if k is not None]
    assert dec.n_before_first_departure == latest.count(None)
    assert dec.used_update.tolist() == [k for _, k in used]
    assert dec.age.tolist() == [tau - arrival[k] for tau, k in used]
    # update k is missed iff no epoch's latest departure at or before it is k
    n = len(departure)
    for skip in range(n):
        counted = range(max(skip, 1) - 1, n - 1)
        missed = sum(k not in latest for k in counted)
        assert sim._missed(dec.used_update, n, skip) == (missed, len(counted))
    with pytest.raises(InsufficientDataError):
        sim._missed(dec.used_update, n, n)


def test_decision_at_a_departure_uses_that_update():
    # both decisions use update 1, so updates 0 and 2 are never used
    departure = np.array([1.0, 2.0, 3.0, 4.0])
    dec = sim.assign_decisions(departure - 0.5, departure, np.array([2.0, 2.5]))
    assert dec.used_update.tolist() == [1, 1]
    assert sim._missed(dec.used_update, 4, 0) == (2, 3)


def test_offset_decisions_with_instant_service():
    cfg = ak.SystemConfig(
        ak.Deterministic(1.0), ak.ServiceModel(1e6), ak.PeriodicOffsetDecisions(0.25)
    )
    _, dec = sim.run_trajectory(cfg, 20_000, seed=5)
    assert np.all(np.abs(dec.age - 0.25) <= 2e-6)


def test_horizon_validated():
    with pytest.raises(InputError):
        sim.run_trajectory(poisson_cfg(ak.Exponential(1.0)), 0, seed=1)


def test_negative_seed_rejected():
    # numpy would refuse it with a ValueError traceback
    cfg = poisson_cfg(ak.Exponential(1.0))
    with pytest.raises(InputError, match="seed"):
        sim.run_trajectory(cfg, 100, seed=-1)
    with pytest.raises(InputError, match="seed"):
        sim.run_replications(cfg, horizon=100, n_reps=2, base_seed=-1)


# --- estimators against closed forms ----------------------------------------------


def test_mean_aud_matches_markovian_value():
    cfg = poisson_cfg(ak.Exponential(1.0), nu=3.0)
    rec, dec = sim.run_trajectory(cfg, 1_000_000, seed=42)
    kept = dec.epoch >= rec.departure[len(rec) // 10]
    assert dec.age[kept].mean() == pytest.approx(1.75, rel=0.01)


def test_missing_prob_markovian():
    cfg = poisson_cfg(ak.Exponential(1.0), nu=1.0)
    rec, dec = sim.run_trajectory(cfg, 1_000_000, seed=43)
    missed, counted = sim._missed(dec.used_update, len(rec), skip=len(rec) // 10)
    assert missed / counted == pytest.approx(0.5, abs=0.005)


def test_missing_prob_high_decision_rate():
    cfg = poisson_cfg(ak.Exponential(1.0), nu=100.0)
    rec, dec = sim.run_trajectory(cfg, 100_000, seed=44)
    missed, counted = sim._missed(dec.used_update, len(rec), skip=10_000)
    assert missed / counted < 0.02


def test_missing_prob_requires_data():
    cfg = poisson_cfg(ak.Exponential(1.0))
    rec, dec = sim.run_trajectory(cfg, 100, seed=1)
    with pytest.raises(InsufficientDataError):
        sim._missed(dec.used_update, len(rec), skip=100)


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_busy_probability_and_system_time(family):
    arrival = FAMILY_CONFIGS[family]
    mu = 2.0
    cfg = poisson_cfg(arrival, mu=mu)
    rho1 = qc.rho1_value(arrival, mu)
    reps = []
    for seed in range(5):
        rec, _ = sim.run_trajectory(cfg, 400_000, seed=900 + seed)
        skip = len(rec) // 10
        busy = rec.interarrival[skip:] < rec.system[skip - 1:-1]
        reps.append((busy.mean(), rec.system[skip:].mean()))
    busy_means = np.array([r[0] for r in reps])
    t_means = np.array([r[1] for r in reps])
    se = busy_means.std(ddof=1) / math.sqrt(len(reps))
    assert abs(busy_means.mean() - rho1) <= max(3.0 * se, 1e-3)
    assert t_means.mean() == pytest.approx(1.0 / (mu * (1.0 - rho1)), rel=0.01)


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_departure_moments_match_prop_formulas(family):
    arrival = FAMILY_CONFIGS[family]
    mu = 2.0
    mean_y, second_y, cross = qc.departure_moments(arrival, mu)
    rec, _ = sim.run_trajectory(poisson_cfg(arrival, mu=mu), 2_000_000, seed=77)
    skip = len(rec) // 10
    y = rec.interdeparture[skip:]
    ty = rec.system[skip - 1:-1] * rec.interdeparture[skip:]
    assert y.mean() == pytest.approx(mean_y, rel=0.01)
    assert (y * y).mean() == pytest.approx(second_y, rel=0.01)
    assert ty.mean() == pytest.approx(cross, rel=0.01)


def test_sync_aud_matches_closed_form():
    cfg = ak.SystemConfig(ak.Deterministic(1.0), SVC2, ak.PeriodicSyncDecisions(1))
    rep = sim.run_replications(cfg, horizon=500_000, n_reps=5, base_seed=21)
    assert rep.mean_aud == pytest.approx(qc.average_aud_dm1d_sync(1.0, 2.0, 1), rel=0.01)


def test_sync_short_interdeparture_matches_formula():
    # the paper's sync expression counts inter-departure times shorter than
    # one decision period, not unused updates
    for m0 in (1, 2, 5):
        cfg = ak.SystemConfig(ak.Deterministic(1.0), SVC2, ak.PeriodicSyncDecisions(m0))
        rec, _ = sim.run_trajectory(cfg, 500_000, seed=31 + m0)
        y = rec.interdeparture[len(rec) // 10:]
        short = np.count_nonzero(y < 1.0 / cfg.decision_rate) / y.shape[0]
        assert short == pytest.approx(
            short_interdeparture_prob_dm1d_sync(1.0, 2.0, m0), rel=0.01
        )


def test_offset_aud_matches_recursion_law():
    # oracle: exact_offset_aud above, an independent derivation of the
    # offset system's mean age
    for delta, seed in ((0.25, 61), (0.5, 62), (0.75, 63)):
        cfg = ak.SystemConfig(
            ak.Deterministic(1.0), SVC2, ak.PeriodicOffsetDecisions(delta)
        )
        rep = sim.run_replications(cfg, horizon=500_000, n_reps=5, base_seed=seed)
        assert rep.mean_aud == pytest.approx(exact_offset_aud(1.0, 2.0, delta), rel=0.01)


# --- periodic grid sums ----------------------------------------------------------------

P125 = ak.Deterministic(1.25)
GRID_DECISIONS = [ak.PeriodicSyncDecisions(m0) for m0 in (1, 2, 3, 50)] + [
    ak.PeriodicOffsetDecisions(delta) for delta in (0.1, 0.6, 1.15)]


def sums_both_ways(config, t, dep, warm):
    """(grid sums, sampled sums) of one trajectory, or the error message
    each path raised in place of its sums."""
    decision, out = config.decision, []
    for sums in (type(decision).replication_sums, ak.DecisionModel.replication_sums):
        try:
            out.append(sums(decision, config, t, dep, warm, None))
        except InsufficientDataError as err:
            out.append(str(err))
    return out


def assert_sums_agree(config, t, dep, warm):
    grid, sampled = sums_both_ways(config, t, dep, warm)
    if isinstance(sampled, str):
        assert grid == sampled
        return
    assert grid[1:] == sampled[1:]  # kept, missed, counted, discarded
    assert grid[0] == pytest.approx(sampled[0], rel=1e-12, abs=0)


@pytest.mark.parametrize("decision", GRID_DECISIONS, ids=str)
@pytest.mark.parametrize("seed", [4, 5])
def test_grid_sums_agree_with_sampled_path(decision, seed):
    cfg = ak.SystemConfig(P125, ak.ServiceModel(1.0), decision)
    _, t, dep, _ = sim._trajectory(cfg, 20_000, seed, keep=False)
    for warm in (0, 1, 2_000):
        assert_sums_agree(cfg, t, dep, warm)


def on_and_around_grid(config, rounds_wrong):
    """Departure epochs at tau_j and one ulp either side, for the j whose
    ``rounds_wrong`` check holds on some of the three, and arrivals 0.3
    before them."""
    decision = config.decision
    tau = decision.epochs(config, 5_000.0, None)
    j = np.arange(decision.first, decision.first + tau.shape[0], dtype=np.float64)
    near = [np.nextafter(tau, -np.inf), tau, np.nextafter(tau, np.inf)]
    chosen = np.zeros(tau.shape[0], dtype=bool)
    for x in near:
        chosen |= rounds_wrong(np.ceil(decision._index(config, x)), j, x, tau)
    dep = np.sort(np.concatenate([x[chosen] for x in near]))
    return dep - 0.3, dep


@pytest.mark.parametrize("cfg", [
    ak.SystemConfig(P125, ak.ServiceModel(1.0), ak.PeriodicSyncDecisions(3)),
    ak.SystemConfig(ak.Deterministic(1 / 0.6), ak.ServiceModel(1.0),
                    ak.PeriodicOffsetDecisions(0.4)),
], ids=["sync", "offset"])
def test_grid_sums_where_the_index_rounds_wrong(cfg):
    # C(x) counts the grid points below x as rounded in ``epochs``; the
    # ceiling of x nu (or (x - delta) / P) is one too high at some tau_j
    # and one too low one ulp above some tau_j, and C must correct both
    for rounds_wrong in (
        lambda c, j, x, tau: (x == tau) & (c > j),  # too high: tau_j >= x
        lambda c, j, x, tau: (x > tau) & (c <= j),  # too low: tau_j < x
    ):
        t, dep = on_and_around_grid(cfg, rounds_wrong)
        assert dep.shape[0] >= 30
        for warm in (0, 1, 10):
            assert_sums_agree(cfg, t, dep, warm)


def test_grid_sums_stop_where_epochs_stop():
    # one ulp past tau_3 = 3 * 1.4 + 0.77, (x - delta) / P rounds below 3,
    # so ``epochs`` up to there stops at tau_2: the grid must stop there too
    cfg = ak.SystemConfig(ak.Deterministic(1.4), ak.ServiceModel(1.0),
                          ak.PeriodicOffsetDecisions(0.77))
    tau = cfg.decision.epochs(cfg, 10.0, None)
    dep = np.append(tau[:3], np.nextafter(tau[3], np.inf))
    assert cfg.decision.epochs(cfg, dep[-1], None).tolist() == tau[:3].tolist()
    for warm in (0, 1, 2):
        assert_sums_agree(cfg, dep - 0.3, dep, warm)


@pytest.mark.parametrize("decision", [ak.PeriodicSyncDecisions(1),
                                      ak.PeriodicOffsetDecisions(0.4)], ids=str)
def test_grid_decision_at_a_departure_uses_that_update(decision):
    # every departure on a grid point: each update serves the decision at
    # its own departure, 0.3 after its arrival, and none is missed
    cfg = ak.SystemConfig(P125, ak.ServiceModel(1.0), decision)
    dep = decision.epochs(cfg, 100.0, None)
    assert cfg.decision.replication_sums(cfg, dep - 0.3, dep, 0, None) == pytest.approx(
        (0.3, dep.shape[0], 0, dep.shape[0] - 1, 0), rel=1e-12)


@pytest.mark.parametrize("decision", GRID_DECISIONS[:2] + GRID_DECISIONS[-2:], ids=str)
def test_grid_sums_raise_as_the_sampled_path(decision):
    cfg = ak.SystemConfig(P125, ak.ServiceModel(1.0), decision)
    tau = decision.epochs(cfg, 10.0, None)
    cases = [
        (np.array([tau[0] / 2]), 0),   # one update, no decision after it
        (tau[-1:], 0),                 # one update and the last decision at it
        (tau[:3] + 1e-9, 2),           # no decision at or after the last departure
    ]
    outcomes = [sums_both_ways(cfg, dep - 0.3, dep, warm) for dep, warm in cases]
    for grid, sampled in outcomes:
        assert grid == sampled
    assert [o[0][:17] for o in outcomes] == [
        "no decision epoch", "no updates left a", "no decision epoch"]
    for horizon in (1, 2, 3):  # whole trajectories; one update keeps no decision
        _, t, dep, _ = sim._trajectory(cfg, horizon, 9, keep=False)
        assert_sums_agree(cfg, t, dep, horizon // 10)
        assert isinstance(sums_both_ways(cfg, t, dep, 0)[0], str) == (horizon == 1)


# --- replication protocol -----------------------------------------------------------


def test_replication_report_deterministic():
    cfg = poisson_cfg(ak.Exponential(1.0))
    r1 = sim.run_replications(cfg, horizon=100_000, n_reps=4, base_seed=9)
    r2 = sim.run_replications(cfg, horizon=100_000, n_reps=4, base_seed=9)
    assert r1 == r2
    r3 = sim.run_replications(cfg, horizon=100_000, n_reps=4, base_seed=9, threads=4)
    assert r1 == r3  # thread count must not leak into results
    r4 = sim.run_replications(cfg, horizon=100_000, n_reps=4, base_seed=10)
    assert r1.mean_aud != r4.mean_aud


def test_replication_report_fields():
    cfg = poisson_cfg(ak.Exponential(1.0))
    rep = sim.run_replications(cfg, horizon=100_000, n_reps=4, base_seed=9)
    assert rep.n_replications == 4
    assert rep.updates_discarded == 4 * 10_000
    assert rep.aud_std_error > 0
    assert rep.ci95[0] < rep.mean_aud < rep.ci95[1]
    assert 0.0 <= rep.p_mis_hat <= 1.0
    assert rep.p_mis_std_error > 0
    assert len(rep.replication_means) == 4
    assert rep.config["arrival"] == "exp:rate=1"
    with pytest.raises(InputError):
        sim.run_replications(cfg, horizon=100, n_reps=1)


@pytest.mark.parametrize("decision", [ak.PoissonDecisions(0.4), ak.PeriodicSyncDecisions(2),
                                      ak.PeriodicOffsetDecisions(0.5)])
def test_one_search_per_replication(monkeypatch, decision):
    # Poisson epochs are drawn once and searched once; periodic ones are
    # summed on their grid, with neither
    searchsorted, epochs = np.searchsorted, type(decision).epochs
    calls = []
    monkeypatch.setattr(np, "searchsorted",
                        lambda *args, **kw: calls.append("search") or searchsorted(*args, **kw))
    monkeypatch.setattr(type(decision), "epochs",
                        lambda *args: calls.append("epochs") or epochs(*args))
    cfg = ak.SystemConfig(ak.Deterministic(2.0), ak.ServiceModel(1.0), decision)
    sim.run_replications(cfg, horizon=5_000, n_reps=3, base_seed=8)
    sampled = isinstance(decision, ak.PoissonDecisions)
    assert calls == (["epochs", "search"] * 3 if sampled else [])


@pytest.mark.parametrize("decision", [ak.PoissonDecisions(0.7), ak.PeriodicSyncDecisions(2),
                                      ak.PeriodicOffsetDecisions(0.5)])
def test_report_independent_of_thread_count(decision):
    # threads pull replication indices from one shared iterator; switching
    # threads often would expose an index taken twice or never
    cfg = ak.SystemConfig(ak.Deterministic(2.0), ak.ServiceModel(1.0), decision)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        default = sim.run_replications(cfg, horizon=100_000, n_reps=3, base_seed=12)
        for threads in (1, 5):  # 5: more threads than replications
            assert sim.run_replications(cfg, horizon=100_000, n_reps=3, base_seed=12,
                                        threads=threads) == default
    finally:
        sys.setswitchinterval(interval)


def test_default_thread_rule():
    assert sim._default_threads(sim._PARALLEL_HORIZON - 1) == 1
    assert sim._default_threads(sim._PARALLEL_HORIZON) == len(os.sched_getaffinity(0))


def test_thread_count_validated():
    cfg = poisson_cfg(ak.Exponential(1.0))
    for threads in (0, -1):
        with pytest.raises(InputError):
            sim.run_replications(cfg, horizon=1_000, n_reps=2, threads=threads)


@pytest.mark.parametrize("config,bound_mib", [
    (ak.SystemConfig(ak.Exponential(0.6), ak.ServiceModel(1.0), ak.PoissonDecisions(0.7)), 14),
    (ak.SystemConfig(ak.Deterministic(1 / 0.6), ak.ServiceModel(1.0),
                     ak.PeriodicSyncDecisions(2)), 8),
], ids=["exp-poisson", "det-sync"])
def test_replication_peak_memory(config, bound_mib):
    # a replication that is not dumped never holds x, S, W, T or Y, and a
    # periodic one no decision epoch
    assert replication_peak(config, 200_000) <= bound_mib * 2**20


def replication_peak(config, horizon):
    """Traced peak bytes of one replication that is not dumped."""
    seq = np.random.SeedSequence(3)
    sim._replicate(config, horizon, seq)  # warm caches outside the trace
    tracemalloc.start()
    try:
        sim._replicate(config, horizon, seq)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_periodic_replication_peak_does_not_grow_with_m0():
    peaks = [replication_peak(ak.SystemConfig(ak.Deterministic(1.0), SVC2,
                                              ak.PeriodicSyncDecisions(m0)), 100_000)
             for m0 in (1, 200)]
    assert peaks[1] <= 1.1 * peaks[0]


def test_ci_coverage_meta_trial():
    cfg = poisson_cfg(ak.Exponential(1.0), nu=1.0)
    hits = 0
    for meta in range(20):
        rep = sim.run_replications(cfg, horizon=50_000, n_reps=20, base_seed=1000 + meta)
        lo, hi = rep.ci95
        hits += lo <= 1.75 <= hi
    assert hits >= 18


def test_std_error_scaling_with_horizon():
    cfg = poisson_cfg(ak.Exponential(1.0))
    se_short = sim.run_replications(cfg, horizon=100_000, n_reps=24, base_seed=3).aud_std_error
    se_long = sim.run_replications(cfg, horizon=200_000, n_reps=24, base_seed=3).aud_std_error
    ratio = se_short / se_long
    assert math.sqrt(2.0) / 1.5 <= ratio <= math.sqrt(2.0) * 1.5


# --- trajectory dump -----------------------------------------------------------------


def test_dump_trajectory_csv(tmp_path):
    cfg = poisson_cfg(ak.Exponential(1.0))
    rec, dec = sim.run_trajectory(cfg, 500, seed=77)
    path = str(tmp_path / "trajectory.csv")
    written = sim.dump_trajectory_csv(rec, dec, path)
    assert written == path
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "t_k", "X_k", "S_k", "W_k", "T_k", "t_dep_k", "Y_k"]
    update_rows = rows[1 : 1 + len(rec)]
    assert len(update_rows) == 500
    # shortest round-trip formatting reparses to the exact double
    assert float(update_rows[3][1]) == rec.arrival[3]
    header2 = rows[1 + len(rec)]
    assert header2 == ["j", "tau_j", "used_update", "aud"]
    decision_rows = rows[2 + len(rec) :]
    assert len(decision_rows) == len(dec)
    assert float(decision_rows[0][3]) == dec.age[0]


# repr switches to exponent notation below 1e-4 and from 1e16 on
REPR_EDGES = [1e-5, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 5e-324, -0.0,
              0.0, 1.0, 0.1, -2.5e-7, 1.7976931348623157e308]


def edge_trajectory(n_updates, n_decisions):
    """Hand-built records and decisions whose every column cycles through REPR_EDGES."""
    def column(n, shift):
        return np.resize(np.roll(REPR_EDGES, shift), n)

    records = sim.UpdateRecords(*(column(n_updates, i) for i in range(7)))
    decisions = sim.DecisionSamples(column(n_decisions, 7),
                                    np.arange(n_decisions) % max(n_updates, 1),
                                    column(n_decisions, 8), 0)
    return records, decisions


@pytest.mark.parametrize(
    "n_updates,n_decisions",
    [(0, 0), (1, 0), (0, 1), (1, 1), (2 * sim._DUMP_BLOCK + 3, sim._DUMP_BLOCK + 1)],
)
def test_dump_matches_row_writer(tmp_path, n_updates, n_decisions):
    records, decisions = edge_trajectory(n_updates, n_decisions)
    path = str(tmp_path / "trajectory.csv")
    assert sim.dump_trajectory_csv(records, decisions, path) == path
    with open(path, "rb") as fh:
        assert fh.read() == dump_bytes(records, decisions)


def test_dump_gzips_exactly_when_path_ends_in_gz(tmp_path):
    rec, dec = sim.run_trajectory(poisson_cfg(ak.Exponential(1.0)), 500, seed=77)
    expected = dump_bytes(rec, dec)
    plain = str(tmp_path / "trajectory.csv")
    assert sim.dump_trajectory_csv(rec, dec, plain) == plain
    with open(plain, "rb") as fh:
        assert fh.read() == expected
    packed = plain + ".gz"
    assert sim.dump_trajectory_csv(rec, dec, packed) == packed
    with gzip.open(packed, "rb") as fh:
        assert fh.read() == expected
    with open(packed, "rb") as fh:
        header = fh.read(10)
    assert header[4:8] == bytes(4)  # no timestamp in the gzip header
    assert header[8] == 0  # XFL: level 6; level 9 writes 2 and level 1 writes 4


@pytest.mark.parametrize("name", ["trajectory.csv", "trajectory.csv.gz"])
def test_dump_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, name):
    # the file is written in place and cut to length, not truncated first
    rec, dec = sim.run_trajectory(poisson_cfg(ak.Exponential(1.0)), 500, seed=77)
    for sub in ("fresh", "empty"):
        (tmp_path / sub).mkdir()
    fresh = tmp_path / "fresh" / name
    sim.dump_trajectory_csv(rec, dec, str(fresh))
    stale = tmp_path / name
    stale.write_bytes(b"stale\n" * fresh.stat().st_size)
    assert sim.dump_trajectory_csv(rec, dec, str(stale)) == str(stale)
    assert stale.read_bytes() == fresh.read_bytes()
    if name.endswith(".gz"):  # the header gzip writes for a path it opens itself
        empty = tmp_path / "empty" / name
        gzip.GzipFile(str(empty), "wb", compresslevel=6, mtime=0).close()
        size = 10 + len(b"trajectory.csv\0")  # the fixed fields, then the file name
        assert stale.read_bytes()[:size] == empty.read_bytes()[:size]
