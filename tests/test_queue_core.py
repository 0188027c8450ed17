"""Closed-form layer: fixed point, moments, AuD and missing-probability
formulas. Expected values were computed independently (30-digit arithmetic or
brute quadrature) and frozen, or come from the 40-digit rho1 oracle in
``mp_oracle``."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audkit as ak
from audkit import queue_core as qc
from audkit.errors import ConvergenceError, InputError, StabilityError

import mp_oracle
from paper_sync_expression import short_interdeparture_prob_dm1d_sync

# frozen reference constants (30-digit evaluation of the closed forms)
RHO1_HALF = 0.20318786997997995       # fixed point at offered load 1/2
RHO0_HALF = 0.13533528323661269       # exp(-2)
DM1M_1_2 = 1.1275004874579876
SYNC_1_2_1 = 1.2550009749159753
OFFSET_1_2_HALF = 1.0657088227384059
PMIS_SYNC_1_2_1 = 0.5412371698844107   # the paper's short-window expression
PMIS_SYNC_1_2_2 = 0.082942469558660628  # exact law, m0 = 2
PMIS_OFFSET_1_2_HALF = 0.26305698728544907

EPS = 2.0**-52

FAMILIES_AT_LOAD = {
    # each constructor takes rho and mu and yields a model with that load
    "exp": lambda rho, mu: ak.Exponential(rho * mu),
    "uniform": lambda rho, mu: ak.Uniform(2.0 / (rho * mu)),
    "lomax": lambda rho, mu: ak.Lomax(3.0, 2.0 / (rho * mu)),
    "fnorm": lambda rho, mu: ak.FoldedNormal(1.0 / (rho * mu), 0.25 / (rho * mu)),
    "det": lambda rho, mu: ak.Deterministic(1.0 / (rho * mu)),
}


# --- fixed point -----------------------------------------------------------------


def test_rho1_exponential_equals_load():
    sol = qc.solve_rho1(ak.Exponential(1.0), 2.0)
    assert sol.value == pytest.approx(0.5, abs=1e-11)
    assert sol.residual <= 1e-12


def test_rho1_deterministic_matches_reference():
    sol = qc.solve_rho1(ak.Deterministic(1.0), 2.0)
    assert sol.value == pytest.approx(RHO1_HALF, abs=1e-10)
    assert sol.value == pytest.approx(0.2032, abs=5e-4)


def test_rho1_vanishing_load():
    sol = qc.solve_rho1(ak.Deterministic(100.0), 1.0)
    assert sol.value <= 1e-40


def test_rho1_rejects_unstable():
    with pytest.raises(StabilityError):
        qc.solve_rho1(ak.Exponential(3.0), 2.0)
    with pytest.raises(StabilityError):
        qc.solve_rho1(ak.Exponential(2.0), 2.0)  # rho == 1 exactly


def test_rho1_nonconvergence_reports_last_iterate():
    with pytest.raises(ConvergenceError) as err:
        qc.solve_rho1(ak.Exponential(1.0), 2.0, max_iter=3)
    assert err.value.best is not None
    assert err.value.residual > 0


@pytest.mark.parametrize("family", sorted(FAMILIES_AT_LOAD))
@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9, 0.9999, 0.99999])
def test_fixed_point_residual_grid(family, rho):
    mu = 2.0
    model = FAMILIES_AT_LOAD[family](rho, mu)
    sol = qc.solve_rho1(model, mu)
    assert 0.0 < sol.value < 1.0
    assert sol.residual <= 1e-12
    assert sol.iterations <= 50
    if family == "exp":
        # rho1 = rho exactly.  The residual is known to ~1e-16 and its slope
        # at the root is rho - 1, which bounds the attainable error near rho = 1.
        assert sol.value == pytest.approx(rho, abs=max(1e-12, 1e-16 / (1.0 - rho)))


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9, 0.9999, 0.99999])
def test_rho1_deterministic_agrees_with_iteration(rho):
    # the iteration is the oracle's 40-digit root solve at period 1/rho, mu = 1
    rho1 = qc.rho1_deterministic(rho)
    arrival = ak.Deterministic(1.0 / rho)
    assert mp_oracle.rho1_rel_error(rho1, arrival, 1.0) <= 8 * EPS
    assert mp_oracle.s_rel_error(rho1, arrival, 1.0) <= 16 * EPS / (1.0 - rho)


# each constructor takes the load and yields a model with it at mu = 1
ORACLE_FAMILIES = {
    "exp": lambda rho: ak.Exponential(rho),
    "uniform": lambda rho: ak.Uniform(2.0 / rho),
    "lomax": lambda rho: ak.Lomax(3.5, 2.5 / rho),
    "det": lambda rho: ak.Deterministic(1.0 / rho),
}
ORACLE_GAPS = [0.5, 1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-12]


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
@pytest.mark.parametrize("gap", ORACLE_GAPS)
def test_rho1_keeps_its_digits_up_to_critical_load(family, gap):
    # s = 1 - rho1 is within a few eps/(1 - rho) relative, the error that
    # rounding the inputs alone costs; mean AuD ~ 1/(mu s) inherits it
    arrival = ORACLE_FAMILIES[family](1.0 - gap)
    rho1 = qc.rho1_value(arrival, 1.0)
    assert mp_oracle.s_rel_error(rho1, arrival, 1.0) <= 16 * EPS / gap


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_rho1_to_a_few_ulps_at_moderate_load(family):
    for rho in np.linspace(0.05, 0.99, 20):
        arrival = ORACLE_FAMILIES[family](float(rho))
        rho1 = qc.rho1_value(arrival, 1.0)
        assert mp_oracle.rho1_rel_error(rho1, arrival, 1.0) <= 8 * EPS, rho


@pytest.mark.xfail(strict=True, reason="fnorm has no cancellation-free survival "
                   "transform yet (ROADMAP item 2)")
def test_fnorm_rho1_near_critical_load():
    gap = 1e-8
    shape = ak.FoldedNormal(1.0, 0.5)
    scale = 1.0 / ((1.0 - gap) * shape.mean())
    arrival = ak.FoldedNormal(scale, 0.5 * scale)
    rho1 = qc.rho1_value(arrival, 1.0)
    assert mp_oracle.s_rel_error(rho1, arrival, 1.0) <= 16 * EPS / gap


WARM_SHAPES = [2.001, 2.05, 3.5, 6.0, 50.0, 2.0 + 1e6]
WARM_LOADS = [0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6]


@pytest.mark.parametrize("alpha", WARM_SHAPES)
def test_lomax_climb_from_the_load(alpha, monkeypatch):
    # Lomax dominates the exponential of its mean in convex order, so
    # rho1 >= rho and the climb starts there: s as accurate as the oracle
    # tolerance asks, in fewer steps than from r = 0 over the loads.  A
    # single climb can end one or two steps later: within a few ulps of the
    # root g is quantized to ulps of s, each step then moves r by an ulp, and
    # which start ends on that creep is rounding luck (63 of 4,000 random
    # Lomax solves took one step more from rho, one took two)
    warm_steps = cold_steps = 0
    for rho in WARM_LOADS:
        arrival = ak.Lomax(alpha, (alpha - 1.0) / rho)
        warm = qc.solve_rho1(arrival, 1.0)
        assert warm.value >= 1.0 / arrival.mean()
        assert mp_oracle.s_rel_error(warm.value, arrival, 1.0) <= 16 * EPS / (1.0 - rho), rho
        with monkeypatch.context() as m:
            m.setattr(ak.Lomax, "rho1_floor", 0.0)
            cold = qc.solve_rho1(arrival, 1.0)
        assert warm.iterations <= cold.iterations + 2, rho
        warm_steps += warm.iterations
        cold_steps += cold.iterations
    assert warm_steps < cold_steps


def test_rho1_floor_is_zero_but_for_lomax():
    floors = {tag: cls.rho1_floor for tag, cls in ak.dist.FAMILIES.items()}
    assert floors == {"exp": 0.0, "uniform": 0.0, "lomax": 1.0, "fnorm": 0.0, "det": 0.0}


def test_lomax_climb_accepts_a_start_where_g_rounds_to_zero():
    # at shape 2 + 1e6 and 1 - rho = 2e-12, rho1 - rho is below what g(rho)
    # resolves: g rounds to <= 0 at the start, which |g| <= 1e-12 accepts
    arrival = ak.Lomax(2.0 + 1e6, (1.0 + 1e6) / (1.0 - 2e-12))
    sol = qc.solve_rho1(arrival, 1.0)
    assert sol.iterations == 0
    assert sol.value == 1.0 / arrival.mean()
    assert sol.residual <= 1e-12
    assert sol.q1 == arrival.weighted_first_moment(1.0 - sol.value)
    assert mp_oracle.s_rel_error(sol.value, arrival, 1.0) <= 16 * EPS / 2e-12


def test_rho1_climb_stops_at_the_rounding_floor():
    # evaluated as s (1 - mu phi), g with the base-class phi = (1 - L)/z rounds
    # at or above 0 at the root, and the climb creeps by ulps through all 100
    # steps here (19 with L - r)
    arrival = ak.FoldedNormal(0.005529605582273856, 0.00016108405414841156)
    assert qc.solve_rho1(arrival, 180.84764121419923).iterations <= 30


@pytest.mark.parametrize("family", sorted(FAMILIES_AT_LOAD))
@pytest.mark.parametrize("rho", [0.05, 0.3, 0.5, 0.8, 0.9999])
def test_q1_from_the_solve_is_the_transform_at_the_root(family, rho):
    # the accepted Newton step's z is the mu (1.0 - rho1) that the closed
    # forms use, so the solve's weighted first moment is q1 bit for bit
    mu = 1.7
    arrival = FAMILIES_AT_LOAD[family](rho, mu)
    config = qc.SystemConfig(arrival, ak.ServiceModel(mu), ak.PoissonDecisions(0.9))
    d = config.derived
    q1 = arrival.weighted_first_moment(mu * (1.0 - d.rho1))
    assert d.q1 == q1
    assert qc.solve_rho1(arrival, mu).q1 == q1
    assert qc.departure_moments(arrival, mu) == (d.mean_y, d.second_moment_y, d.cross_ty)


def test_lomax_analyze_evaluates_few_expint_pairs(monkeypatch):
    # one E_p pair per Newton step and one for q0 = laplace(nu): 6.64 on these
    # draws with the climb from rho; 8.0 from r = 0, and evaluating laplace
    # and W1 apart, and W1 again at the root, took 15
    from audkit import dist

    pair = dist._scaled_expint_pair
    calls = []
    monkeypatch.setattr(dist, "_scaled_expint_pair",
                        lambda p, z: calls.append(z) or pair(p, z))
    rng = np.random.default_rng(29)
    n = 200
    for _ in range(n):
        rho, mu = rng.uniform(0.05, 0.95), math.exp(rng.uniform(-0.7, 0.7))
        alpha = rng.uniform(2.5, 6.0)
        arrival = ak.Lomax(alpha, (alpha - 1.0) / (rho * mu))
        decision = ak.PoissonDecisions(mu * math.exp(rng.uniform(-1.6, 0.7)))
        config = qc.SystemConfig(arrival, ak.ServiceModel(mu), decision)
        qc.mean_aud(config)
        qc.missing_probability(config)
    assert len(calls) / n <= 7.0


def test_periodic_rho1_keeps_the_paper_inequality_near_critical_load():
    # result 3, 1 - rho1 > 2 rho ln(1/rho), failed at 332 of these loads
    # while rho1 came from Lambert W
    for rho in np.linspace(0.999994, 0.999999, 2000):
        rho = float(rho)
        assert 1.0 - qc.rho1_deterministic(rho) > 2.0 * rho * math.log(1.0 / rho), rho


def test_rho1_deterministic_examples():
    assert qc.rho1_deterministic(0.5) == pytest.approx(0.2032, abs=5e-4)
    assert qc.rho1_deterministic(1e-4) < 1e-300
    assert qc.rho1_deterministic(1e-320) == 0.0  # 1/rho overflows, exp(-1/rho) underflows
    with pytest.raises(StabilityError):
        qc.rho1_deterministic(1.0)


# --- stationary law and system time ------------------------------------------------


def test_stationary_queue_pmf():
    # P{j updates found in system by an arrival} = (1 - rho1) rho1^j
    def pmf(rho1, j):
        return (1.0 - rho1) * rho1**j

    assert pmf(0.5, 0) == 0.5
    assert pmf(0.2032, 1) == pytest.approx(0.16190976, rel=1e-12)
    total = sum(pmf(0.2032, j) for j in range(200))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_system_time_rate():
    # the system time is exponential with rate mu (1 - rho1)
    def rate(mu, rho1):
        return mu * (1.0 - rho1)

    assert rate(2.0, 0.5) == 1.0
    assert rate(2.0, 0.0) == 2.0
    assert 1.0 / rate(2.0, RHO1_HALF) == pytest.approx(0.6275004874579876, rel=1e-12)


# --- departure moments --------------------------------------------------------------


def test_departure_moments_exponential_example():
    mean_y, second_y, cross = qc.departure_moments(ak.Exponential(1.0), 2.0)
    assert mean_y == 1.0
    assert second_y == pytest.approx(2.0, abs=1e-10)
    # 1/(mu^2 (1-rho)) + (1-rho)/(mu^2 rho) at rho = 1/2
    assert cross == pytest.approx(0.75, abs=1e-10)


def test_departure_mean_equals_arrival_mean():
    for model in (ak.Uniform(2.0), ak.Lomax(3.0, 2.0), ak.Deterministic(1.0)):
        moments = qc.departure_moments(model, 2.0)
        assert moments.mean == model.mean()


# --- average AuD ---------------------------------------------------------------------


def test_average_aud_from_moments_contract():
    assert qc.average_aud_from_moments(1.0, 2.0, 0.75) == 1.75
    assert qc.average_aud_from_moments(1.0, 1.0, 0.0) == 0.5
    with pytest.raises(InputError):
        qc.average_aud_from_moments(0.0, 1.0, 0.0)


def test_theorem_pipeline_identity():
    aud = qc.average_aud_from_moments(*qc.departure_moments(ak.Exponential(1.0), 2.0))
    assert aud == pytest.approx(qc.average_aud_mm1m(1.0, 2.0), abs=1e-9)


def test_average_aud_mm1m():
    assert qc.average_aud_mm1m(1.0, 2.0) == 1.75
    mu = 3.7  # lam = mu/2 gives (1/mu)*3.5 exactly
    assert qc.average_aud_mm1m(mu / 2.0, mu) == pytest.approx(3.5 / mu, rel=1e-14)
    assert qc.average_aud_mm1m(1.999999, 2.0) > 1e5
    with pytest.raises(StabilityError):
        qc.average_aud_mm1m(2.0, 2.0)


def test_average_aud_dm1m():
    val = qc.average_aud_dm1m(1.0, 2.0)
    assert val == pytest.approx(DM1M_1_2, rel=1e-12)
    assert val < qc.average_aud_mm1m(1.0, 2.0)
    assert qc.average_aud_dm1m(1e-4, 2.0) > 4999.0  # dominated by 1/(2 lam)


def test_average_aud_dm1d_sync():
    assert qc.average_aud_dm1d_sync(1.0, 2.0, 1) == pytest.approx(SYNC_1_2_1, rel=1e-12)
    values = [qc.average_aud_dm1d_sync(1.0, 2.0, m0) for m0 in range(1, 11)]
    for a, b in zip(values, values[1:]):
        assert b < a
    assert qc.average_aud_dm1d_sync(1.0, 2.0, 10_000) == pytest.approx(
        qc.average_aud_dm1m(1.0, 2.0), abs=1e-3
    )


def test_sync_approach_bound():
    dm1m = qc.average_aud_dm1m(1.0, 2.0)
    for m0 in (10, 50, 200):
        gap = abs(qc.average_aud_dm1d_sync(1.0, 2.0, m0) - dm1m)
        assert gap <= 1.0 / m0


def test_average_aud_dm1d_offset():
    assert qc.average_aud_dm1d_offset(1.0, 2.0, 0.5) == pytest.approx(
        OFFSET_1_2_HALF, rel=1e-12
    )
    # algebraic limit of the formula at delta -> 0+
    rho1 = qc.rho1_deterministic(0.5)
    assert qc.average_aud_dm1d_offset(1.0, 2.0, 1e-12) == pytest.approx(
        1.0 / (1.0 - rho1), rel=1e-9
    )
    with pytest.raises(InputError):
        qc.average_aud_dm1d_offset(1.0, 2.0, 1.0)
    with pytest.raises(InputError):
        qc.average_aud_dm1d_offset(1.0, 2.0, 0.0)


_SCALAR_LAWS = {
    "mm1m": qc.average_aud_mm1m,
    "dm1m": qc.average_aud_dm1m,
    "dm1d_sync": lambda lam, mu: qc.average_aud_dm1d_sync(lam, mu, 1),
    "dm1d_offset": lambda lam, mu: qc.average_aud_dm1d_offset(lam, mu, 0.5),
    "optimize_offset": ak.optimize_offset,
}


@pytest.mark.parametrize("law", sorted(_SCALAR_LAWS))
@pytest.mark.parametrize("lam,mu", [(0.5, math.inf), (math.inf, math.inf), (0.0, 1.0),
                                    (-0.5, 1.0), (math.nan, 1.0), (0.5, 0.0), (0.5, math.nan)])
def test_scalar_laws_reject_bad_rates(law, lam, mu):
    # mm1m divided by zero at mu = inf; the others called rho = 0 unstable
    with pytest.raises(InputError, match=r"finite and > 0, got lam=.*, mu=") as err:
        _SCALAR_LAWS[law](lam, mu)
    assert not isinstance(err.value, StabilityError)


@pytest.mark.parametrize("law", sorted(_SCALAR_LAWS))
@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (1.5, 1.0)])
def test_scalar_laws_reject_unstable_load(law, lam, mu):
    with pytest.raises(StabilityError):
        _SCALAR_LAWS[law](lam, mu)


@pytest.mark.parametrize("law", sorted(_SCALAR_LAWS))
def test_scalar_laws_reject_an_underflowing_load(law):
    with pytest.raises(InputError, match="underflows"):
        _SCALAR_LAWS[law](1e-320, 1e10)


@pytest.mark.parametrize("m0", [math.inf, 1.5, 0, -1])
def test_average_aud_dm1d_sync_takes_the_discipline_m0_rule(m0):
    # m0 = inf returned nan and m0 = 1.5 returned 2.37
    with pytest.raises(InputError, match="decision multiplier m0"):
        qc.average_aud_dm1d_sync(0.5, 1.0, m0)
    assert qc.average_aud_dm1d_sync(0.5, 1.0, 2.0) == qc.average_aud_dm1d_sync(0.5, 1.0, 2)


def test_offset_curve_convex_on_grid():
    lam, mu = 1.0, 2.0
    deltas = np.linspace(0.0, 1.0 / lam, 52)[1:-1]
    vals = np.array([qc.average_aud_dm1d_offset(lam, mu, d) for d in deltas])
    second_diff = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.all(second_diff >= -1e-8)


# --- missing probability ---------------------------------------------------------------


def pmis_poisson(arrival, mu, nu):
    """Missing probability of ``arrival`` at service rate mu under Poisson(nu) decisions."""
    config = ak.SystemConfig(arrival, ak.ServiceModel(mu), ak.PoissonDecisions(nu))
    return qc.missing_probability(config)


def test_missing_prob_mm1m_exact():
    # lam/(lam+nu) for the fully Markovian system; nu = mu(1-rho1) here,
    # which exercises the removable-singularity path
    assert pmis_poisson(ak.Exponential(1.0), 2.0, 1.0) == pytest.approx(
        0.5, abs=1e-9
    )
    for nu in (0.3, 0.7, 2.0, 5.0):
        assert pmis_poisson(ak.Exponential(1.0), 2.0, nu) == pytest.approx(
            1.0 / (1.0 + nu), abs=1e-10
        )
    # near-critical: nu = 1e-4 lies within 1e-9 mu of mu (1 - rho1) ~ 1e-4
    assert pmis_poisson(ak.Exponential(0.9999), 1.0, 1e-4) == pytest.approx(
        0.9999, abs=1e-9
    )


@pytest.mark.parametrize("load", [0.3, 0.5, 0.95, 0.9999])
def test_missing_prob_exact_at_the_singular_point(load):
    # at nu = a = mu (1 - rho1) the limit mu (rho1 + a q1)/(mu + a) is
    # lam/mu for exp arrivals
    arrival = ak.Exponential(load)
    a = 1.0 - qc.rho1_value(arrival, 1.0)
    p = pmis_poisson(arrival, 1.0, a)
    assert abs(p - load) <= 4 * EPS * load


def test_missing_prob_near_singularity_continuous():
    # values just off the singular point agree with the limit on it
    model = ak.Uniform(2.0)
    a = 2.0 * (1.0 - qc.rho1_value(model, 2.0))
    on = pmis_poisson(model, 2.0, a)
    near = pmis_poisson(model, 2.0, a * (1.0 + 5e-7))
    assert on == pytest.approx(near, abs=1e-5)
    assert 0.0 <= on <= 1.0


def test_missing_prob_vanishes_at_high_decision_rate():
    assert pmis_poisson(ak.Exponential(1.0), 2.0, 100.0) < 0.02
    assert pmis_poisson(ak.Deterministic(1.0), 2.0, 500.0) < 0.01


@pytest.mark.parametrize("family", sorted(FAMILIES_AT_LOAD))
@pytest.mark.parametrize("nu", [0.4, 1.1, 3.0])
def test_missing_prob_in_unit_interval(family, nu):
    model = FAMILIES_AT_LOAD[family](0.5, 2.0)
    p = pmis_poisson(model, 2.0, nu)
    assert 0.0 <= p <= 1.0


def test_missing_prob_dm1d_sync():
    # the paper's sync expression, kept in tests/paper_sync_expression.py
    assert short_interdeparture_prob_dm1d_sync(1.0, 2.0, 1) == pytest.approx(
        PMIS_SYNC_1_2_1, rel=1e-12
    )
    values = [short_interdeparture_prob_dm1d_sync(1.0, 2.0, m0) for m0 in range(1, 11)]
    for a, b in zip(values, values[1:]):
        assert b < a
    for v in values:
        assert 0.0 <= v <= 1.0
    # w1 = exp(-1000) underflows; this used to divide by it
    assert short_interdeparture_prob_dm1d_sync(1e-3, 1.0, 1) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
def test_periodic_missing_probabilities_reduce_to_rho0(mu):
    # both laws give rho0 = exp(-mu P) for aligned decisions at the arrival
    # rate (m0 = 1) and for offset decisions as delta -> 0
    for load in np.linspace(0.3, 0.95, 200):
        period = 1.0 / (load * mu)
        for decision in (ak.PeriodicSyncDecisions(1), ak.PeriodicOffsetDecisions(1e-13 * period)):
            config = ak.SystemConfig(ak.Deterministic(period), ak.ServiceModel(mu), decision)
            assert qc.missing_probability(config) == pytest.approx(
                math.exp(-1.0 / load), rel=1e-11, abs=0
            )


# --- configs and derived quantities ------------------------------------------------------


def test_system_config_validation():
    svc = ak.ServiceModel(2.0)
    with pytest.raises(StabilityError):
        ak.SystemConfig(ak.Exponential(3.0), svc, ak.PoissonDecisions(1.0))
    with pytest.raises(InputError):
        ak.SystemConfig(ak.Exponential(1.0), svc, ak.PeriodicSyncDecisions(1))
    with pytest.raises(InputError):
        ak.SystemConfig(ak.Deterministic(1.0), svc, ak.PeriodicOffsetDecisions(1.5))
    with pytest.raises(InputError):
        ak.PeriodicSyncDecisions(0)
    cfg = ak.SystemConfig(ak.Deterministic(1.0), svc, ak.PeriodicSyncDecisions(3))
    assert cfg.rho == 0.5


@pytest.mark.parametrize(
    "decision,rate",
    [(ak.PoissonDecisions(0.7), 0.7), (ak.PeriodicSyncDecisions(3), 3.75),
     (ak.PeriodicOffsetDecisions(0.25), 1.25)],
    ids=["poisson", "sync", "offset"],
)
def test_decision_rate_per_discipline(decision, rate):
    # lam = 1/0.8 = 1.25: Poisson decisions keep their own rate, sync decisions
    # come m0 per arrival and offset decisions one per arrival
    cfg = ak.SystemConfig(ak.Deterministic(0.8), ak.ServiceModel(2.0), decision)
    assert cfg.decision_rate == rate


def test_derive_field_presence():
    svc = ak.ServiceModel(2.0)
    d_poisson = qc.derive(ak.SystemConfig(ak.Exponential(1.0), svc, ak.PoissonDecisions(1.0)))
    assert d_poisson.q0 is not None
    assert d_poisson.w0 is None and d_poisson.u0 is None and d_poisson.rho0 is None

    d_sync = qc.derive(
        ak.SystemConfig(ak.Deterministic(1.0), svc, ak.PeriodicSyncDecisions(2))
    )
    assert d_sync.w0 is not None and d_sync.w1 is not None
    assert d_sync.rho0 == pytest.approx(RHO0_HALF, rel=1e-12)
    assert d_sync.q0 is None and d_sync.u0 is None
    assert "u0" not in d_sync.to_dict()

    d_off = qc.derive(
        ak.SystemConfig(ak.Deterministic(1.0), svc, ak.PeriodicOffsetDecisions(0.5))
    )
    assert d_off.u0 is not None and d_off.u1 is not None
    assert d_off.mean_y == 1.0


def test_derive_is_computed_once_per_config():
    cfg = ak.SystemConfig(ak.Lomax(3.5, 3.0), ak.ServiceModel(1.0), ak.PoissonDecisions(0.5))
    assert qc.derive(cfg) is qc.derive(cfg) is cfg.derived
    other = dataclasses.replace(cfg, decision=ak.PoissonDecisions(2.0))
    assert qc.derive(other) is not qc.derive(cfg)
    assert other.derived.q0 == ak.Lomax(3.5, 3.0).laplace(2.0)
    assert cfg.derived.q0 == ak.Lomax(3.5, 3.0).laplace(0.5)


def test_derived_cache_leaves_hash_and_equality_alone():
    def make():
        return ak.SystemConfig(ak.Exponential(0.5), ak.ServiceModel(1.0), ak.PoissonDecisions(1.0))

    cfg, twin = make(), make()
    before = hash(cfg)
    qc.derive(cfg)
    assert hash(cfg) == before == hash(twin)
    assert cfg == twin
    assert {twin: "value"}[cfg] == "value"


@settings(max_examples=300, deadline=None)
@given(
    load=st.floats(0.01, 0.999),
    mu=st.floats(1e-3, 1e3),
)
def test_periodic_rho1_is_the_closed_forms_rho1(load, mu):
    # derive solves at (period, mu), the periodic closed forms at (1/rho, 1):
    # the same root from different doubles, as close as the load's rounding
    config = ak.SystemConfig(
        ak.Deterministic(1.0 / (load * mu)), ak.ServiceModel(mu), ak.PoissonDecisions(1.0)
    )
    rho = config.rho
    s_system = 1.0 - qc.derive(config).rho1
    s_closed = 1.0 - qc.rho1_deterministic(rho)
    assert abs(s_system - s_closed) <= 4 * EPS / (1.0 - rho) * s_closed


def test_mean_aud_dispatch():
    svc = ak.ServiceModel(2.0)
    assert qc.mean_aud(
        ak.SystemConfig(ak.Exponential(1.0), svc, ak.PoissonDecisions(3.0))
    ) == pytest.approx(1.75, abs=1e-9)
    assert qc.mean_aud(
        ak.SystemConfig(ak.Deterministic(1.0), svc, ak.PeriodicSyncDecisions(1))
    ) == pytest.approx(SYNC_1_2_1, rel=1e-12)
    assert qc.mean_aud(
        ak.SystemConfig(ak.Deterministic(1.0), svc, ak.PeriodicOffsetDecisions(0.5))
    ) == pytest.approx(OFFSET_1_2_HALF, rel=1e-12)


def test_missing_probability_dispatch():
    svc = ak.ServiceModel(2.0)
    assert qc.missing_probability(
        ak.SystemConfig(ak.Exponential(1.0), svc, ak.PoissonDecisions(1.0))
    ) == pytest.approx(0.5, abs=1e-9)
    assert qc.missing_probability(
        ak.SystemConfig(ak.Deterministic(1.0), svc, ak.PeriodicSyncDecisions(2))
    ) == pytest.approx(PMIS_SYNC_1_2_2, rel=1e-12)
    assert qc.missing_probability(
        ak.SystemConfig(ak.Deterministic(1.0), svc, ak.PeriodicOffsetDecisions(0.5))
    ) == pytest.approx(PMIS_OFFSET_1_2_HALF, rel=1e-12)


# --- decision spec strings ------------------------------------------------------------


@pytest.mark.parametrize(
    "decision",
    [
        ak.PoissonDecisions(0.7),
        ak.PoissonDecisions(1.0 / 3.0),
        ak.PeriodicSyncDecisions(1),
        ak.PeriodicSyncDecisions(12),
        ak.PeriodicOffsetDecisions(0.1 + 0.2),
    ],
)
def test_decision_spec_round_trip(decision):
    from audkit.dist import format_spec

    text = format_spec(decision)
    parsed = qc.parse_decision(text)
    assert parsed == decision
    assert format_spec(parsed) == text
    assert qc.parse_decision(format_spec(parsed)) == decision


def test_sync_m0_stored_as_int():
    d = qc.parse_decision("sync:m0=2")
    assert d.m0 == 2 and isinstance(d.m0, int)
    assert d == ak.PeriodicSyncDecisions(2) and hash(d) == hash(ak.PeriodicSyncDecisions(2))
    cfg = ak.SystemConfig(ak.Deterministic(1.0), ak.ServiceModel(2.0), d)
    assert cfg.describe()["decision"] == "sync:m0=2"


@pytest.mark.parametrize(
    "text",
    [
        "sync:m0=1.5",
        "sync:m0=0",
        "sync:m0=inf",
        "poisson:rate=inf",
        "offset:delta=nan",
        "periodic:m0=1",
        "poisson",
        "poisson:",
        "poisson:nu=1",
        "poisson:rate=x",
        "offset:delta=0.2,rate=1",
        "poisson:rate=1,rate=2",
        "",
    ],
)
def test_decision_spec_rejects(text):
    with pytest.raises(InputError):
        qc.parse_decision(text)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ak.PoissonDecisions(math.inf),
        lambda: ak.PeriodicSyncDecisions(math.inf),
        lambda: ak.PeriodicSyncDecisions(math.nan),
        lambda: ak.PeriodicOffsetDecisions(math.inf),
    ],
)
def test_decision_rejects_non_finite(make):
    with pytest.raises(InputError):
        make()
