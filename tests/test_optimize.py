"""The arrival optimizer's per-family optimal loads against a 40-digit root of
their stationarity condition and a golden-section search of each
one-parameter closed form, the two-parameter families' limits as their
infima, result 1 as properties, and the closed-form offset optimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audkit as ak
from audkit import optimize as op
from audkit import queue_core as qc
from audkit.errors import InputError

import mp_oracle


def golden_section(f, lo, hi, tol=1e-10):
    """Independent 1-D minimizer, an oracle for the one-parameter optima."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b), f(0.5 * (a + b))


# --- offset search ----------------------------------------------------------------------


def test_optimize_offset_converges():
    res = op.optimize_offset(1.0, 2.0)
    assert 0.0 < res.delta < 1.0
    rho = 1.0 / 2.0
    rho1 = qc.rho1_deterministic(rho)
    assert res.delta == pytest.approx(-math.log(rho) / (2.0 * (1.0 - rho1)), rel=1e-12)
    # at least as good as the midpoint offset evaluated on the same curve
    assert qc.average_aud_dm1d_offset(1.0, 2.0, res.delta) <= qc.average_aud_dm1d_offset(
        1.0, 2.0, 0.5
    )


def test_optimize_offset_not_half_period():
    res = op.optimize_offset(1.0, 2.0)
    assert abs(res.delta - 0.5) > 1e-6


def test_optimize_offset_matches_grid_oracle():
    lam, mu = 1.0, 2.0
    res = op.optimize_offset(lam, mu)
    grid = np.linspace(0.0, 1.0 / lam, 10_002)[1:-1]
    vals = np.array([qc.average_aud_dm1d_offset(lam, mu, d) for d in grid])
    best = grid[int(np.argmin(vals))]
    assert abs(res.delta - best) <= grid[1] - grid[0]


def test_optimize_offset_local_minimum_certificate():
    for lam, mu in ((1.0, 2.0), (1.035, 2.0), (0.6, 1.5)):
        res = op.optimize_offset(lam, mu)
        h = 1e-4 / lam
        mid = qc.average_aud_dm1d_offset(lam, mu, res.delta)
        assert qc.average_aud_dm1d_offset(lam, mu, res.delta - h) >= mid
        assert qc.average_aud_dm1d_offset(lam, mu, res.delta + h) >= mid


def test_optimize_offset_rejects_bad_input():
    with pytest.raises(InputError):
        op.optimize_offset(2.0, 2.0)


def test_optimize_offset_closed_form():
    for lam, mu in ((0.9, 1.0), (0.05, 2.0), (1.9, 2.0)):
        rho = lam / mu
        rho1 = qc.rho1_deterministic(rho)
        res = op.optimize_offset(lam, mu)
        assert res.iterations == 0
        assert res.delta == pytest.approx(math.log(1.0 / rho) / (mu * (1.0 - rho1)), rel=1e-14)
        assert 0.0 < res.delta < 1.0 / lam


def test_optimal_offset_beats_poisson_and_sync_decisions():
    # the paper's third result: at every load the optimal offset lowers the
    # mean AuD below Poisson decisions and below aligned decisions (m0 = 1)
    mu = 1.5
    for rho in np.concatenate([np.linspace(0.01, 0.99, 99), [0.995, 0.999, 0.9999]]):
        lam = float(rho) * mu
        aud = qc.average_aud_dm1d_offset(lam, mu, op.optimize_offset(lam, mu).delta)
        assert aud < qc.average_aud_dm1m(lam, mu)
        assert aud < qc.average_aud_dm1d_sync(lam, mu, 1)


@pytest.mark.parametrize("lam, mu", [(0.5, 1.0), (0.6, 1.3), (1.9, 2.0), (1e-3, 2.7),
                                     (0.999999, 1.0), (3e-200, 1e-199)])
def test_offset_result_is_its_public_laws(lam, mu):
    # the comparison the CLI prints, from one rho1 solve, equals the public
    # laws that each solve rho1 again, bit for bit
    res = op.optimize_offset(lam, mu)
    assert res.aud_at_delta_opt == qc.average_aud_dm1d_offset(lam, mu, res.delta)
    assert res.aud_poisson_decisions == qc.average_aud_dm1m(lam, mu)
    assert res.aud_sync_m0_1 == qc.average_aud_dm1d_sync(lam, mu, 1)


# worst measured: 1.63 eps/(1 - rho), on 4,800 random loads from 0.05 to
# 1 - 1e-6 at mu = 1 and 2.7 (the offset law at delta*, at rho = 0.9990)
_PERIODIC_LAW_BOUND = 1.7


@pytest.mark.parametrize("mu", [1.0, 2.7])
def test_periodic_arrival_laws_match_the_mp_oracle(mu):
    # the offset optimum and every periodic-arrival mean AuD, each through
    # rho1_deterministic and through the system's own rho1 solve, against the
    # 40-digit laws of mp_oracle
    rng = np.random.default_rng(2019)
    gaps = np.concatenate([[0.95, 0.8, 0.5, 0.2, 0.05, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
                           10.0 ** rng.uniform(-6.0, math.log10(0.95), 30)])
    for rho in 1.0 - gaps:
        lam = float(rho) * mu
        s = mp_oracle.periodic_s(lam, mu)
        res = op.optimize_offset(lam, mu)
        arrival = ak.Deterministic(1.0 / lam)

        def system(decision):
            return qc.mean_aud(ak.SystemConfig(arrival, ak.ServiceModel(mu), decision))

        at_delta = mp_oracle.aud_offset(lam, mu, s, res.delta)
        poisson = mp_oracle.aud_dm1m(lam, mu, s)
        checks = {
            "delta": (res.delta, mp_oracle.offset_optimum(lam, mu, s)),
            "aud_at_delta_opt": (res.aud_at_delta_opt, at_delta),
            "aud_poisson_decisions": (res.aud_poisson_decisions, poisson),
            "aud_sync_m0_1": (res.aud_sync_m0_1, mp_oracle.aud_sync(lam, mu, s, 1)),
            "dm1d_offset": (qc.average_aud_dm1d_offset(lam, mu, res.delta), at_delta),
            "dm1m": (qc.average_aud_dm1m(lam, mu), poisson),
            "system offset": (system(ak.PeriodicOffsetDecisions(res.delta)), at_delta),
            "system poisson": (system(ak.PoissonDecisions(1.0)), poisson),
        }
        for m0 in (1, 2, 3, 4):
            sync = mp_oracle.aud_sync(lam, mu, s, m0)
            checks[f"dm1d_sync m0={m0}"] = (qc.average_aud_dm1d_sync(lam, mu, m0), sync)
            checks[f"system sync m0={m0}"] = (system(ak.PeriodicSyncDecisions(m0)), sync)
        assert res.iterations == 0
        bound = _PERIODIC_LAW_BOUND * 2.0**-52 / (1.0 - lam / mu)
        for name, (value, exact) in checks.items():
            assert mp_oracle.rel_error(value, exact) <= bound, (name, lam, mu)


# --- arrival optimum -------------------------------------------------------------------


def test_optimal_arrival_lomax_approaches_exponential_limit():
    # the Lomax infimum is the shape -> infinity (exponential) limit, which
    # no finite shape attains
    lam_star, exp_star = golden_section(
        lambda lam: qc.average_aud_mm1m(lam, 1.0), 1e-6, 1.0 - 1e-9
    )
    res = op.optimal_arrival("lomax", 1.0)
    assert res.limit == "exp"
    assert res.c0 == pytest.approx(exp_star, rel=1e-12)
    assert res.arrival_rate() == pytest.approx(lam_star, rel=1e-3)


def test_optimal_arrival_is_a_constant_per_family():
    # exp at three rates and Lomax, whose limit is exp, all report exp's
    # optimal load times mu; a repeated call gives the same answer, bit for bit
    queries = [("exp", 0.5), ("exp", 1.0), ("exp", 3.0), ("lomax", 1.0)]
    results = [op.optimal_arrival(*q) for q in queries]
    for (family, mu), res in zip(queries, results):
        assert res.kappa == (ak.Exponential.optimal_load * mu,)
        assert repr(op.optimal_arrival(family, mu)) == repr(res)
    assert results[3].kappa == results[1].kappa and results[3].c0 == results[1].c0


@pytest.mark.parametrize("family", ["exp", "uniform", "det"])
def test_optimal_load_is_the_root_of_the_stationarity_condition(family):
    cls = ak.dist.FAMILIES[family]
    rho, aud = mp_oracle.arrival_optimum(family)
    # the correctly rounded root
    assert cls.optimal_load == float(rho)
    for mu in (1e-3, 1.0, 1e3):
        lam = op.optimal_arrival(family, mu).arrival_rate()
        assert abs(lam - float(rho * mu)) <= 1e-13 * lam
    c0 = op.optimal_arrival(family, 1.0).c0
    assert abs(c0 - float(aud)) <= 4 * math.ulp(c0)
    # no load next to it has a lower mean AuD in the code's own closed form
    for step in (1.0 - 1e-6, 1.0 + 1e-6):
        assert _aud(cls.with_rate(cls.optimal_load * step), 1.0) >= c0


def test_optimal_arrival_rejects_bad_input():
    with pytest.raises(InputError):
        op.optimal_arrival("weibull", 2.0)


# --- result 1 as properties --------------------------------------------------------------

LOADS = st.floats(0.01, 0.99)
RATES = st.floats(0.01, 100.0)


def _aud(model, mu):
    return qc.average_aud_from_moments(*qc.departure_moments(model, mu))


def _family_at(tag, lam, shape):
    """A model of family ``tag`` at arrival rate ``lam``; ``shape`` in [0, 1) sets
    the second parameter of the two-parameter families."""
    if tag == "lomax":
        alpha = 2.05 + 48.0 * shape
        return ak.Lomax(alpha, (alpha - 1.0) / lam)
    if tag == "fnorm":
        unit = ak.FoldedNormal(1.0, 0.01 + 2.0 * shape)
        scale = 1.0 / (lam * unit.mean())
        return ak.FoldedNormal(scale, unit.sigma * scale)
    return ak.dist.FAMILIES[tag].with_rate(lam)


@settings(max_examples=60, deadline=None)
@given(rho=LOADS, mu=RATES, shape=st.floats(0.0, 0.99))
def test_periodic_arrivals_minimize_aud_at_every_load(rho, mu, shape):
    lam = rho * mu
    det = _aud(ak.Deterministic(1.0 / lam), mu)
    for tag in ("exp", "uniform", "lomax", "fnorm"):
        assert det <= _aud(_family_at(tag, lam, shape), mu) * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(rho=LOADS, mu=RATES, shape=st.floats(0.0, 0.99))
def test_lomax_dominates_exponential_at_every_load(rho, mu, shape):
    lam = rho * mu
    lomax = _aud(_family_at("lomax", lam, shape), mu)
    assert lomax >= _aud(ak.Exponential(lam), mu) * (1.0 - 1e-12)


@settings(max_examples=20, deadline=None)
@given(mu=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), RATES))
def test_periodic_optimum_is_every_familys_floor(mu):
    res = {tag: op.optimal_arrival(tag, mu) for tag in ak.dist.FAMILIES}
    det = res["det"].c0
    assert all(det <= r.c0 for r in res.values())
    assert res["fnorm"].c0 == det
    assert res["fnorm"].limit == "det" and res["fnorm"].kappa == res["det"].kappa


@pytest.mark.parametrize("family", ["exp", "uniform", "lomax", "fnorm", "det"])
def test_optimum_scales_as_one_over_mu(family):
    base = op.optimal_arrival(family, 1.0)
    for mu in (0.5, 1.0, 2.0):
        res = op.optimal_arrival(family, mu)
        # c0 is the mean AuD the reported parameters achieve, bit for bit
        assert res.c0 == _aud(res.arrival_model(), mu)
        assert res.c0 * mu == pytest.approx(base.c0, rel=1e-14)
        assert res.arrival_rate() / mu == pytest.approx(base.arrival_rate(), rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(1e-3, 1e3))
def test_optimum_is_the_aud_it_reports_at_any_mu(mu):
    for family in ("exp", "uniform", "det"):
        res = op.optimal_arrival(family, mu)
        assert res.c0 == pytest.approx(_aud(res.arrival_model(), mu), rel=1e-13)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_one_parameter_optima_match_golden_section(mu):
    # golden section on each family's closed form in lambda, independent of
    # the per-family optimal loads
    curves = {
        "exp": lambda lam: qc.average_aud_mm1m(lam, mu),
        "det": lambda lam: qc.average_aud_dm1m(lam, mu),
        "uniform": lambda lam: _aud(ak.Uniform(2.0 / lam), mu),
    }
    for family, curve in curves.items():
        _, aud_star = golden_section(curve, 1e-3 * mu, mu * (1.0 - 1e-9), tol=1e-12)
        assert op.optimal_arrival(family, mu).c0 == pytest.approx(aud_star, rel=1e-12)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_two_parameter_limits_are_approached_from_above(mu):
    # at the limit's optimal load, the folded normal's mean AuD falls to det's
    # c0 as sigma^2 and Lomax's to exp's as 1/shape, each from above; with
    # result 1's lower bounds above, each limit is the family's infimum
    fnorm, lomax = op.optimal_arrival("fnorm", mu), op.optimal_arrival("lomax", mu)
    assert (fnorm.limit, lomax.limit) == ("det", "exp")
    gaps = []
    for ratio in (1e-1, 1e-2, 1e-3, 1e-4):
        unit = ak.FoldedNormal(1.0, ratio)
        scale = 1.0 / (fnorm.arrival_rate() * unit.mean())
        gaps.append(_aud(ak.FoldedNormal(scale, ratio * scale), mu) - fnorm.c0)
    assert all(gap > 0.0 for gap in gaps)
    assert all(a / b == pytest.approx(100.0, rel=1e-3) for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-6 / mu
    lam = lomax.arrival_rate()
    gaps = [_aud(ak.Lomax(alpha, (alpha - 1.0) / lam), mu) / lomax.c0 - 1.0
            for alpha in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)]
    assert all(gap > 0.0 for gap in gaps)
    assert all(a / b == pytest.approx(10.0, rel=0.21) for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-5
