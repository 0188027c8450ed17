"""The arrival optimizer's per-family optimal loads against a 40-digit root of
their stationarity condition and the paper's bisection oracle (simplex
wrapper, penalized feasibility objective, threshold bisection), result 1 as
properties, and the closed-form offset optimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audkit as ak
from audkit import optimize as op
from audkit import queue_core as qc
from audkit.errors import ConvergenceError, InputError

import bisection_oracle as bo
import mp_oracle


def golden_section(f, lo, hi, tol=1e-10):
    """Independent 1-D minimizer used as an oracle for the bisection."""
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


# --- simplex wrapper -------------------------------------------------------------


def test_simplex_quadratic_bowl():
    res = bo.simplex_minimize(lambda x: (x[0] - 3.0) ** 2, [0.0])
    assert res.x[0] == pytest.approx(3.0, abs=1e-6)
    assert res.fun <= 1e-12


def test_simplex_rosenbrock():
    res = bo.simplex_minimize(
        lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2, [-1.2, 1.0]
    )
    assert res.fun <= 1e-8
    assert res.x[0] == pytest.approx(1.0, abs=1e-3)


def test_simplex_inner_problem_smoke():
    spec = bo.ObjectiveSpec("exp", 2.0, 2.0)
    res = bo.simplex_minimize(lambda k: bo.penalized_objective(spec, k), [1.0])
    lam = res.x[0]
    assert 0.0 < lam < 2.0  # interior, stable minimizer
    assert res.fun < 0.0  # c0 = 2 is above the optimum, so feasible


def test_simplex_budget_exhaustion_carries_best():
    with pytest.raises(ConvergenceError) as err:
        bo.simplex_minimize(
            lambda x: (x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2, [50.0, 50.0], max_evals=10
        )
    best = err.value.best
    assert best is not None and best.n_evals <= 10
    assert math.isfinite(best.fun)


def test_simplex_rejects_nonfinite_start():
    with pytest.raises(InputError):
        bo.simplex_minimize(lambda x: float("nan"), [0.0])


# --- penalized objective -----------------------------------------------------------


def test_penalized_objective_tight_threshold():
    # lam = 1, mu = 2 puts the decision-rate-free mean age exactly at 1.75,
    # so the feasibility margin vanishes
    spec = bo.ObjectiveSpec("exp", 2.0, 1.75)
    assert abs(bo.penalized_objective(spec, [1.0])) <= 1e-8


def test_penalized_objective_penalty_branches():
    spec = bo.ObjectiveSpec("exp", 2.0, 1.75)
    assert bo.penalized_objective(spec, [3.0]) >= spec.penalty  # rho = 1.5
    assert bo.penalized_objective(spec, [-1.0]) >= spec.penalty  # invalid rate
    lomax = bo.ObjectiveSpec("lomax", 2.0, 5.0)
    assert bo.penalized_objective(lomax, [1.5, 1.0]) >= lomax.penalty  # shape <= 2


def test_penalized_objective_negative_when_loose():
    spec = bo.ObjectiveSpec("uniform", 2.0, 10.0)
    assert bo.penalized_objective(spec, [2.0]) < 0.0


def test_penalized_objective_arity_checked():
    with pytest.raises(InputError):
        bo.penalized_objective(bo.ObjectiveSpec("exp", 2.0, 1.0), [1.0, 2.0])
    with pytest.raises(InputError):
        bo.ObjectiveSpec("weibull", 2.0, 1.0)


def test_default_starts_sit_at_half_load():
    for family in ("exp", "uniform", "lomax", "fnorm"):
        for mu in (1.0, 2.0, 4.0):
            kappa = bo.default_start(family, mu)
            model_rho = {
                "exp": lambda k: k[0] / mu,
                "uniform": lambda k: 2.0 / (k[0] * mu),
                "lomax": lambda k: (k[0] - 1.0) / (k[1] * mu),
                "fnorm": lambda k: 1.0 / (mu * ak.FoldedNormal(*k).mean()),
            }[family](kappa)
            assert model_rho == pytest.approx(0.5, abs=0.01)


# --- bisection ------------------------------------------------------------------------


def test_bisection_exponential_matches_golden_section():
    res = bo.bisection_optimal_arrival("exp", 2.0)
    lam_star, aud_star = golden_section(
        lambda lam: qc.average_aud_mm1m(lam, 2.0), 1e-6, 2.0 - 1e-9
    )
    assert res.converged
    assert res.bracket_width <= 1e-6 / 2.0
    assert res.c0 == pytest.approx(aud_star, abs=1e-4)
    assert res.kappa[0] == pytest.approx(lam_star, abs=1e-3)
    assert res.arrival_rate() / 2.0 == pytest.approx(0.5, abs=0.1)


def test_bisection_feasibility_monotone_at_result():
    res = bo.bisection_optimal_arrival("exp", 2.0)
    model = res.arrival_model()
    aud = qc.average_aud_from_moments(*qc.departure_moments(model, 2.0))
    # achieved mean age certifies feasibility of c0*, and raising the
    # threshold can only keep it feasible
    assert aud <= res.c0 + 1e-9
    for bump in (0.01, 0.1, 1.0):
        spec = bo.ObjectiveSpec("exp", 2.0, res.c0 + bump)
        assert bo.penalized_objective(spec, list(res.kappa)) < 0.0


def test_bisection_no_penalty_leak():
    for family in ("exp", "uniform"):
        res = bo.bisection_optimal_arrival(family, 2.0)
        model = res.arrival_model()  # construction invariants hold
        rho = 1.0 / (2.0 * model.mean())
        assert rho < 1.0


def test_bisection_uniform_beats_exponential():
    uni = bo.bisection_optimal_arrival("uniform", 2.0)
    exp = bo.bisection_optimal_arrival("exp", 2.0)
    assert uni.c0 < exp.c0


def test_bisection_folded_normal_collapses_to_periodic():
    res = bo.bisection_optimal_arrival("fnorm", 2.0)
    assert res.kappa[1] ** 2 <= 1e-5
    # sigma -> 0 turns the arrivals periodic, so the optimum must match the
    # deterministic-arrival curve minimized over its rate
    lam_star, aud_star = golden_section(
        lambda lam: qc.average_aud_dm1m(lam, 2.0), 1e-3, 2.0 - 1e-9
    )
    assert res.c0 == pytest.approx(aud_star, abs=1e-4)
    assert res.arrival_rate() == pytest.approx(lam_star, abs=1e-2)


def test_bisection_rejects_bad_input():
    with pytest.raises(InputError):
        bo.bisection_optimal_arrival("weibull", 2.0)
    with pytest.raises(InputError):
        bo.bisection_optimal_arrival("exp", 2.0, eps=0.0)
    with pytest.raises(InputError):
        bo.bisection_optimal_arrival("exp", 2.0, upper=1e-6)  # infeasible bound


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


# --- arrival optimum -------------------------------------------------------------------


@pytest.mark.parametrize("family", ["exp", "uniform", "fnorm", "lomax"])
@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_optimal_arrival_matches_bisection(family, mu):
    oracle = bo.bisection_optimal_arrival(family, mu)
    res = op.optimal_arrival(family, mu)
    eps = 1e-6 / mu
    if family == "lomax":
        # the oracle stops at its shape cap; the search reports the limit itself
        assert res.limit == "exp"
        assert res.c0 <= oracle.c0
        assert res.c0 == pytest.approx(oracle.c0, rel=1e-5)
    else:
        assert abs(res.c0 - oracle.c0) <= eps
    # c0 is the mean AuD the reported parameters achieve
    assert res.c0 == qc.average_aud_from_moments(
        *qc.departure_moments(res.arrival_model(), mu)
    )


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


@pytest.mark.parametrize("solve", [bo.bisection_optimal_arrival])
def test_optimizers_reject_infinite_tolerance(solve):
    # an infinite eps used to return the load-1/2 start as a converged optimum
    with pytest.raises(InputError, match="finite"):
        solve("exp", 2.0, eps=math.inf)


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
    for mu in (0.5, 2.0):
        res = op.optimal_arrival(family, mu)
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
    # both the load search and the bisection
    curves = {
        "exp": lambda lam: qc.average_aud_mm1m(lam, mu),
        "det": lambda lam: qc.average_aud_dm1m(lam, mu),
        "uniform": lambda lam: _aud(ak.Uniform(2.0 / lam), mu),
    }
    for family, curve in curves.items():
        _, aud_star = golden_section(curve, 1e-3 * mu, mu * (1.0 - 1e-9), tol=1e-12)
        assert op.optimal_arrival(family, mu).c0 == pytest.approx(aud_star, rel=1e-12)
