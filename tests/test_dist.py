"""Arrival-model moments, transforms, sampling, and the spec-string grammar."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audkit as ak
from audkit import dist
from audkit.errors import ConvergenceError, InputError

import mp_oracle
from conftest import NoDensityError, pdf, quad_transform

ALL_MODELS = [
    ak.Exponential(1.0),
    ak.Exponential(0.35),
    ak.Uniform(2.0),
    ak.Uniform(0.7),
    ak.Lomax(3.0, 2.0),
    ak.Lomax(2.4, 5.0),
    ak.Lomax(4.0, 3.0),
    ak.FoldedNormal(1.0, 0.5),
    ak.FoldedNormal(0.0, 1.0),
    ak.FoldedNormal(2.0, 0.05),
    ak.Deterministic(1.0),
    ak.Deterministic(0.25),
    # Lomax shapes from near 2 up to the oracle optimizer's cap 2 + 1e6, with beta s
    # spanning 1e-10 to 1e3 over S_GRID (8e6 at the cap)
    ak.Lomax(2.05, 0.01),
    ak.Lomax(3.0, 125.0),
    ak.Lomax(10.0, 1.0),
    ak.Lomax(50.0, 100.0),
    ak.Lomax(2.0 + 1e6, 1e6),
]

DENSITY_MODELS = [m for m in ALL_MODELS if not isinstance(m, ak.Deterministic)]

S_GRID = [1e-8, 1e-4, 0.05, 0.3, 1.0, 2.7, 8.0]


# --- construction invariants -------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        lambda: ak.Exponential(0.0),
        lambda: ak.Exponential(-1.0),
        lambda: ak.Uniform(0.0),
        lambda: ak.Lomax(2.0, 1.0),  # second moment would not exist
        lambda: ak.Lomax(1.5, 1.0),
        lambda: ak.Lomax(3.0, 0.0),
        lambda: ak.FoldedNormal(-0.1, 1.0),
        lambda: ak.FoldedNormal(1.0, -0.5),
        lambda: ak.FoldedNormal(0.0, 0.0),
        lambda: ak.Deterministic(0.0),
        lambda: ak.ServiceModel(0.0),
    ],
)
def test_invalid_construction_rejected(bad):
    with pytest.raises(InputError):
        bad()


@pytest.mark.parametrize("model", ALL_MODELS)
def test_mean_positive(model):
    assert model.mean() > 0
    assert model.second_moment() >= model.mean() ** 2  # E[X^2] >= (E[X])^2


# --- pdf ---------------------------------------------------------------------


def test_pdf_examples():
    assert pdf(ak.Uniform(2.0), 1.0) == 0.5
    assert pdf(ak.Lomax(3.0, 1.0), 0.0) == pytest.approx(3.0, rel=1e-14)
    # two-Gaussian density at the origin with zero location
    assert pdf(ak.FoldedNormal(0.0, 1.0), 0.0) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-14
    )


def test_pdf_point_masses_rejected():
    with pytest.raises(NoDensityError):
        pdf(ak.Deterministic(1.0), 1.0)
    with pytest.raises(NoDensityError):
        pdf(ak.FoldedNormal(1.0, 0.0), 1.0)


@pytest.mark.parametrize("model", DENSITY_MODELS)
def test_pdf_rejects_negative_argument(model):
    with pytest.raises(InputError):
        pdf(model, -0.5)


@pytest.mark.parametrize("model", DENSITY_MODELS)
def test_pdf_normalizes(model):
    assert quad_transform(model, 0.0) == pytest.approx(1.0, abs=1e-8)


# --- moments ----------------------------------------------------------------


def test_moment_examples():
    u = ak.Uniform(2.0)
    assert u.mean() == 1.0
    assert u.second_moment() == pytest.approx(4.0 / 3.0, rel=1e-15)
    lo = ak.Lomax(3.0, 2.0)
    assert lo.mean() == 1.0
    assert lo.second_moment() == pytest.approx(4.0, rel=1e-15)
    assert ak.FoldedNormal(1.0, 0.0).mean() == 1.0
    assert ak.FoldedNormal(1.0, 0.0).second_moment() == 1.0
    assert ak.Deterministic(0.25).mean() == 0.25
    assert ak.Deterministic(0.25).second_moment() == 0.0625


@pytest.mark.parametrize("model", DENSITY_MODELS)
def test_moments_match_quadrature(model):
    assert quad_transform(model, 0.0, moment=1) == pytest.approx(
        model.mean(), rel=1e-8
    )


def test_folded_normal_second_moment_is_alpha_sq_plus_sigma_sq():
    fn = ak.FoldedNormal(1.3, 0.7)
    assert fn.second_moment() == pytest.approx(1.3**2 + 0.7**2, rel=1e-15)
    assert quad_transform(fn, 0.0, moment=2, upper=60.0) == pytest.approx(
        fn.second_moment(), rel=1e-9
    )


@pytest.mark.parametrize("alpha,sigma", [(1.0, 0.1), (1.5, 0.4), (1.0, 1.0), (0.0, 1.0),
                                         (2.0, 5.0), (10.0, 1.0)])
def test_folded_normal_mean_scales_without_overflow(alpha, sigma):
    # alpha**2 used to overflow: FoldedNormal(1e200, 1e199).mean() raised OverflowError
    base = ak.FoldedNormal(alpha, sigma).mean()
    for k in (1e-200, 1e-100, 1e-10, 3.0, 1e10, 1e100, 1e200):
        assert ak.FoldedNormal(k * alpha, k * sigma).mean() == pytest.approx(k * base, rel=1e-15)


@pytest.mark.parametrize("model", [ak.Exponential(1e-200), ak.Uniform(1e200),
                                   ak.Lomax(3.0, 1e200), ak.FoldedNormal(1e200, 1e199),
                                   ak.Deterministic(1e200)])
def test_second_moment_past_the_double_range_is_inf(model):
    # exp's 2 / rate**2 divided by zero and uniform's beta**2 overflowed
    assert model.second_moment() == math.inf


# --- laplace / weighted first moment -----------------------------------------


def test_laplace_examples():
    assert ak.Exponential(1.0).laplace(1.0) == 0.5
    assert ak.Deterministic(0.5).laplace(2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    for model in ALL_MODELS:
        assert model.laplace(0.0) == 1.0
    # beta s underflows to 0 for s > 0; (1 - e^-u)/u divided by zero there
    assert ak.Uniform(0.5).laplace(5e-324) == 1.0


@pytest.mark.parametrize("model,s", [
    (ak.Exponential(1e-300), 1e300),
    (ak.Uniform(1e300), 1e10),
    (ak.Lomax(3.0, 1e300), 1e10),
    (ak.FoldedNormal(1e300, 1e299), 1e10),
    (ak.FoldedNormal(0.0, 1e300), 1e10),
    (ak.Deterministic(1e300), 1e10),
])
def test_transforms_take_their_limits_where_scale_times_s_overflows(model, s):
    # uniform and the folded normal gave (nan, nan) here: laplace and W1
    # are 0 there and survival_laplace 1/s
    assert model.mean() * s == math.inf
    assert model.newton_terms(s, False) == (0.0, 0.0)
    assert model.newton_terms(s, True) == (1.0 / s, 0.0)


def test_transforms_stay_finite_where_the_square_of_scale_times_s_overflows():
    # (v v)/2 overflowed in both Gaussian-tail exponents (inf - inf), and
    # uniform's u u in its survival head: all four were NaN
    fn = ak.FoldedNormal(1.0, 1.0)
    v, gauss = 1e160, math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    lap, w1 = fn.newton_terms(v, False)
    assert lap == pytest.approx(2.0 * gauss / v, rel=1e-15)  # 2 phi(z)/v, to 1/v^2
    assert abs(w1) <= 1e-300  # 2 phi(z)/v^2, about 5e-321
    assert fn.newton_terms(v, True) == ((1.0 - lap) / v, w1)
    assert ak.Uniform(1e200).newton_terms(1e-40, True) == pytest.approx((1e40, 1e-120),
                                                                        rel=1e-15)
    # u u still finite, but beta (u - 1) overflows: inf before
    assert ak.Uniform(1e300).newton_terms(1e-150, True)[0] == pytest.approx(1e150, rel=1e-15)


def _erfcx_ulps(x):
    exact = mp_oracle.erfcx(x)
    return float(abs(dist._erfcx(x) - exact) / exact) / 2.0**-52


def test_erfcx_matches_oracle():
    # the Dekker-product form below the switch at 26, the asymptotic series
    # from it; scipy's erfcx was up to 3.8 ulps off on such a grid
    switch = dist._ERFCX_SWITCH
    grid = list(np.geomspace(1e-8, 1e6, 400)) + [
        math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf)]
    for x in grid:
        assert _erfcx_ulps(float(x)) <= 2.0, x


def test_erfcx_at_zero_and_where_the_square_overflows():
    assert dist._erfcx(0.0) == 1.0
    # x x overflows to inf; the series keeps its leading term 1/(x sqrt(pi))
    assert _erfcx_ulps(1e200) <= 2.0
    assert dist._erfcx(1e200) == pytest.approx(1.0 / (1e200 * math.sqrt(math.pi)), rel=4e-16)


def test_weighted_first_moment_examples():
    assert ak.Exponential(1.0).weighted_first_moment(0.0) == 1.0
    assert ak.Deterministic(1.0).weighted_first_moment(1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )
    # uniform closed form with the transform argument free, against quadrature
    assert ak.Uniform(2.0).weighted_first_moment(1.0) == pytest.approx(
        0.29699707514508096, rel=1e-12
    )


@pytest.mark.parametrize("model", DENSITY_MODELS)
@pytest.mark.parametrize("s", S_GRID)
def test_transforms_match_quadrature(model, s):
    lap, wfm = model.laplace(s), model.weighted_first_moment(s)
    assert math.isfinite(lap) and math.isfinite(wfm)
    assert lap == pytest.approx(quad_transform(model, s), abs=1e-8)
    assert wfm == pytest.approx(quad_transform(model, s, moment=1), abs=1e-8)


# p - 2 from 1e-3 to 1e6 with z from 1 to 1e6, and p from 20 to 2 + 1e6, where
# the continued fraction also takes z < 1, with z from 1e-10 to 1
CF_GRID = [(2.0 + float(q), float(z)) for q in np.geomspace(1e-3, 1e6, 41)
           for z in np.geomspace(1.0, 1e6, 41)]
CF_GRID += [(float(p), float(z)) for p in np.geomspace(20.0, 2.0 + 1e6, 31)
            for z in np.geomspace(1e-10, 1.0, 31)]


def _lentz_count(p, z):
    """Terms modified Lentz takes on the tail of E_p(z)'s continued fraction
    until a step moves it by eps or less."""
    b = z + p + 2.0
    c, d = 1e300, 1.0 / b
    for i in range(2, 100_000):
        an = -i * (p - 1.0 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if abs(c * d - 1.0) <= 2.0**-52:
            return i
    raise AssertionError(f"no convergence at p={p}, z={z}")


def test_euler_gamma_literal_is_numpys():
    # the E_p series reads the constant without importing it from numpy
    assert dist._EULER_GAMMA == np.euler_gamma


def test_cf_depth_covers_the_lentz_count():
    assert all(dist._cf_depth(p, z) >= _lentz_count(p, z) for p, z in CF_GRID)


# where h/(z + h) without its first-order correction is 1.08 to 1.24 eps off,
# the worst of 30,000 random points
CF_ROUNDING_POINTS = [(2.05601443974498, 126.77651019376496),
                      (2.0043961529546324, 141669.3771806781),
                      (2.001003139765712, 300703.0309585799),
                      (2.1972002781141518, 69480.69929435597)]


def test_cf_transforms_match_deep_reference():
    # Lomax(p, 1) at s = z: laplace p e^z E_{p+1}, W1 p e^z (E_p - E_{p+1}) and
    # survival_laplace e^z E_p, against modified Lentz at 30 digits
    worst = {"laplace": 0.0, "w1": 0.0, "survival": 0.0}
    with mpmath.mp.workdps(30):
        for p, z in CF_GRID + CF_ROUNDING_POINTS:
            g = mp_oracle.scaled_expint_tail(p, z)
            f = 1 / (mpmath.mpf(z) + p - p * g)
            exact = {"laplace": p * f * (1 - g), "w1": p * g * f, "survival": f}
            model = ak.Lomax(p, 1.0)
            lap, w1 = model.newton_terms(z, False)
            got = {"laplace": lap, "w1": w1, "survival": model.newton_terms(z, True)[0]}
            for k in worst:
                err = float(abs(got[k] - exact[k]) / exact[k]) / 2.0**-52
                worst[k] = max(worst[k], err)
    assert worst["laplace"] <= LAPLACE_ULPS["lomax"], worst
    assert worst["w1"] <= W1_ULPS["lomax"], worst
    assert worst["survival"] <= 4, worst


@pytest.mark.parametrize("p, z", [(2.001, 1.0), (3.5, 30.0), (25.0, 1e-3), (1000.0, 2.0)])
def test_deep_reference_matches_expint(p, z):
    # the continued fraction of mp_oracle against mpmath's incomplete gamma
    with mpmath.mp.workdps(mp_oracle.DPS):
        g = mp_oracle.scaled_expint_tail(p, z)
        f = 1 / (mpmath.mpf(z) + p - p * g)
        ez = mpmath.exp(z)
        assert abs(f / (ez * mpmath.expint(p, z)) - 1) < 1e-35
        assert abs((1 - g) * f / (ez * mpmath.expint(p + 1, z)) - 1) < 1e-35


def test_lomax_continued_fraction_failure_raises(monkeypatch):
    # a depth past _CF_MAX_TERMS raises, with the truncated value as best,
    # at every point of CF_GRID (at least 18 terms each)
    monkeypatch.setattr(dist, "_CF_MAX_TERMS", 3)
    with pytest.raises(ConvergenceError) as err:
        ak.Lomax(3.0, 2.0).laplace(5.0)
    assert math.isfinite(err.value.best)
    for p, z in CF_GRID:
        with pytest.raises(ConvergenceError) as err:
            ak.Lomax(p, 1.0).laplace(z)
        assert 0.0 < err.value.best < 1.0, (p, z)


def test_lngamma_coefficients_are_scipys_bit_for_bit():
    from scipy.special import zeta

    assert dist._LNGAMMA_1M == tuple(float(zeta(k) / k) for k in range(53, 1, -1))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_weighted_first_moment_at_zero_is_mean(model):
    assert model.weighted_first_moment(0.0) == pytest.approx(
        model.mean(), rel=1e-10
    )


@pytest.mark.parametrize("model", ALL_MODELS)
def test_survival_laplace_matches_oracle(model):
    # a few ulps where the family has its own form; the folded normal's
    # (1 - laplace(s))/s loses the digits 1 - laplace(s) cancels, about 1/(s E[X])
    assert model.survival_laplace(0.0) == model.mean()
    for s in S_GRID:
        exact = mp_oracle.survival_laplace(model, s)
        err = float(abs(model.survival_laplace(s) - exact) / exact)
        cancelled = 1.0 / min(1.0, s * model.mean()) if isinstance(model, ak.FoldedNormal) else 1.0
        assert err <= 4 * 2.0**-52 * cancelled, s


# ulps of laplace, the survival=False head of newton_terms that q0 reads,
# against the 40-digit oracle; each a little above the worst measured on
# S_GRID (exp 0.77, uniform 0.53, lomax 0.86, fnorm 3.1, det 0.37)
LAPLACE_ULPS = {"exp": 1, "uniform": 1, "lomax": 1, "fnorm": 4, "det": 1}


@pytest.mark.parametrize("model", ALL_MODELS)
def test_laplace_matches_oracle(model):
    for s in [0.0] + S_GRID:
        exact = mp_oracle.laplace(model, s)
        err = float(abs(model.laplace(s) - exact) / exact)
        assert err <= LAPLACE_ULPS[model.tag] * 2.0**-52, s


# every family and the folded normal's point mass; Lomax(3, 2) takes the
# series (beta s < 1) and the continued fraction (beta s >= 1) over S_GRID,
# Lomax(50, 100) the continued fraction by its shape (>= _CF_MIN_ORDER)
NEWTON_MODELS = ALL_MODELS + [ak.FoldedNormal(1.5, 0.0)]


def test_each_family_writes_its_transforms_once():
    # laplace, weighted_first_moment and survival_laplace are ArrivalModel's,
    # returning components of the family's newton_terms
    transforms = {"laplace", "weighted_first_moment", "survival_laplace", "newton_terms"}
    for cls in ak.dist.FAMILIES.values():
        assert transforms & set(vars(cls)) == {"newton_terms"}, cls.__name__


@pytest.mark.parametrize("model", NEWTON_MODELS)
def test_newton_terms_are_the_transforms_bit_for_bit(model):
    for s in [0.0] + S_GRID + [10.0]:
        assert model.newton_terms(s, False) == (model.laplace(s), model.weighted_first_moment(s))
        assert model.newton_terms(s, True) == (
            model.survival_laplace(s), model.weighted_first_moment(s))


# ulps of W1 against the 40-digit oracle, each a little above the worst
# measured on S_GRID; the folded normal's (a - sigma v) t1 - (a + sigma v) t2
# + gauss cancels as v = sigma s grows, past this bound from about v = 8
W1_ULPS = {"exp": 2, "uniform": 8, "lomax": 10, "fnorm": 16, "det": 1}
W1_CANCELS = "fnorm W1 cancels at large sigma s (ROADMAP item 14)"


def _w1_ulps(model, s):
    exact = mp_oracle.weighted_first_moment(model, s)
    return float(abs(model.weighted_first_moment(s) - exact) / exact) / 2.0**-52


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("s", [0.0] + S_GRID)
def test_weighted_first_moment_matches_oracle(model, s, request):
    if isinstance(model, ak.FoldedNormal) and model.sigma * s >= 8.0:
        request.applymarker(pytest.mark.xfail(strict=True, reason=W1_CANCELS))
    assert _w1_ulps(model, s) <= W1_ULPS[model.tag]


@pytest.mark.xfail(strict=True, reason=W1_CANCELS)
@pytest.mark.parametrize("sigma", [1.0, 10.0])  # 46 and 4.9e6 ulps off
def test_fnorm_weighted_first_moment_at_large_sigma_s(sigma):
    assert _w1_ulps(ak.FoldedNormal(1.0, sigma), 10.0) <= W1_ULPS["fnorm"]


def test_uniform_weighted_first_moment_keeps_its_digits():
    # the series below beta s = 1/2 and the direct form above it; the
    # direct form alone was 1.7e-10 relative off at beta s = 1e-3
    model = ak.Uniform(1.0)
    for u in np.geomspace(1e-12, 5.0, 60):
        assert _w1_ulps(model, float(u)) <= W1_ULPS["uniform"], u


@pytest.mark.parametrize("model", ALL_MODELS)
def test_laplace_decreasing_in_unit_interval(model):
    values = [model.laplace(s) for s in [0.0, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0]]
    for v in values:
        assert 0.0 < v <= 1.0
    for a, b in zip(values, values[1:]):
        assert b < a


@settings(max_examples=150, deadline=None)
@given(
    rate=st.floats(0.05, 20.0),
    s1=st.floats(0.0, 30.0),
    ds=st.floats(1e-3, 30.0),
)
def test_laplace_monotone_property_exponential(rate, s1, ds):
    m = ak.Exponential(rate)
    assert m.laplace(s1 + ds) < m.laplace(s1) <= 1.0


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(0.0, 5.0),
    sigma=st.floats(0.01, 3.0),
    s1=st.floats(0.0, 20.0),
    ds=st.floats(1e-3, 20.0),
)
def test_laplace_monotone_property_folded_normal(alpha, sigma, s1, ds):
    if alpha == 0.0 and sigma == 0.0:
        return
    m = ak.FoldedNormal(alpha, sigma)
    v1, v2 = m.laplace(s1), m.laplace(s1 + ds)
    assert 0.0 < v1 <= 1.0
    assert v2 < v1


def test_folded_normal_degenerates_to_deterministic():
    det = ak.Deterministic(1.0)
    near = ak.FoldedNormal(1.0, 1e-8)
    for s in (0.1, 1.3, 4.0):
        assert abs(near.laplace(s) - det.laplace(s)) < 1e-6
        assert abs(
            near.weighted_first_moment(s) - det.weighted_first_moment(s)
        ) < 1e-6


def test_transform_rejects_negative_argument():
    for model in ALL_MODELS:
        with pytest.raises(InputError):
            model.laplace(-0.1)
        with pytest.raises(InputError):
            model.weighted_first_moment(-1e-9)
        for survival in (False, True):
            with pytest.raises(InputError):
                model.newton_terms(-1e-9, survival)


# --- sampling -----------------------------------------------------------------


def test_deterministic_sample_is_constant(rng):
    m = ak.Deterministic(1.0)
    assert np.all(m.sample(rng, size=100) == 1.0)


@pytest.mark.parametrize(
    "model",
    [
        ak.Exponential(2.0),
        ak.Uniform(2.0),
        ak.Lomax(3.0, 2.0),
        ak.FoldedNormal(1.0, 0.5),
    ],
)
def test_sample_moments_converge(model, rng):
    n = 1_000_000
    x = np.asarray(model.sample(rng, size=n))
    assert np.all(x >= 0.0)
    se_mean = x.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - model.mean()) < 3.0 * se_mean
    x2 = x * x
    se_m2 = x2.std(ddof=1) / math.sqrt(n)
    assert abs(x2.mean() - model.second_moment()) < 3.0 * se_m2


def test_exponential_sample_mean_tolerance(rng):
    x = ak.Exponential(2.0).sample(rng, size=1_000_000)
    assert abs(x.mean() - 0.5) < 0.002


def test_lomax_sample_mean_tolerance(rng):
    x = ak.Lomax(3.0, 2.0).sample(rng, size=1_000_000)
    assert abs(x.mean() - 1.0) < 0.01


def test_uniform_sample_support(rng):
    x = ak.Uniform(0.7).sample(rng, size=10_000)
    assert np.all(x > 0.0)
    assert np.all(x <= 0.7)


# --- spec-string grammar -------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("exp:rate=1.5", ak.Exponential(1.5)),
        ("uniform:beta=2", ak.Uniform(2.0)),
        ("lomax:alpha=3,beta=2", ak.Lomax(3.0, 2.0)),
        ("lomax:beta=2,alpha=3", ak.Lomax(3.0, 2.0)),
        ("fnorm:alpha=1,sigma=0.5", ak.FoldedNormal(1.0, 0.5)),
        ("det:period=0.25", ak.Deterministic(0.25)),
    ],
)
def test_parse_arrival(text, expected):
    assert ak.parse_arrival(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "gauss:mu=1",
        "exp",
        "exp:lambda=1",
        "exp:rate=abc",
        "lomax:alpha=3",
        "uniform:beta=2,extra=1",
        "exp:rate=0.5,rate=0.6",
        "",
    ],
)
def test_parse_arrival_rejects(text):
    with pytest.raises(InputError):
        ak.parse_arrival(text)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_format_parse_round_trip(model):
    from audkit.dist import format_arrival

    assert ak.parse_arrival(format_arrival(model)) == model


def test_arrival_rate():
    assert ak.arrival_rate(ak.Uniform(2.0)) == 1.0
    assert ak.arrival_rate(ak.Deterministic(0.5)) == 2.0


@pytest.mark.parametrize(
    "cls,args",
    [
        (ak.Exponential, (math.inf,)),
        (ak.Uniform, (math.inf,)),
        (ak.Lomax, (math.inf, 1.0)),
        (ak.Lomax, (3.0, math.inf)),
        (ak.FoldedNormal, (math.inf, 1.0)),
        (ak.FoldedNormal, (1.0, math.inf)),
        (ak.Deterministic, (math.inf,)),
        (ak.ServiceModel, (math.inf,)),
        (ak.Exponential, (-math.inf,)),
        (ak.Uniform, (math.nan,)),
    ],
)
def test_non_finite_parameters_rejected(cls, args):
    with pytest.raises(InputError):
        cls(*args)


@pytest.mark.parametrize(
    "text,part",
    [
        ("exp:rate=inf", "rate=inf"),
        ("uniform:beta=inf", "beta=inf"),
        ("lomax:alpha=3,beta=-inf", "beta=-inf"),
        ("det:period=nan", "period=nan"),
    ],
)
def test_parse_arrival_names_non_finite_value(text, part):
    with pytest.raises(InputError, match=f"non-finite value in '{part}'"):
        ak.parse_arrival(text)
