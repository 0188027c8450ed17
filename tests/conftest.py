"""Shared test oracles: the arrival densities and direct quadrature of them,
independent of the closed forms under test."""

import math

import numpy as np
import pytest
from scipy import integrate

import audkit as ak
from audkit.errors import InputError


class NoDensityError(InputError):
    """The model is a point mass and has no probability density function."""


def _check_x(x: float) -> float:
    x = float(x)
    if not x >= 0.0:
        raise InputError(f"density argument must be >= 0, got {x}")
    return x


def _lomax_pdf(m, x):
    # log form, with the shape multiplying log1p(-x/(x+beta)) rather than
    # log(beta) alone: beta**alpha overflows for large shapes even when
    # the density value itself is moderate.
    log_f = math.log(m.alpha) + m.alpha * math.log1p(-x / (x + m.beta)) - math.log(x + m.beta)
    return math.exp(log_f)


def _fnorm_pdf(m, x):
    if m.sigma == 0.0:
        raise NoDensityError("folded normal with sigma=0 is a point mass and has no density")
    a, sg = m.alpha, m.sigma
    c = 1.0 / (math.sqrt(2.0 * math.pi) * sg)
    return c * (
        math.exp(-((x - a) ** 2) / (2.0 * sg**2)) + math.exp(-((x + a) ** 2) / (2.0 * sg**2))
    )


def _no_density(m, x):
    raise NoDensityError("deterministic arrivals are a point mass; no density")


_DENSITIES = {
    ak.Exponential: lambda m, x: m.rate * math.exp(-m.rate * x),
    ak.Uniform: lambda m, x: 1.0 / m.beta if 0.0 < x < m.beta else 0.0,
    ak.Lomax: _lomax_pdf,
    ak.FoldedNormal: _fnorm_pdf,
    ak.Deterministic: _no_density,
}


def pdf(model, x):
    """Density of ``model`` at x >= 0. Point-mass models raise NoDensityError."""
    return _DENSITIES[type(model)](model, _check_x(x))


def quad_transform(model, s, moment=0, upper=None):
    """Reference value of int x^moment f(x) exp(-s x) dx by brute quadrature.

    Deliberately independent of the model's own transform code paths: it
    only calls pdf(). Breakpoints around the mean keep the adaptive grid
    honest on long-tailed supports.
    """
    m = model.mean()
    if upper is None:
        if isinstance(model, ak.Uniform):
            upper = model.beta
        elif isinstance(model, ak.Lomax):
            # polynomial tails need a huge window before they stop mattering
            upper = 1e8 if s < 1e-3 else max(1e4, m + 800.0 / s)
        else:
            upper = 200.0 * m
    pts = sorted(p for p in (m * 5.0**k for k in range(12)) if 0 < p < upper)
    val, err = integrate.quad(
        lambda x: x**moment * pdf(model, x) * math.exp(-s * x),
        0.0,
        upper,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=800,
        points=pts or None,
    )
    return val


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240817))
