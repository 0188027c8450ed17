"""Inter-arrival time models for update-and-decide queueing systems.

Five families are supported: exponential, uniform on (0, beta), Lomax
(heavy tail), folded normal, and deterministic (periodic).  Each model
exposes exact first and second moments, the exponentially weighted
integrals that the queueing formulas consume,

    laplace(s)               = int_0^inf f(x) exp(-s x) dx
    weighted_first_moment(s) = int_0^inf x f(x) exp(-s x) dx
    survival_laplace(s)      = int_0^inf (1 - F(x)) exp(-s x) dx
                             = (1 - laplace(s)) / s,

and seedable random sampling.  ``survival_laplace`` keeps the digits that
1 - laplace(s) cancels as s -> 0 (except for the folded normal, which has no
such form).  A family writes its transforms once, in
``newton_terms(s, survival)``: laplace(s), or survival_laplace(s) if
``survival``, and weighted_first_moment(s), which is what a step of the rho1
Newton solve needs at s.  The three named transforms are components of it.
Model objects are immutable and hashable, and can be shared across threads.

Every transform is a closed form.  The Lomax transforms are generalized
exponential integrals E_p(z), evaluated by a continued fraction or, for
small z and moderate p, by a power series and upward recurrence.  The
continued fraction runs backwards, one division a term, from a depth that
``_cf_depth`` reads off (p, z): a fit above the measured modified-Lentz term
counts, with a margin, and a ConvergenceError past ``_CF_MAX_TERMS``.  The
folded-normal transforms are evaluated through the scaled complementary
error function, ``_erfcx``, in pure Python, so they stay finite all the way
down to sigma -> 0, where the family degenerates to a point mass.

Each family is one class, registered in ``FAMILIES``: its spec-string tag,
``with_rate`` for the one-parameter slice of the family at a given arrival
rate (lambda sweeps and the arrival optimizer), and either its
``optimal_load`` or, for the two-parameter families, the ``limit`` family
whose slice holds their infimum mean AuD.
``parse_spec``/``format_spec`` serve the families and the decision
disciplines alike.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConvergenceError, InputError

__all__ = [
    "ArrivalModel",
    "Exponential",
    "Uniform",
    "Lomax",
    "FoldedNormal",
    "Deterministic",
    "ServiceModel",
    "FAMILIES",
    "arrival_rate",
    "spec_registry",
    "spec_grammar",
    "parse_spec",
    "format_spec",
    "parse_arrival",
    "format_arrival",
    "ARRIVAL_GRAMMAR",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# E_p(z) = int_1^inf exp(-z t) t^-p dt.  Its continued fraction needs at most
# ~100 terms for z >= 1 or p >= _CF_MIN_ORDER, but 4,600 at p = 2.05, z = 0.01
# and ever more as z -> 0, where a series takes over.
_CF_MIN_ORDER = 20.0
_CF_MAX_TERMS = 1000
# zeta(k)/k, k = 53..2, as scipy.special.zeta rounds them (11 differ from the
# correctly rounded value by an ulp): ln Gamma(1-e) = euler_gamma e +
# sum_k zeta(k) e^k / k (A&S 6.1.33), to 1e-17 for |e| <= 1/2.
_LNGAMMA_1M = (
    0.01886792452830189, 0.019230769230769235, 0.019607843137254912, 0.020000000000000018,
    0.02040816326530616, 0.02083333333333341, 0.021276595744681003, 0.021739130434782917,
    0.022222222222222855, 0.02272727272727402, 0.023255813953491015, 0.023809523809529224,
    0.024390243902450117, 0.025000000000022737, 0.025641025641072283, 0.02631578947377995,
    0.027027027027223673, 0.027777777778181998, 0.02857142857226011, 0.029411764707594344,
    0.030303030306558048, 0.03125000000727597, 0.03225806453115041, 0.03333333336437758,
    0.034482758684919304, 0.03571428584733336, 0.037037037312989324, 0.03846153903467519,
    0.04000000119214014, 0.04166666915034121, 0.04347826605304026, 0.04545455629320467,
    0.04761907033014223, 0.05000004769810169, 0.05263167937961666, 0.055555767627403614,
    0.05882397865868458, 0.06250095514121304, 0.06666870588242046, 0.07143294629536134,
    0.0769325164113522, 0.083353840546109, 0.09095401714582904, 0.10009945751278179,
    0.11133426586956469, 0.12550966952474304, 0.14404989676884614, 0.16955717699740822,
    0.207385551028674, 0.27058080842778454, 0.40068563438653143, 0.8224670334241132,
)
# (-1)^k/(k+2)!, k = 15..0: (u + expm1(-u))/u^2 = sum_k (-u)^k/(k+2)!, to
# 1e-17 relative for u <= 1/2.
_UNIFORM_SURVIVAL = tuple((-1.0) ** k / math.factorial(k + 2) for k in range(15, -1, -1))
# (-1)^k (k-1)/k!, k = 19..2: (1 - e^-u (1 + u))/u^2 = sum_k (-1)^k (k-1) u^(k-2)/k!,
# to 1e-20 relative for u <= 1/2, where the direct form cancels.
_UNIFORM_W1 = tuple((-1.0) ** k * (k - 1) / math.factorial(k) for k in range(19, 1, -1))
# (-1)^k (2k-1)!!, k = 7..0: erfcx(x) ~ sum_k (-1)^k (2k-1)!!/(2x^2)^k / (x sqrt(pi))
# from x = _ERFCX_SWITCH, where erfc(x) nears the bottom of the normal floats
_ERFCX_SWITCH = 26.0
_ERFCX_ASYMPTOTIC = tuple((-1.0) ** k * math.prod(range(1, 2 * k, 2)) for k in range(7, -1, -1))
_INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi), correctly rounded
_EULER_GAMMA = 0.5772156649015329  # np.euler_gamma


def _horner(coefs: tuple, x: float) -> float:
    """The polynomial with coefficients ``coefs``, highest power first, at x."""
    acc = 0.0
    for coef in coefs:
        acc = acc * x + coef
    return acc


def _norm_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _erfcx(x: float) -> float:
    """The scaled complementary error function e^(x^2) erfc(x), for x >= 0.

    Below ``_ERFCX_SWITCH``, where erfc(x) is still a normal float, it is
    e^hi erfc(x) (1 + lo) with hi + lo = x^2 exactly (Dekker's product), so
    the rounding of x^2 does not reach e^(x^2).  From there up it is the
    asymptotic series 1/(x sqrt(pi)) sum_k (-1)^k (2k-1)!!/(2x^2)^k, whose
    ninth term is below 2e-19 at the switch; past x ~ 1e154, 1/(2x^2)
    underflows to 0, which leaves the leading term.  Within 1.83 ulps of
    mpmath on 8,000 points from 1e-8 to 1e6, and at 0 and 1e200.
    """
    if x < _ERFCX_SWITCH:
        hi = x * x
        xh = x * 134217729.0  # Veltkamp split: 2^27 + 1
        xh -= xh - x
        xl = x - xh
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        return math.exp(hi) * math.erfc(x) * (1.0 + lo)
    return _INV_SQRT_PI / x * _horner(_ERFCX_ASYMPTOTIC, 0.5 / x / x)


def _cf_depth(p: float, z: float) -> int:
    """Terms of E_p(z)'s continued fraction that ``_scaled_expint_pair`` takes.

    Fitted on 21,202 points (p - 2 from 1e-3 to 1e6 with z from 1 to 1e6, and
    p from 20 to 2e6 with z from 1e-10 to 1) to at least 1.1 times the
    modified-Lentz count, the terms Lentz takes to a relative step of eps,
    and to at least the depth past which the truncated g stays within eps/10
    of its limit.  That count is 96/55/30/19/7 at z = 1/2/5/10/100 for p near
    2, and 49/20/11 at p = 20/50/200 as z -> 0; the eps/10 depth is up to
    1.28 times it near z = 1, where the fraction converges slowly.  p * p,
    not a power, so that a huge shape gives the floor of 18, not an
    OverflowError.
    """
    return 18 + int(103.0 / (z + p * p / 225.0))


@lru_cache(maxsize=256)
def _series_shape(p: float) -> tuple[int, float, float]:
    """(n, e, e lg) of the series branch at order p = n + e: the terms that
    depend on the shape alone, computed once per shape."""
    n = round(p)
    e = p - n
    return n, e, e * _horner(_LNGAMMA_1M, e)  # lg = (ln Gamma(1-e) - euler_gamma e) / e^2


def _scaled_expint_pair(p: float, z: float) -> tuple[float, float, float]:
    """(e^z E_p(z), e^z [E_p(z) - E_{p+1}(z)], p e^z E_{p+1}(z)) for p > 1 and
    z > 0, from one E_p pair."""
    if z >= 1.0 or p >= _CF_MIN_ORDER:
        # The tail g of e^z E_p = 1/(z+p - 1*p/(z+p+2 - 2(p+1)/(z+p+4 - ...)))
        # = 1/(z+p - p g), evaluated backwards from the depth _cf_depth gives:
        # u_i = i(p-1+i)/(z+p+2i - u_{i+1}), g = 1/(z+p+2 - u_2), one division a
        # term where modified Lentz takes two and a convergence test.  Each
        # z+p+2i is formed afresh, so its rounding stays relative to itself;
        # the float counter spares an int-to-float conversion a term.
        # E_{p+1} = (exp(-z) - z E_p)/p turns the difference into g e^z E_p and
        # p e^z E_{p+1} into h/(z + h), h = p (1 - g): free of the cancellation
        # that costs log10(p) digits below, and one rounding from h.
        depth = _cf_depth(p, z)
        pm1 = p - 1.0
        zp = z + p
        u = 0.0
        i = float(min(depth, _CF_MAX_TERMS))
        while i > 1.5:
            u = i * (pm1 + i) / (zp + 2.0 * i - u)
            i -= 1.0
        g = 1.0 / (zp + 2.0 - u)
        pg = p * g
        h = p - pg
        den = z + h
        if depth > _CF_MAX_TERMS:
            raise ConvergenceError(
                f"exponential-integral continued fraction needs {depth} terms, "
                f"more than {_CF_MAX_TERMS} (p={p}, z={z})",
                best=1.0 / den,
            )
        # h/(z + h), corrected to first order by the roundings of h (Fast2Sum,
        # exact as pg < p) and of z + h (TwoSum): within an eps, where the
        # three roundings alone reach 1.25
        lap = h / den
        dh = (p - h) - pg
        t = den - z
        dden = (z - (den - t)) + (h - t) + dh
        return 1.0 / den, g / den, lap + (dh - lap * dden) / den
    # z < 1: A&S 5.1.12 gives E_{1+e}(z) at e = p - round(p) as
    #   -expm1(e w)/e - sum_{k>=1} (-z)^k / (k! (k-e)),  w = ln z + ln Gamma(1-e)/e,
    # which does not cancel as e -> 0 (gammaincc at the fractional order loses
    # digits like 1/e).  The upward recurrence to E_p scales errors by z/q < 2.
    n, e, elg = _series_shape(p)
    w = math.log(z) + _EULER_GAMMA + elg
    e_q = -w if e == 0.0 else -math.expm1(e * w) / e
    t = 1.0
    for k in range(1, 20):  # z^19/19! < 1e-17
        t *= -z / k
        e_q -= t / (k - e)
    ez = math.exp(-z)
    for j in range(1, n):
        e_q = (ez - z * e_q) / (j + e)
    f = e_q / ez
    df = f - (1.0 - z * f) / p
    return f, df, p * (f - df)


def _check_s(s: float) -> float:
    s = float(s)
    if not s >= 0.0:
        raise InputError(f"transform argument must be >= 0, got {s}")
    return s


def _positive(what: str, value: float) -> None:
    """Rejects a parameter that is NaN, infinite or not above zero."""
    if not value > 0:
        raise InputError(f"{what} must be > 0, got {value}")
    if value == math.inf:
        raise InputError(f"{what} must be finite, got {value}")


class ArrivalModel:
    """Common interface of the inter-arrival distribution families.

    Class attributes: ``tag`` names the family in spec strings, ``keys``
    (set by ``spec_registry``) lists its parameters in constructor order,
    and ``limit`` is None for a one-parameter family.  Each family gives
    ``mean``, ``second_moment``, ``newton_terms`` and ``sample``.
    ``newton_terms`` is the family's one description of its transforms at
    s, so that they share their work there (Lomax one E_p pair, the folded
    normal two Gaussian tails); ``laplace``, ``weighted_first_moment`` and
    ``survival_laplace`` are defined here and return its components.

    A two-parameter family is not fixed by its rate, so its ``with_rate``
    raises; its ``limit`` names the one-parameter family on its boundary
    (folded normal at sigma -> 0 is ``det``, Lomax at shape -> infinity is
    ``exp``), whose mean AuD is at most its own at every arrival rate.  The
    arrival optimizer answers with that family instead.

    ``optimal_load`` is the load lambda/mu at which a one-parameter family
    has its least mean AuD under Poisson decisions, the same at every mu
    (the derivation is in ``optimize``); None for a two-parameter family.

    ``rho1_floor`` is a c with rho1 >= c rho for every member of the family
    at every load rho < 1, where the rho1 Newton climb may start: 1 for
    Lomax, which dominates the exponential of its mean in convex order
    (``solve_rho1``), and 0, no bound, for the others.
    """

    limit: Optional[str] = None
    rho1_floor: float = 0.0
    optimal_load: Optional[float] = None

    @classmethod
    def with_rate(cls, lam: float) -> "ArrivalModel":
        """The model of this family at arrival rate ``lam``.

        A classmethod, also callable on an instance (lambda sweeps).
        """
        raise InputError(
            f"cannot sweep lambda for a {cls.__name__} arrival; "
            "sweep arrival.<param> instead"
        )

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def laplace(self, s: float) -> float:
        """int_0^inf f(x) exp(-s x) dx for s >= 0; equals 1 at s = 0."""
        return self.newton_terms(s, False)[0]

    def weighted_first_moment(self, s: float) -> float:
        """int_0^inf x f(x) exp(-s x) dx for s >= 0; equals mean() at s = 0."""
        return self.newton_terms(s, False)[1]

    def survival_laplace(self, s: float) -> float:
        """int_0^inf (1 - F(x)) exp(-s x) dx = (1 - laplace(s))/s; mean() at s = 0."""
        return self.newton_terms(s, True)[0]

    def rho0(self, mu: float) -> Optional[float]:
        """The family's entry in a system's derived quantities: exp(-mu P)
        for periodic arrivals, which offset decisions read; None, no entry,
        for the others."""
        return None

    def newton_terms(self, s: float, survival: bool) -> tuple[float, float]:
        """(survival_laplace(s) if ``survival`` else laplace(s),
        weighted_first_moment(s)), bit for bit, for one rho1 Newton step."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw a vector of ``size`` values from the model."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(ArrivalModel):
    """Exponential inter-arrival times with rate ``rate`` (mean 1/rate)."""

    tag = "exp"
    optimal_load = 0.5310100564595692
    rate: float

    def __post_init__(self):
        _positive("exponential rate", self.rate)

    @classmethod
    def with_rate(cls, lam):
        return cls(lam)

    def mean(self):
        return 1.0 / self.rate

    def second_moment(self):
        r = self.rate  # below 1e-150, r r would lose digits, then underflow to 0
        return 2.0 / (r * r) if r > 1e-150 else 2.0 / r / r

    def newton_terms(self, s, survival):
        d = self.rate + _check_s(s)
        w1 = self.rate / (d * d) if d > 1e-150 else self.rate / d / d  # as in second_moment
        return (1.0 / d if survival else self.rate / d), w1

    def sample(self, rng, size):
        u = rng.random(size)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= -self.rate  # -log1p(-u) / rate, without a temporary
        return u


@dataclass(frozen=True)
class Uniform(ArrivalModel):
    """Uniform inter-arrival times on (0, beta)."""

    tag = "uniform"
    optimal_load = 0.5224794912406758
    beta: float

    def __post_init__(self):
        _positive("uniform width", self.beta)

    @classmethod
    def with_rate(cls, lam):
        return cls(2.0 / lam)

    def mean(self):
        return self.beta / 2.0

    def second_moment(self):
        return self.beta * self.beta / 3.0  # inf, not OverflowError, past ~1.3e154

    def newton_terms(self, s, survival):
        s = _check_s(s)
        u = self.beta * s
        if u == math.inf:  # beta s overflows: the limits, survival_laplace ~ 1/s
            return (1.0 / s if survival else 0.0), 0.0
        small = u < 0.5  # where the direct survival and W1 forms cancel; the series do not
        if not survival:
            # (1 - exp(-u)) / u; expm1 keeps the removable singularity at u -> 0 stable
            head = -math.expm1(-u) / u if u else 1.0
        elif small:
            head = self.beta * _horner(_UNIFORM_SURVIVAL, u)
        else:
            excess = u + math.expm1(-u)
            num, uu = self.beta * excess, u * u
            # divided by u twice only where u u (from u ~ 1.3e154) or the
            # numerator overflows, so that it stays about 1/s there
            head = num / uu if max(num, uu) < math.inf else self.beta * (excess / u) / u
        if small:
            return head, self.beta * _horner(_UNIFORM_W1, u)
        return head, (1.0 - math.exp(-u) * (1.0 + u)) / (self.beta * s * s)

    def sample(self, rng, size):
        u = rng.random(size)
        return self.beta * (1.0 - u)


@dataclass(frozen=True)
class Lomax(ArrivalModel):
    """Lomax (Pareto type II) inter-arrival times.

    Density alpha * beta^alpha / (x + beta)^(alpha+1) on x >= 0.  The shape
    must satisfy alpha > 2 so that the second moment exists; smaller shapes
    are rejected at construction instead of surfacing as NaNs later.
    """

    tag = "lomax"
    limit = "exp"
    rho1_floor = 1.0
    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 2:
            raise InputError(
                f"lomax shape must be > 2 for a finite second moment, got {self.alpha}"
            )
        _positive("lomax shape", self.alpha)  # rejects inf
        _positive("lomax scale", self.beta)

    def mean(self):
        return self.beta / (self.alpha - 1.0)

    def second_moment(self):
        # grouped to avoid beta**2 overflow at extreme shapes
        return 2.0 * (self.beta / (self.alpha - 1.0)) * (self.beta / (self.alpha - 2.0))

    def newton_terms(self, s, survival):
        # At z = beta s (A&S 5.1.4 after x = beta (t-1)), from one E_p pair
        # f = e^z E_alpha(z), df = e^z [E_alpha(z) - E_{alpha+1}(z)] and
        # lap = alpha e^z E_{alpha+1}(z): laplace lap, survival_laplace beta f
        # from 1 - F(x) = (beta/(x+beta))^alpha, and W1 alpha beta df.
        s = _check_s(s)
        z = self.beta * s
        if z == 0.0:
            return (self.mean() if survival else 1.0), self.mean()
        if z == math.inf:  # beta s overflows: the limits, survival_laplace ~ 1/s
            return (1.0 / s if survival else 0.0), 0.0
        f, df, lap = _scaled_expint_pair(self.alpha, z)
        return (self.beta * f if survival else lap), self.alpha * self.beta * df

    def sample(self, rng, size):
        # Inverse CDF: x = beta * ((1-U)^(-1/alpha) - 1), exact and loop-free.
        u = rng.random(size)
        return self.beta * ((1.0 - u) ** (-1.0 / self.alpha) - 1.0)


@dataclass(frozen=True)
class FoldedNormal(ArrivalModel):
    """|N(alpha, sigma^2)| inter-arrival times.

    sigma = 0 is allowed and degenerates to a point mass at alpha; the
    transform evaluations stay continuous through that limit.
    """

    tag = "fnorm"
    limit = "det"
    alpha: float
    sigma: float

    def __post_init__(self):
        if not self.alpha >= 0:
            raise InputError(f"folded-normal location must be >= 0, got {self.alpha}")
        if not self.sigma >= 0:
            raise InputError(f"folded-normal scale must be >= 0, got {self.sigma}")
        if self.alpha == 0 and self.sigma == 0:
            raise InputError("folded-normal needs alpha > 0 or sigma > 0")
        _positive("folded-normal parameters", max(self.alpha, self.sigma))  # rejects inf

    def mean(self):
        if self.sigma == 0.0:
            return self.alpha
        # in z = alpha/sigma, so that no square of a parameter can overflow
        a, sg = self.alpha, self.sigma
        z = a / sg
        return _SQRT_2_OVER_PI * sg * math.exp(-0.5 * z * z) + a * (1.0 - 2.0 * _norm_cdf(-z))

    def second_moment(self):
        # products, not powers: past ~1.3e154 they round to inf instead of raising
        return self.alpha * self.alpha + self.sigma * self.sigma

    def newton_terms(self, s, survival):
        # laplace is the MGF of |N(alpha, sigma^2)| at -s, and W1 minus its
        # derivative there; both are made of the same two Gaussian tails
        s = _check_s(s)
        a, sg = self.alpha, self.sigma
        if max(a, sg) * s == math.inf:  # the limits, survival_laplace ~ 1/s
            return (1.0 / s if survival else 0.0), 0.0
        if sg == 0.0:
            lap = math.exp(-s * a)
            w1 = a * lap
        else:
            # t1 = e^{v^2/2 - a s} P(N > v - z), t2 = e^{v^2/2 + a s} P(N > v + z),
            # z = a/sigma, v = sigma s; through the Mills ratio each is
            # e^{-z^2/2} erfcx((v -+ z)/sqrt 2)/2, which shares the factor
            # e^{-z^2/2} with the derivative's one Gaussian-density term and
            # makes the sigma -> 0 limit exact.  No square of v is formed.
            z, v = a / sg, sg * s
            dens = math.exp(-0.5 * z * z)
            if v > z:
                t1 = 0.5 * dens * _erfcx((v - z) / _SQRT2)
            else:
                t1 = 0.5 * math.exp(v * (0.5 * v - z)) * math.erfc((v - z) / _SQRT2)
            t2 = 0.5 * dens * _erfcx((v + z) / _SQRT2)
            lap = min(t1 + t2, 1.0) if s else 1.0  # roundoff can poke one ulp above 1 near s=0
            w1 = (a - sg * v) * t1 - (a + sg * v) * t2 + _SQRT_2_OVER_PI * sg * dens
        if survival:
            # (1 - laplace(s))/s, which cancels as s -> 0: this family has no other form
            return ((1.0 - lap) / s if s else self.mean()), w1
        return lap, w1

    def sample(self, rng, size):
        if self.sigma == 0.0:
            return np.full(size, self.alpha)
        return np.abs(self.alpha + self.sigma * rng.standard_normal(size))


@dataclass(frozen=True)
class Deterministic(ArrivalModel):
    """Periodic arrivals: every inter-arrival time equals ``period``."""

    tag = "det"
    optimal_load = 0.5168847112649534
    period: float

    def __post_init__(self):
        _positive("deterministic period", self.period)

    @classmethod
    def with_rate(cls, lam):
        return cls(1.0 / lam)

    def mean(self):
        return self.period

    def second_moment(self):
        return self.period * self.period  # inf, not OverflowError, past ~1.3e154

    def rho0(self, mu):
        return math.exp(-mu * self.period)

    def newton_terms(self, s, survival):
        s = _check_s(s)
        lap = math.exp(-s * self.period)
        head = (-math.expm1(-s * self.period) / s if s else self.period) if survival else lap
        return head, self.period * lap

    def sample(self, rng, size):
        return np.full(size, self.period)


@dataclass(frozen=True)
class ServiceModel:
    """Exponential service at rate ``rate`` (the only service law in scope)."""

    rate: float

    def __post_init__(self):
        _positive("service rate", self.rate)


def arrival_rate(model: ArrivalModel) -> float:
    """Arrival rate lambda = 1 / E[X] of a model."""
    return 1.0 / model.mean()


# --- spec strings -------------------------------------------------------
#
# ``tag:key=value,...`` names a registered class by its tag and gives every
# one of its parameters, in any order: ``lomax:alpha=3,beta=2``, ``sync:m0=2``.

_KV_RE = re.compile(r"^([a-z_][a-z0-9_]*)=([^=,]+)$")


def spec_registry(*classes: type) -> dict:
    """{tag: class} of dataclasses named in spec strings.

    Records each class's field names, in constructor order, as ``keys``.
    """
    for cls in classes:
        cls.keys = tuple(f.name for f in dataclasses.fields(cls))
    return {cls.tag: cls for cls in classes}


def _pattern(cls: type) -> str:
    return cls.tag + ":" + ",".join(f"{k}=<{k[0]}>" for k in cls.keys)


def spec_grammar(registry: dict) -> str:
    """The accepted spec strings of ``registry``, e.g. ``exp:rate=<r> | ...``."""
    return " | ".join(_pattern(cls) for cls in registry.values())


def parse_spec(text: str, registry: dict, kind: str):
    """Build the object a spec string names; ``kind`` labels error messages."""
    head, sep, rest = text.partition(":")
    cls = registry.get(head) if sep else None
    if cls is None:
        raise InputError(
            f"unknown {kind} spec {text!r}; expected one of: {spec_grammar(registry)}"
        )
    kwargs = {}
    for part in rest.split(","):
        m = _KV_RE.match(part.strip())
        if not m or m.group(1) not in cls.keys:
            raise InputError(f"bad parameter {part!r} in {text!r}; expected {_pattern(cls)}")
        if m.group(1) in kwargs:
            raise InputError(f"repeated parameter {m.group(1)!r} in {text!r}")
        try:
            value = float(m.group(2))
        except ValueError:
            raise InputError(f"non-numeric value in {part!r}") from None
        if not math.isfinite(value):
            raise InputError(f"non-finite value in {part!r}")
        kwargs[m.group(1)] = value
    if set(kwargs) != set(cls.keys):
        raise InputError(
            f"{head} needs parameters {', '.join(cls.keys)}; got {sorted(kwargs)}"
        )
    return cls(**kwargs)


def format_spec(obj) -> str:
    """Inverse of parse_spec; floats are written with 17 significant digits."""
    return obj.tag + ":" + ",".join(f"{k}={getattr(obj, k):.17g}" for k in obj.keys)


FAMILIES = spec_registry(Exponential, Uniform, Lomax, FoldedNormal, Deterministic)

ARRIVAL_GRAMMAR = spec_grammar(FAMILIES)


def parse_arrival(text: str) -> ArrivalModel:
    """Parse a distribution spec string such as ``lomax:alpha=3,beta=2``."""
    return parse_spec(text, FAMILIES, "arrival")


def format_arrival(model: ArrivalModel) -> str:
    """Inverse of parse_arrival, used to echo configurations in reports."""
    return format_spec(model)
