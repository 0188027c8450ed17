"""Closed-form age-upon-decisions analysis of update-and-decide queues.

An update-and-decide system is a single-server FCFS queue whose received
updates are consumed by a monitor at decision epochs.  With exponential
service, everything reduces to the geometric parameter rho1 of the queue
length embedded at arrival instants, the unique fixed point in (0, 1) of

    rho1 = int_0^inf f_X(x) exp(-mu (1 - rho1) x) dx.

This module solves that fixed point (by Newton's method for any arrival
family, via Lambert W for periodic arrivals), derives the system-time law
and the inter-departure moments, and evaluates the mean age upon
decisions and the update missing probability for Poisson,
synchronous-periodic, and offset-periodic decision processes.

Offset-periodic decisions.  With arrivals every P = 1/lambda and a decision
a fixed delta after each arrival, FCFS service makes the decision miss
update k - j (and every later one) exactly when T_{k-j} > delta + j P, so

    P(age > delta + j P) = P(T > delta + j P) = u1 rho1^j,

with T ~ Exp(mu (1 - rho1)) the system time, u1 = exp(-mu (1-rho1) delta),
and exp(-mu (1-rho1) P) = rho1 the fixed point of periodic arrivals.
Summing the tail gives E[AuD] = delta + u1 / (lambda (1 - rho1)).  The law
is convex in delta with derivative 1 - u1/rho, so the optimal offset sits
at u1 = rho, inside (rho1, 1) at every load.  There the mean AuD is
(1 + ln(1/rho)) / (mu (1 - rho1)), below aligned decisions (the delta -> 0
limit) by convexity, and below Poisson decisions because
1 - rho1 > 2 rho ln(1/rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

from .dist import ArrivalModel, Deterministic, ServiceModel, arrival_rate, format_arrival
from .errors import ConvergenceError, InputError, StabilityError

__all__ = [
    "PoissonDecisions",
    "PeriodicSyncDecisions",
    "PeriodicOffsetDecisions",
    "DecisionModel",
    "SystemConfig",
    "DerivedQuantities",
    "Rho1Solution",
    "DepartureMoments",
    "lambert_w0",
    "solve_rho1",
    "rho1_value",
    "rho1_deterministic",
    "stationary_queue_pmf",
    "system_time_rate",
    "departure_moments",
    "average_aud_from_moments",
    "average_aud_mm1m",
    "average_aud_dm1m",
    "average_aud_dm1d_sync",
    "average_aud_dm1d_offset",
    "offset_derivative_phi",
    "missing_prob_gm1m",
    "missing_prob_dm1d_sync",
    "derive",
    "mean_aud",
    "missing_probability",
]

_INV_E = math.exp(-1.0)


# --- decision disciplines and system configuration ------------------------


@dataclass(frozen=True)
class PoissonDecisions:
    """Decisions form a Poisson process of rate ``rate``."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise InputError(f"decision rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class PeriodicSyncDecisions:
    """Periodic decisions at rate m0 * lambda, aligned with arrival epochs.

    Requires periodic (deterministic) arrivals.
    """

    m0: int

    def __post_init__(self):
        if not (isinstance(self.m0, int) and self.m0 >= 1):
            raise InputError(f"decision multiplier m0 must be an integer >= 1, got {self.m0}")


@dataclass(frozen=True)
class PeriodicOffsetDecisions:
    """Periodic decisions at rate lambda, each a fixed ``delta`` after an arrival.

    Requires periodic arrivals and 0 < delta < 1/lambda.
    """

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise InputError(f"decision offset must be > 0, got {self.delta}")


DecisionModel = Union[PoissonDecisions, PeriodicSyncDecisions, PeriodicOffsetDecisions]


@dataclass(frozen=True)
class SystemConfig:
    """One update-and-decide system: arrivals, exponential service, decisions."""

    arrival: ArrivalModel
    service: ServiceModel
    decision: DecisionModel

    def __post_init__(self):
        rho = self.rho
        if not rho < 1.0:
            raise StabilityError(rho)
        if isinstance(self.decision, (PeriodicSyncDecisions, PeriodicOffsetDecisions)):
            if not isinstance(self.arrival, Deterministic):
                raise InputError(
                    "periodic decision disciplines require deterministic arrivals"
                )
            if isinstance(self.decision, PeriodicOffsetDecisions):
                if not self.decision.delta < self.arrival.period:
                    raise InputError(
                        f"offset {self.decision.delta} must lie in (0, {self.arrival.period})"
                    )

    @property
    def arrival_rate(self) -> float:
        return arrival_rate(self.arrival)

    @property
    def rho(self) -> float:
        return self.arrival_rate / self.service.rate

    @property
    def decision_rate(self) -> float:
        if isinstance(self.decision, PoissonDecisions):
            return self.decision.rate
        if isinstance(self.decision, PeriodicSyncDecisions):
            return self.decision.m0 * self.arrival_rate
        return self.arrival_rate

    def describe(self) -> dict:
        """Plain-dict echo of the configuration, for reports and JSON output."""
        d = self.decision
        if isinstance(d, PoissonDecisions):
            dec = f"poisson:rate={d.rate:.17g}"
        elif isinstance(d, PeriodicSyncDecisions):
            dec = f"sync:m0={d.m0}"
        else:
            dec = f"offset:delta={d.delta:.17g}"
        return {
            "arrival": format_arrival(self.arrival),
            "mu": self.service.rate,
            "decision": dec,
        }


# --- Lambert W and the embedded-chain fixed point --------------------------


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, W exp(W) = x, W >= -1.

    Defined for x >= -1/e.  Halley iteration from a branch-point or
    asymptotic seed; converges to |W exp(W) - x| <= 1e-13 * max(1, |x|).
    """
    x = float(x)
    if x < -_INV_E:
        if x > -_INV_E - 1e-15:  # roundoff at the branch point
            return -1.0
        raise InputError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0

    if x < -0.25:
        # Series around the branch point x = -1/e.
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    elif x < math.e:
        w = x / (1.0 + x)  # crude but in the basin everywhere on (-0.25, e)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)

    tol = 1e-13 * max(1.0, abs(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        # Halley step; the denominator correction keeps it stable near w = -1.
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if w < -1.0:
            w = -1.0 + 1e-300
    raise ConvergenceError("lambert_w0 Halley iteration stalled", best=w, residual=f)


@dataclass(frozen=True)
class Rho1Solution:
    """Fixed point of the embedded chain plus its iteration history."""

    value: float
    iterations: int
    residual: float
    trace: Tuple[float, ...]


def solve_rho1(
    arrival: ArrivalModel,
    mu: float,
    eps: float = 1e-12,
    max_iter: int = 100,
) -> Rho1Solution:
    """Solve rho1 = laplace(arrival, mu (1 - rho1)) by Newton's method.

    Newton runs on g(r) = laplace(mu (1-r)) - r from r = 0, with
    g'(r) = mu weighted_first_moment(mu (1-r)) - 1.  g is convex, g(0) > 0
    and g'(0) <= 1/e - 1 < 0, so the iterates climb monotonically to rho1
    and never reach the second root r = 1.  The climb runs until rounding
    stops it (g <= 0, or r no longer moves), which near rho = 1 lies far
    below eps / |g'(rho1)|, and is accepted if then |g| <= ``eps``.
    Otherwise, and after ``max_iter`` steps, ConvergenceError carries the
    best iterate.  Instability is rejected up front.
    """
    if not eps > 0:
        raise InputError(f"tolerance must be > 0, got {eps}")
    rho = 1.0 / (mu * arrival.mean())
    if not rho < 1.0:
        raise StabilityError(rho)

    r = 0.0
    trace = [r]
    while True:
        s = mu * (1.0 - r)
        g = arrival.laplace(s) - r
        r_next = r + g / (1.0 - mu * arrival.weighted_first_moment(s)) if g > 0.0 else r
        if not r < r_next < 1.0 or len(trace) > max_iter:
            if abs(g) <= eps:
                return Rho1Solution(r, len(trace) - 1, abs(g), tuple(trace))
            raise ConvergenceError(
                f"rho1 Newton iteration stalled at r={r!r} after {len(trace) - 1} "
                f"steps (max_iter={max_iter})",
                best=r,
                residual=abs(g),
            )
        r = r_next
        trace.append(r)


@lru_cache(maxsize=16384)
def _rho1_cached(arrival: ArrivalModel, mu: float) -> float:
    return solve_rho1(arrival, mu).value


def rho1_value(arrival: ArrivalModel, mu: float) -> float:
    """Cached rho1 at default tolerance; sweeps hit the same (arrival, mu) a lot."""
    if isinstance(arrival, Deterministic):
        # Closed form via Lambert W; agrees with the Newton solve to ~1e-12.
        return rho1_deterministic(1.0 / (mu * arrival.period))
    return _rho1_cached(arrival, mu)


def rho1_deterministic(rho: float) -> float:
    """rho1 for periodic arrivals: -rho * W0(-(1/rho) exp(-1/rho))."""
    if not 0.0 < rho < 1.0:
        raise StabilityError(rho)
    arg = -(1.0 / rho) * math.exp(-1.0 / rho)
    return -rho * lambert_w0(arg)


# --- stationary law and moments --------------------------------------------


def stationary_queue_pmf(rho1: float, j: int) -> float:
    """P{j updates found in system by an arrival} = (1 - rho1) rho1^j."""
    if not 0.0 < rho1 < 1.0:
        raise InputError(f"rho1 must lie in (0, 1), got {rho1}")
    if j < 0:
        raise InputError(f"queue length must be >= 0, got {j}")
    return (1.0 - rho1) * rho1**j


def system_time_rate(mu: float, rho1: float) -> float:
    """System time is exponential with this rate, mu (1 - rho1)."""
    return mu * (1.0 - rho1)


class DepartureMoments(Tuple[float, float, float]):
    """(E[Y], E[Y^2], E[T_{k-1} Y_k]) of the inter-departure process."""

    __slots__ = ()

    def __new__(cls, mean: float, second_moment: float, cross: float):
        return super().__new__(cls, (mean, second_moment, cross))

    @property
    def mean(self) -> float:
        return self[0]

    @property
    def second_moment(self) -> float:
        return self[1]

    @property
    def cross(self) -> float:
        return self[2]


def departure_moments(
    arrival: ArrivalModel, mu: float, rho1: Optional[float] = None
) -> DepartureMoments:
    """First two inter-departure moments and the system-time cross moment.

    E[Y]   = E[X]
    E[Y^2] = E[X^2] - 2 rho1 E[X] / (mu (1-rho1)) + 2 / (mu^2 (1-rho1))
    E[TY]  = (E[X] - 1/mu + q1) / (mu (1-rho1)),
             q1 = weighted_first_moment(arrival, mu (1-rho1))
    """
    if rho1 is None:
        rho1 = rho1_value(arrival, mu)
    return _moments_at(arrival, mu, rho1, arrival.weighted_first_moment(mu * (1.0 - rho1)))


def _moments_at(arrival: ArrivalModel, mu: float, rho1: float, q1: float) -> DepartureMoments:
    ex = arrival.mean()
    ex2 = arrival.second_moment()
    a = mu * (1.0 - rho1)
    second = ex2 - 2.0 * rho1 * ex / a + 2.0 / (mu * mu * (1.0 - rho1))
    cross = ex / a - 1.0 / (mu * mu * (1.0 - rho1)) + q1 / a
    return DepartureMoments(ex, second, cross)


# --- mean age upon decisions ------------------------------------------------


def average_aud_from_moments(mean_y: float, second_moment_y: float, cross_ty: float) -> float:
    """Mean AuD under Poisson decisions: (E[Y^2] + 2 E[TY]) / (2 E[Y]).

    Holds for any single-server FCFS system whose inter-departure moments
    are supplied; the decision rate drops out entirely.
    """
    if not mean_y > 0:
        raise InputError(f"mean inter-departure time must be > 0, got {mean_y}")
    return (second_moment_y + 2.0 * cross_ty) / (2.0 * mean_y)


def average_aud_mm1m(lam: float, mu: float) -> float:
    """Mean AuD of the fully Markovian system: (1/mu)(1 + 1/rho + rho^2/(1-rho))."""
    if not 0.0 < lam < mu:
        raise StabilityError(lam / mu if mu > 0 else math.inf)
    rho = lam / mu
    return (1.0 + 1.0 / rho + rho * rho / (1.0 - rho)) / mu


def average_aud_dm1m(lam: float, mu: float) -> float:
    """Mean AuD with periodic arrivals and Poisson decisions: 1/(2 lam) + E[T]."""
    if not 0.0 < lam < mu:
        raise StabilityError(lam / mu if mu > 0 else math.inf)
    rho1 = rho1_deterministic(lam / mu)
    return 1.0 / (2.0 * lam) + 1.0 / (mu * (1.0 - rho1))


def average_aud_dm1d_sync(lam: float, mu: float, m0: int) -> float:
    """Mean AuD with periodic arrivals and aligned periodic decisions.

    Decision rate nu = m0 * lam:  (1 + m0)/(2 nu) + w1 / (nu (1 - w1)).
    Strictly decreasing in m0 and converging to the Poisson-decision value.
    """
    if not 0.0 < lam < mu:
        raise StabilityError(lam / mu if mu > 0 else math.inf)
    if not m0 >= 1:
        raise InputError(f"m0 must be >= 1, got {m0}")
    nu = m0 * lam
    rho1 = rho1_deterministic(lam / mu)
    w1 = math.exp(-mu * (1.0 - rho1) / nu)
    return (1.0 + m0) / (2.0 * nu) + w1 / (nu * (1.0 - w1))


def average_aud_dm1d_offset(lam: float, mu: float, delta: float) -> float:
    """Mean AuD with periodic arrivals and periodic decisions offset by delta.

    delta + u1 / (lam (1 - rho1)), u1 = exp(-mu (1 - rho1) delta); the
    decision rate equals the arrival rate and delta must lie in (0, 1/lam).
    """
    if not 0.0 < lam < mu:
        raise StabilityError(lam / mu if mu > 0 else math.inf)
    if not 0.0 < delta < 1.0 / lam:
        raise InputError(f"offset must lie in (0, {1.0 / lam:.6g}), got {delta}")
    rho1 = rho1_deterministic(lam / mu)
    u1 = math.exp(-mu * (1.0 - rho1) * delta)
    return delta + u1 / (lam * (1.0 - rho1))


def offset_derivative_phi(rho: float, u1: float) -> float:
    """d(mean AuD)/d(delta) of the offset system, written in u1: 1 - u1/rho.

    u1 = exp(-mu (1-rho1) delta) decreases from 1 (delta = 0) to rho1
    (delta = 1/lam); the root u1 = rho is the optimal offset.
    """
    if not 0.0 < rho < 1.0:
        raise InputError(f"rho must lie in (0, 1), got {rho}")
    return 1.0 - u1 / rho


# --- missing probability ------------------------------------------------------


def missing_prob_gm1m(arrival: ArrivalModel, mu: float, nu: float) -> float:
    """Probability that a received update is never used, Poisson decisions.

      mu (mu (1-rho1) q0 - nu rho1) / ((mu + nu)(mu (1-rho1) - nu)),
      q0 = laplace(arrival, nu).

    The expression has a removable singularity at nu = mu (1 - rho1); near
    it the value is recovered by symmetric perturbation in nu plus
    Richardson extrapolation, which works for every arrival family.
    """
    if not nu > 0:
        raise InputError(f"decision rate must be > 0, got {nu}")
    rho1 = rho1_value(arrival, mu)
    a = mu * (1.0 - rho1)

    def direct(nu_pt: float) -> float:
        q0 = arrival.laplace(nu_pt)
        return mu * (a * q0 - nu_pt * rho1) / ((mu + nu_pt) * (a - nu_pt))

    if abs(a - nu) < 1e-9 * mu:
        # Sit exactly on the singular point and extrapolate h -> 0 from
        # symmetric averages, which cancel the odd error terms.  h scales
        # with a, so that a - h stays a valid (positive) rate as rho1 -> 1.
        def sym(h: float) -> float:
            return 0.5 * (direct(a + h) + direct(a - h))

        h = 1e-3 * a
        g1, g2, g3 = sym(h), sym(h / 2.0), sym(h / 4.0)
        r1 = (4.0 * g2 - g1) / 3.0
        r2 = (4.0 * g3 - g2) / 3.0
        value = (16.0 * r2 - r1) / 15.0
    else:
        value = direct(nu)
    return min(max(value, 0.0), 1.0)


def missing_prob_dm1d_sync(lam: float, mu: float, m0: int) -> float:
    """Missing probability with periodic arrivals and aligned periodic decisions.

    (rho1 / (2 - rho1)) (1/w1 - w0) at decision rate nu = m0 * lam.
    """
    if not 0.0 < lam < mu:
        raise StabilityError(lam / mu if mu > 0 else math.inf)
    if not m0 >= 1:
        raise InputError(f"m0 must be >= 1, got {m0}")
    nu = m0 * lam
    rho1 = rho1_deterministic(lam / mu)
    w0 = math.exp(-mu / nu)
    w1 = math.exp(-mu * (1.0 - rho1) / nu)
    value = rho1 / (2.0 - rho1) * (1.0 / w1 - w0)
    return min(max(value, 0.0), 1.0)


# --- per-system derived quantities -------------------------------------------


@dataclass(frozen=True)
class DerivedQuantities:
    """Every scalar the closed forms consume for one system.

    Fields that do not apply to the configured decision discipline are
    ``None``, not zero; ``to_dict`` drops them.
    """

    rho: float
    rho1: float
    mean_y: float
    second_moment_y: float
    cross_ty: float
    q1: float
    mean_system_time: float
    rho0: Optional[float] = None
    q0: Optional[float] = None
    w0: Optional[float] = None
    w1: Optional[float] = None
    u0: Optional[float] = None
    u1: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def derive(config: SystemConfig) -> DerivedQuantities:
    """Compute all derived scalars relevant to ``config``'s decision discipline."""
    arrival, mu = config.arrival, config.service.rate
    rho = config.rho
    rho1 = rho1_value(arrival, mu)
    a = mu * (1.0 - rho1)
    q1 = arrival.weighted_first_moment(a)
    moments = _moments_at(arrival, mu, rho1, q1)
    extra: dict = {}
    if isinstance(arrival, Deterministic):
        extra["rho0"] = math.exp(-mu * arrival.period)
    d = config.decision
    if isinstance(d, PoissonDecisions):
        extra["q0"] = arrival.laplace(d.rate)
    elif isinstance(d, PeriodicSyncDecisions):
        nu = config.decision_rate
        extra["w0"] = math.exp(-mu / nu)
        extra["w1"] = math.exp(-a / nu)
    else:
        extra["u0"] = math.exp(-mu * d.delta)
        extra["u1"] = math.exp(-a * d.delta)
    return DerivedQuantities(
        rho=rho,
        rho1=rho1,
        mean_y=moments.mean,
        second_moment_y=moments.second_moment,
        cross_ty=moments.cross,
        q1=q1,
        mean_system_time=1.0 / a,
        **extra,
    )


def mean_aud(config: SystemConfig) -> float:
    """Mean AuD of ``config`` via the discipline-appropriate closed form."""
    lam, mu = config.arrival_rate, config.service.rate
    d = config.decision
    if isinstance(d, PoissonDecisions):
        return average_aud_from_moments(*departure_moments(config.arrival, mu))
    if isinstance(d, PeriodicSyncDecisions):
        return average_aud_dm1d_sync(lam, mu, d.m0)
    return average_aud_dm1d_offset(lam, mu, d.delta)


def missing_probability(config: SystemConfig) -> Optional[float]:
    """Missing probability of ``config``, or None where no formula exists."""
    d = config.decision
    if isinstance(d, PoissonDecisions):
        return missing_prob_gm1m(config.arrival, config.service.rate, d.rate)
    if isinstance(d, PeriodicSyncDecisions):
        return missing_prob_dm1d_sync(config.arrival_rate, config.service.rate, d.m0)
    return None
