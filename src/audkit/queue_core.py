"""Closed-form age-upon-decisions analysis of update-and-decide queues.

An update-and-decide system is a single-server FCFS queue whose received
updates are consumed by a monitor at decision epochs.  With exponential
service, everything reduces to the geometric parameter rho1 of the queue
length embedded at arrival instants, the unique fixed point in (0, 1) of

    rho1 = int_0^inf f_X(x) exp(-mu (1 - rho1) x) dx.

This module solves that fixed point for every arrival family, by Newton's
method on the reciprocal of the survival transform started at the load rho
(``solve_rho1``), derives the system-time law and the inter-departure
moments, and evaluates the mean age upon decisions and the update missing
probability for Poisson, synchronous-periodic, and offset-periodic decision
processes.  Each discipline is one class, registered in ``DISCIPLINES``,
that carries all its discipline-specific knowledge; everything else
dispatches through it.

A ``SystemConfig`` computes its ``DerivedQuantities`` once, as its
``derived`` attribute, from one rho1 solve, and every discipline's mean AuD
and missing probability read it.  That record and ``Rho1Solution`` are named
tuples, and ``derived`` is a plain memo in the instance ``__dict__``, taken
without a lock, so that a system costs about its solve.  The periodic
mean-AuD closed forms (``average_aud_dm1*``) also take (lambda, mu), so
``optimize-offset`` and the sweep's ``optimal-offset`` cells call them
without building a system; each shares one private function of the scalars
with its discipline class.

Missing probability.  An update is never used exactly when no decision
epoch falls in [its departure, the next departure): a decision at a
departure epoch uses the update that just departed.  Under periodic
decisions that is when two consecutive departures share a decision slot.
Each discipline's ``missing_probability`` is the exact law of that event,
and the simulator counts the same one, an update no decision used.

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
from typing import NamedTuple, Optional

import numpy as np

from .dist import (
    ArrivalModel,
    Deterministic,
    ServiceModel,
    _positive,
    arrival_rate,
    format_spec,
    parse_spec,
    spec_grammar,
    spec_registry,
)
from .errors import ConvergenceError, InputError, StabilityError

__all__ = [
    "PoissonDecisions",
    "PeriodicSyncDecisions",
    "PeriodicOffsetDecisions",
    "DecisionModel",
    "DISCIPLINES",
    "DECISION_GRAMMAR",
    "parse_decision",
    "SystemConfig",
    "DerivedQuantities",
    "Rho1Solution",
    "DepartureMoments",
    "solve_rho1",
    "rho1_value",
    "rho1_deterministic",
    "departure_moments",
    "average_aud_from_moments",
    "average_aud_mm1m",
    "average_aud_dm1m",
    "average_aud_dm1d_sync",
    "average_aud_dm1d_offset",
    "derive",
    "mean_aud",
    "missing_probability",
]

# |g| accepted where rounding stops the rho1 Newton iteration
_RHO1_TOL = 1e-12


# --- system configuration -------------------------------------------------


class DecisionModel:
    """Common interface of the decision disciplines.

    Class attributes: ``tag`` names the discipline in spec strings,
    ``label`` in messages, ``variable`` is the sweep variable that sets its
    one parameter, and ``keys`` (set by ``spec_registry``) names that
    parameter.  Each discipline defines those and implements

        check(arrival)              raise InputError for arrivals it cannot serve
        decision_rate(lam)          decisions per unit time at arrival rate lam
        derive_extras(config, a)    its DerivedQuantities fields, a = mu (1 - rho1)
        mean_aud(config)            closed-form mean AuD
        missing_probability(config) exact probability that an update is never used
        epochs(config, t_end, rng)  all decision epochs in (0, t_end], increasing
        replication_sums(config, t, dep, warm, rng)
                                    one replication's (age_sum, kept, missed,
                                    discarded), sampled from ``epochs`` here

    ``derive_extras`` runs once per system, inside ``SystemConfig.derived``,
    and ``mean_aud`` and ``missing_probability`` read that object.  The
    simulator estimates each replication from ``replication_sums``, which a
    discipline may override to sum its decisions without drawing them.
    """

    def check(self, arrival: ArrivalModel) -> None:
        pass

    def replication_sums(self, config, t, dep, warm, rng):
        """One replication's additive sums (age_sum, kept, missed, discarded)
        from its arrival and departure epochs ``t`` and ``dep``, after a
        warm-up of ``warm`` updates: the summed ages of the kept decisions,
        their count, the updates missed and the decisions discarded.

        Decisions before dep[warm] are discarded, and misses are counted as in
        ``sim._missed``.  ``sim._replicate`` forms the mean and raises when too
        little is left.  This is the sampled path: ``epochs`` drawn from
        ``rng`` and matched by ``sim.assign_decisions``, then ``sim._missed``.
        """
        from . import sim  # sim imports this module

        decisions = sim.assign_decisions(t, dep, self.epochs(config, float(dep[-1]), rng))
        used, ages = decisions.used_update, decisions.age
        skipped = decisions.n_before_first_departure
        del decisions  # and with it the epochs
        early = int(np.count_nonzero(used < warm))  # before dep[warm]
        missed = sim._missed(used, dep.shape[0], warm)
        return float(ages[early:].sum()), ages.shape[0] - early, missed, skipped + early


class _memo:
    """``functools.cached_property`` without the lock that it takes before
    3.12: the value goes into the instance ``__dict__``, read from there on."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.func.__name__, self.func(obj))


@dataclass(frozen=True)
class SystemConfig:
    """One update-and-decide system: arrivals, exponential service, decisions.

    Its ``arrival_rate`` lambda and load ``rho`` = lambda/mu are formed
    once, where stability is checked, and read as plain attributes.
    """

    arrival: ArrivalModel
    service: ServiceModel
    decision: DecisionModel

    def __post_init__(self):
        lam = self.__dict__["arrival_rate"] = arrival_rate(self.arrival)
        rho = self.__dict__["rho"] = lam / self.service.rate
        if not rho < 1.0:
            raise StabilityError(rho)
        self.decision.check(self.arrival)

    @property
    def decision_rate(self) -> float:
        return self.decision.decision_rate(self.arrival_rate)

    def describe(self) -> dict:
        """Plain-dict echo of the configuration, for reports and JSON output."""
        return {
            "arrival": format_spec(self.arrival),
            "mu": self.service.rate,
            "decision": format_spec(self.decision),
        }

    @_memo
    def derived(self) -> "DerivedQuantities":
        """All derived scalars of this system, computed on first access.

        A plain memo in the instance ``__dict__``, which equality, hashing
        and ``dataclasses.replace`` ignore.  InputError if E[Y^2] is not
        representable in the caller's time unit.
        """
        arrival, mu = self.arrival, self.service.rate
        rho1, _, _, q1 = solve_rho1(arrival, mu)  # q1 = weighted_first_moment(a)
        a = mu * (1.0 - rho1)
        mean_y, second_y, cross = _moments_at(arrival, mu, rho1, q1)
        if not math.isfinite(second_y):
            raise InputError("second_moment_y is not finite at this time scale; "
                             "rescale the arrival parameters and mu")
        return DerivedQuantities(self.rho, rho1, mean_y, second_y, cross, q1, 1.0 / a,
                                 arrival.rho0(mu), **self.decision.derive_extras(self, a))


# --- the embedded-chain fixed point ----------------------------------------


class Rho1Solution(NamedTuple):
    """Fixed point of the embedded chain, its Newton step count, |g| there,
    and q1 = weighted_first_moment(mu (1.0 - value)), bit for bit."""

    value: float
    iterations: int
    residual: float
    q1: float


def solve_rho1(arrival: ArrivalModel, mu: float, max_iter: int = 100) -> Rho1Solution:
    """Solve rho1 = laplace(arrival, mu (1 - rho1)) by Newton's method on 1/S.

    With s = 1 - r, z = mu s and S(z) = survival_laplace(z) = (1 - L(z))/z,
    the fixed point r = L(z) is z S(z) = s, that is S(z) = 1/mu once its
    root s = 0 is divided out.  Newton runs on H(z) = 1/S(z) - mu; as
    S' = (W1 - S)/z, W1 = weighted_first_moment, its step in r is
    r + g S/(S - W1), with g = s - z S = L - r the fixed point's residual
    (at the root, g/(1 - mu W1), the Newton step on g).  For exponential
    arrivals S = 1/(lambda + z), so 1/S is linear and the start r = rho is
    the root; for the other families 1/S is nearly linear, and every solve
    starts there.  The first step crosses the root (det, uniform and the
    folded normal start above it, Lomax, which dominates the exponential of
    its mean in convex order, below it), and the later iterates approach
    the root from the side that step reached.

    From r = 1/2 on, where s is exact (Sterbenz), g is evaluated as s - z S,
    without the cancellation of L(z) against r, so near rho = 1 the relative
    error of s stays at the eps/(1 - rho) that rounding the inputs costs;
    below 1/2 g is L - r, which keeps a tiny rho1 accurate relative to
    itself, and S = (1 - L)/z.  (With the rounded z in both factors the
    folded normal's S, (1 - L)/z, gives back L - r.)  Rounding alone stops
    the iteration: a step that leaves r where it is, a move that reverses
    the direction of the one before it after the first two, S - W1 <= 0,
    or r >= 1; a step below 0 is clamped to 0 (det at loads up to 0.02
    lands there to rounding).  A small predicted step is no stop: near
    Lomax shape 2 and rho -> 1 the last steps of a few ulps are what keep s
    within 16 eps/(1 - rho) of the 40-digit root.  The iterate where it
    stops is accepted if |g| <= ``_RHO1_TOL``; otherwise, and after
    ``max_iter`` steps, ConvergenceError carries the best iterate.
    Instability is rejected up front.

    A step evaluates the arrival once, ``arrival.newton_terms(z, r >= 1/2)``
    at z = mu (1.0 - r).  The accepted step's z is the mu (1.0 - rho1) of
    every closed form, so its weighted_first_moment is ``q1``, bit for bit.
    """
    rho = 1.0 / (mu * arrival.mean())
    if not rho < 1.0:
        raise StabilityError(rho)

    r, steps, move = rho, 0, 0.0
    while True:
        s = 1.0 - r
        z = mu * s
        if r >= 0.5:
            phi, w1 = arrival.newton_terms(z, True)  # phi = S(z)
            g = s - z * phi
        else:
            lap, w1 = arrival.newton_terms(z, False)
            g, phi = lap - r, (1.0 - lap) / z
        r_next = r + g * phi / (phi - w1) if phi > w1 else r
        if r_next < 0.0:
            r_next = 0.0
        last, move = move, r_next - r
        if not (move and r_next < 1.0) or (steps >= 2 and move * last < 0.0) or steps >= max_iter:
            if abs(g) <= _RHO1_TOL:
                return Rho1Solution(r, steps, abs(g), w1)
            raise ConvergenceError(
                f"rho1 Newton iteration stalled at r={r!r} after {steps} "
                f"steps (max_iter={max_iter})",
                best=r,
                residual=abs(g),
            )
        r = r_next
        steps += 1


def rho1_value(arrival: ArrivalModel, mu: float) -> float:
    """rho1 of ``arrival`` at service rate ``mu``: ``solve_rho1``'s value."""
    return solve_rho1(arrival, mu).value


def rho1_deterministic(rho: float) -> float:
    """rho1 for periodic arrivals at load ``rho``: the solve for period 1/rho
    at mu = 1, the root of rho1 = exp(-(1 - rho1)/rho).  0.0 once
    exp(-1/rho), which rho1 then equals to within rounding, underflows."""
    if not 0.0 < rho < 1.0:
        raise StabilityError(rho)
    if math.exp(-1.0 / rho) == 0.0:  # rho1 lies below the smallest subnormal
        return 0.0
    return solve_rho1(Deterministic(1.0 / rho), 1.0).value


# --- departure moments -------------------------------------------------------


class DepartureMoments(NamedTuple):
    """(E[Y], E[Y^2], E[T_{k-1} Y_k]) of the inter-departure process."""

    mean: float
    second_moment: float
    cross: float


def departure_moments(arrival: ArrivalModel, mu: float) -> DepartureMoments:
    """First two inter-departure moments and the system-time cross moment.

    E[Y]   = E[X]
    E[Y^2] = E[X^2] - 2 rho1 E[X] / (mu (1-rho1)) + 2 / (mu^2 (1-rho1))
    E[TY]  = (E[X] - 1/mu + q1) / (mu (1-rho1)),
             q1 = weighted_first_moment(arrival, mu (1-rho1)), from the solve
    """
    solution = solve_rho1(arrival, mu)
    return DepartureMoments(*_moments_at(arrival, mu, solution.value, solution.q1))


def _moments_at(arrival: ArrivalModel, mu: float, rho1: float, q1: float) -> tuple:
    ex = arrival.mean()
    ex2 = arrival.second_moment()
    a = mu * (1.0 - rho1)
    inv = 1.0 / max(mu * mu * (1.0 - rho1), 5e-324)  # inf once the product underflows
    second = ex2 - 2.0 * rho1 * ex / a + 2.0 * inv
    cross = ex / a - inv + q1 / a
    return ex, second, cross


# --- mean age upon decisions ------------------------------------------------


def average_aud_from_moments(mean_y: float, second_moment_y: float, cross_ty: float) -> float:
    """Mean AuD under Poisson decisions: (E[Y^2] + 2 E[TY]) / (2 E[Y]).

    Holds for any single-server FCFS system whose inter-departure moments
    are supplied; the decision rate drops out entirely.
    """
    if not mean_y > 0:
        raise InputError(f"mean inter-departure time must be > 0, got {mean_y}")
    return (second_moment_y + 2.0 * cross_ty) / (2.0 * mean_y)


def _stable_load(lam: float, mu: float) -> float:
    """rho = lam/mu for the scalar laws.  InputError unless both rates are
    finite and > 0 and rho is representable, StabilityError unless lam < mu."""
    if not (0.0 < lam < math.inf and 0.0 < mu < math.inf):
        raise InputError(f"rates must be finite and > 0, got lam={lam}, mu={mu}")
    if not lam < mu:
        raise StabilityError(lam / mu)
    rho = lam / mu
    if rho == 0.0:
        raise InputError(f"load lam/mu underflows to 0, got lam={lam}, mu={mu}")
    return rho


def average_aud_mm1m(lam: float, mu: float) -> float:
    """Mean AuD of the fully Markovian system: (1/mu)(1 + 1/rho + rho^2/(1-rho))."""
    rho = _stable_load(lam, mu)
    return (1.0 + 1.0 / rho + rho * rho / (1.0 - rho)) / mu


def average_aud_dm1m(lam: float, mu: float) -> float:
    """Mean AuD with periodic arrivals and Poisson decisions: 1/(2 lam) + E[T]."""
    return _dm1m_aud(lam, mu, rho1_deterministic(_stable_load(lam, mu)))


def _dm1m_aud(lam: float, mu: float, rho1: float) -> float:
    """The periodic-arrival, Poisson-decision law from rho1."""
    return 1.0 / (2.0 * lam) + 1.0 / (mu * (1.0 - rho1))


def average_aud_dm1d_sync(lam: float, mu: float, m0: int) -> float:
    """Mean AuD with periodic arrivals and aligned periodic decisions.

    Decision rate nu = m0 * lam:  (1 + m0)/(2 nu) + w1 / (nu (1 - w1)).
    Strictly decreasing in m0 and converging to the Poisson-decision value.
    m0 follows ``PeriodicSyncDecisions``' rule: an integer >= 1.
    """
    rho1 = rho1_deterministic(_stable_load(lam, mu))
    m0 = PeriodicSyncDecisions(m0).m0
    return _sync_aud(m0, m0 * lam, mu * (1.0 - rho1))


def _sync_aud(m0: int, nu: float, a: float) -> float:
    """The sync law at decision rate nu and a = mu (1 - rho1), with
    1 - w1 = -expm1(-a/nu), which keeps its digits as m0 grows."""
    x = a / nu
    return (1.0 + m0) / (2.0 * nu) - math.exp(-x) / (nu * math.expm1(-x))


def average_aud_dm1d_offset(lam: float, mu: float, delta: float) -> float:
    """Mean AuD with periodic arrivals and periodic decisions offset by delta.

    delta + u1 / (lam (1 - rho1)), u1 = exp(-mu (1 - rho1) delta); the
    decision rate equals the arrival rate and delta must lie in (0, 1/lam).
    """
    rho = _stable_load(lam, mu)
    if not 0.0 < delta < 1.0 / lam:
        raise InputError(f"offset must lie in (0, {1.0 / lam:.6g}), got {delta}")
    rho1 = rho1_deterministic(rho)
    return _offset_aud(lam, delta, rho1, math.exp(-mu * (1.0 - rho1) * delta))


def _offset_aud(lam: float, delta: float, rho1: float, u1: float) -> float:
    """The offset law from rho1 and u1 = exp(-mu (1 - rho1) delta)."""
    return delta + u1 / (lam * (1.0 - rho1))


# --- per-system derived quantities -------------------------------------------


class DerivedQuantities(NamedTuple):
    """Every scalar the closed forms consume for one system.

    Fields that do not apply to the configured arrival family (``rho0``) or
    decision discipline are ``None``, not zero; ``to_dict`` drops them.
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
        return {k: v for k, v in self._asdict().items() if v is not None}


def derive(config: SystemConfig) -> DerivedQuantities:
    """All derived scalars of ``config``: its cached ``derived`` object."""
    return config.derived


def mean_aud(config: SystemConfig) -> float:
    """Mean AuD of ``config`` via the discipline-appropriate closed form."""
    return config.decision.mean_aud(config)


def missing_probability(config: SystemConfig) -> float:
    """Probability that a received update of ``config`` is never used."""
    return config.decision.missing_probability(config)


# --- decision disciplines ------------------------------------------------------


@dataclass(frozen=True)
class PoissonDecisions(DecisionModel):
    """Decisions form a Poisson process of rate ``rate``."""

    tag = "poisson"
    label = "a Poisson"
    variable = "nu"
    rate: float

    def __post_init__(self):
        _positive("decision rate", self.rate)

    def decision_rate(self, lam):
        return self.rate

    def derive_extras(self, config, a):
        return {"q0": config.arrival.laplace(self.rate)}

    def mean_aud(self, config):
        d = config.derived
        return average_aud_from_moments(d.mean_y, d.second_moment_y, d.cross_ty)

    def missing_probability(self, config):
        """Probability that a received update is never used:

          mu (a q0 - nu rho1) / ((mu + nu)(a - nu)),  a = mu (1 - rho1),

        with q0 = laplace(arrival, nu).  Numerator and denominator vanish at
        nu = a; as laplace' = -weighted_first_moment and laplace(a) = rho1,
        the limit there is mu (rho1 + a q1) / (mu + a), with q1 =
        weighted_first_moment(arrival, a).  Within 1e-9 mu of a, where the
        quotient cancels, that limit is returned.  Elsewhere it is formed as
        mu/(mu + nu) times (a q0 - nu rho1)/(a - nu): no product of nu with
        nu, which would overflow from nu ~ 1e155, is formed.
        """
        d = config.derived
        mu, nu, rho1 = config.service.rate, self.rate, d.rho1
        a = mu * (1.0 - rho1)
        if abs(a - nu) < 1e-9 * mu:
            value = mu * (rho1 + a * d.q1) / (mu + a)
        else:
            value = mu / (mu + nu) * ((a * d.q0 - nu * rho1) / (a - nu))
        return min(max(value, 0.0), 1.0)

    def epochs(self, config, t_end, rng):
        nu = self.rate
        epochs = []
        t = 0.0
        # Draw in bulk with a safety margin, extending if the horizon is
        # not reached (probability ~1e-9 per chunk at 6 sigma).
        expected = int(nu * t_end) + 1
        chunk = max(expected + int(6.0 * np.sqrt(expected)) + 16, 64)
        while t <= t_end:
            block = rng.exponential(1.0 / nu, size=chunk)
            np.cumsum(block, out=block)
            block += t
            epochs.append(block)
            t = block[-1]
            chunk = 1024
        tau = epochs[0] if len(epochs) == 1 else np.concatenate(epochs)
        return tau[:np.count_nonzero(tau <= t_end)]  # a prefix, as tau ascends


class _PeriodicDecisions(DecisionModel):
    """Decisions on a fixed grid tau_j, j = first, first + 1, ...

    Each subclass states its grid once: ``_tau`` turns a float array of
    indices j into tau_j in place, rounded as ``epochs`` returns them,
    ``_index`` is its inverse before rounding (the real j at which
    tau_j = x), and ``_step`` is the spacing.  ``epochs`` and
    ``replication_sums`` both read the grid from these, and from ``first``.
    """

    def check(self, arrival):
        if not isinstance(arrival, Deterministic):
            raise InputError("periodic decision disciplines require deterministic arrivals")

    def epochs(self, config, t_end, rng):
        j = np.arange(self.first, self._end(config, t_end), dtype=np.float64)
        return self._tau(config, j)

    def _end(self, config, t_end):
        """One past the last grid index ``epochs`` returns up to ``t_end``."""
        return int(np.floor(self._index(config, t_end))) + 1

    def _ceil(self, config, x):
        """C(x), the first grid index j with tau_j >= x, per element of
        ``x`` > 0, exact against the rounded tau_j: the ceiling of
        ``_index`` with one correction up and one down, which is all the
        rounding of the index and of tau_j can need below j = 2^50."""
        c = self._index(config, x)
        np.ceil(c, out=c)
        c += self._tau(config, c.copy()) < x
        c -= self._tau(config, c - 1.0) >= x
        return c

    def replication_sums(self, config, t, dep, warm, rng):
        """The sums of the sampled path by grid arithmetic, without an epoch.

        Update k serves the decisions in [dep[k], dep[k+1]), so a decision
        at a departure epoch uses the update that just departed, and the
        last update those from dep[-1] to the last epoch.  That is
        C(dep[k+1]) - C(dep[k]) of them, with C capped at one past the last
        index of ``epochs``, which can stop a grid point short of dep[-1],
        and their ages, tau_C(dep[k]) - t[k] and on in steps of
        ``_step``, sum to count (first age) + count (count - 1) step / 2.
        Memory and time do not grow with the decision rate.  ``rng`` is not read.
        """
        end = self._end(config, float(dep[-1]))
        lo = max(warm, 1) - 1  # the first update counted for misses
        c = self._ceil(config, dep[lo:])
        np.minimum(c, end, out=c)
        count = np.diff(c, append=end)  # decisions update lo + i serves
        skip = warm - lo
        kept = int(end - c[skip])
        missed = int(np.count_nonzero(count[:-1] == 0))
        discarded = int(c[skip]) - self.first
        count = count[skip:]
        age = self._tau(config, c[skip:])  # the first age of each kept window
        age -= t[warm:]
        age *= count
        pairs = count * (count - 1.0)
        total = float(age.sum()) + 0.5 * self._step(config) * float(pairs.sum())
        return total, kept, missed, discarded


@dataclass(frozen=True)
class PeriodicSyncDecisions(_PeriodicDecisions):
    """Periodic decisions at rate m0 * lambda, aligned with arrival epochs.

    Requires periodic (deterministic) arrivals.  An integral float m0 is
    stored as an int.
    """

    tag = "sync"
    label = "a synchronous periodic"
    variable = "m0"
    m0: int

    def __post_init__(self):
        m0 = self.m0
        if isinstance(m0, float) and m0.is_integer():
            m0 = int(m0)
            object.__setattr__(self, "m0", m0)
        if not (isinstance(m0, int) and m0 >= 1):
            raise InputError(f"decision multiplier m0 must be an integer >= 1, got {m0}")

    def decision_rate(self, lam):
        return self.m0 * lam

    def derive_extras(self, config, a):
        nu = config.decision_rate
        mu = config.service.rate
        return {"w0": math.exp(-mu / nu), "w1": math.exp(-a / nu)}

    def mean_aud(self, config):
        d = config.derived
        return _sync_aud(self.m0, config.decision_rate, config.service.rate * (1.0 - d.rho1))

    def missing_probability(self, config):
        """rho1 - (1 - rho1)(w1 - w0)/(1 - w1), the sum over slots of length
        1/nu of P(miss | T_{k-1}).  w1 - w0 = -w1 expm1(-mu rho1/nu) and
        1 - w1 = -expm1(-mu (1 - rho1)/nu) keep their digits as m0 grows."""
        d = config.derived
        mu, nu = config.service.rate, config.decision_rate
        ratio = d.w1 * math.expm1(-mu * d.rho1 / nu) / math.expm1(-mu * (1.0 - d.rho1) / nu)
        return max(d.rho1 - (1.0 - d.rho1) * ratio, 0.0)

    # tau_j = j / nu, j >= 1
    first = 1

    def _tau(self, config, j):
        j /= config.decision_rate
        return j

    def _index(self, config, x):
        return x * config.decision_rate

    def _step(self, config):
        return 1.0 / config.decision_rate


@dataclass(frozen=True)
class PeriodicOffsetDecisions(_PeriodicDecisions):
    """Periodic decisions at rate lambda, each a fixed ``delta`` after an arrival.

    Requires periodic arrivals and 0 < delta < 1/lambda.
    """

    tag = "offset"
    label = "an offset periodic"
    variable = "delta"
    delta: float

    def __post_init__(self):
        _positive("decision offset", self.delta)

    def check(self, arrival):
        super().check(arrival)
        if not self.delta < arrival.period:
            raise InputError(f"offset {self.delta} must lie in (0, {arrival.period})")

    def decision_rate(self, lam):
        return lam

    def derive_extras(self, config, a):
        mu = config.service.rate
        return {"u0": math.exp(-mu * self.delta), "u1": math.exp(-a * self.delta)}

    def mean_aud(self, config):
        d = config.derived
        return _offset_aud(config.arrival_rate, self.delta, d.rho1, d.u1)

    def missing_probability(self, config):
        """u0 (1 - u1) + rho0 u1, rho0 = exp(-mu P), summed over slots as for
        sync decisions; 1 - u1 = -expm1(-mu (1 - rho1) delta)."""
        d = config.derived
        one_minus_u1 = -math.expm1(-config.service.rate * (1.0 - d.rho1) * self.delta)
        return d.u0 * one_minus_u1 + d.rho0 * d.u1

    # tau_j = j P + delta, j >= 0: one decision delta after every arrival
    # epoch of the periodic grid, the one at t = 0 included
    first = 0

    def _tau(self, config, j):
        j *= config.arrival.period
        j += self.delta
        return j

    def _index(self, config, x):
        return (x - self.delta) / config.arrival.period

    def _step(self, config):
        return config.arrival.period


DISCIPLINES = spec_registry(PoissonDecisions, PeriodicSyncDecisions, PeriodicOffsetDecisions)

DECISION_GRAMMAR = spec_grammar(DISCIPLINES)


def parse_decision(text: str) -> DecisionModel:
    """Parse a decision spec string such as ``sync:m0=2``."""
    return parse_spec(text, DISCIPLINES, "decision")
