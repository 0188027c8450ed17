"""Arrival-distribution and decision-offset optimization.

``optimal_arrival`` minimizes the mean age upon decisions under Poisson
decisions over one arrival family.  The paper's result 1 (periodic
arrivals minimize the mean AuD at every load) makes this a question of the
load alone:

* A one-parameter family (exp, uniform, det) is fixed by its arrival rate,
  so its optimum is one load rho in (0, 1).
* A two-parameter family reaches its infimum on a boundary that it does not
  contain, the one-parameter family named by its ``limit``.  The folded
  normal's infimum is its sigma -> 0 limit, the ``det`` law, whose mean AuD
  is at most every family's at the same rate (result 1).  Lomax is a gamma
  mixture of exponentials, so it dominates the exponential in convex order
  (Shaked & Shanthikumar, *Stochastic Orders*, 2007, Sec. 3.A); with
  exp(-s x) convex, its mean AuD is at least the exponential's at the same
  rate, and its infimum is the shape -> infinity limit, the ``exp`` law.
  Either is answered by its limit family, and the result says so.

Every mean AuD scales as 1/mu at a fixed load, so a one-parameter family's
optimal load is a constant of the family, its ``optimal_load``.  At mu = 1
write the arrival law as xi/lambda with E[xi] = 1, and let L, W1 and
W2(u) = int x^2 f(x) e^(-u x) dx be the transforms of xi.  With
u = (1 - rho1)/lambda the fixed point reads rho1 = L(u) and
lambda = (1 - L(u))/u, and the mean AuD is

    A(u) = 1 + (E[xi^2] u/2 + W1(u)) / (1 - L(u)).

Its one stationary point solves

    (E[xi^2]/2 - W2(u)) (1 - L(u)) = (E[xi^2] u/2 + W1(u)) W1(u).

For exp this is rho + 1/rho = 1 + sqrt(2), the M/M/1 optimum of Kaul,
Yates and Gruteser ("Real-time status: How often should one update?",
INFOCOM 2012).  For det it is e^u = u + 3, with rho = (u + 2)/(u (u + 3))
and c0 = e^u/2.  Uniform has no closed form; its root is u = 1.1791123840...
Each ``optimal_load`` is the load at that root, correctly rounded.
``tests/mp_oracle.py`` solves the condition again at 40 digits, and
``tests/test_optimize.py`` holds each optimum to that root, to a
golden-section search of its closed form in lambda, and, for the
two-parameter families, to their mean AuD falling to the limit's from
above.

``optimize_offset`` is closed form: the offset-periodic mean AuD is convex
in the offset with derivative 1 - u1/rho (see ``queue_core``), so the
optimum is u1 = rho, delta* = ln(1/rho) / (mu (1 - rho1)).  Its result
carries the paper's three-way comparison (the mean AuD at delta*, under
Poisson and under aligned decisions) from the one rho1 solve delta* takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .dist import FAMILIES, ArrivalModel, _positive
from .errors import InputError
from .queue_core import (_dm1m_aud, _offset_aud, _stable_load, _sync_aud,
                         average_aud_from_moments, departure_moments, rho1_deterministic)

__all__ = [
    "OptimizationResult",
    "OffsetResult",
    "optimal_arrival",
    "optimize_offset",
]


@dataclass(frozen=True)
class OptimizationResult:
    """Output of an arrival optimization.

    ``limit`` is None when the optimum lies in ``family``.  Otherwise it is
    the tag of the boundary family that holds the infimum, which no member
    of ``family`` attains.  ``kappa`` are the parameters of ``limit or
    family``, and ``c0`` their mean AuD at the service rate optimized for.
    """

    family: str
    kappa: Tuple[float, ...]
    c0: float
    limit: Optional[str]

    def arrival_model(self) -> ArrivalModel:
        return FAMILIES[self.limit or self.family](*self.kappa)

    def arrival_rate(self) -> float:
        return 1.0 / self.arrival_model().mean()


@dataclass(frozen=True)
class OffsetResult:
    """Optimal decision offset, and the paper's three-way comparison at it
    from one rho1 solve: the mean AuD at delta*, under Poisson decisions and
    under aligned decisions (m0 = 1), the values of
    ``average_aud_dm1d_offset(lam, mu, delta)``, ``average_aud_dm1m(lam, mu)``
    and ``average_aud_dm1d_sync(lam, mu, 1)``.  ``iterations`` is 0: the
    optimum is closed form.  The fields bear the CLI's JSON keys, in order,
    but ``delta``, printed as ``delta_opt``.
    """

    delta: float
    iterations: int
    aud_at_delta_opt: float
    aud_poisson_decisions: float
    aud_sync_m0_1: float


def optimal_arrival(family: str, mu: float) -> OptimizationResult:
    """Minimize the mean AuD under Poisson decisions over one arrival family.

    The optimum is ``FAMILIES[limit or family]`` at the arrival rate
    ``optimal_load`` times mu.  c0 is its mean AuD at mu = 1, divided by
    mu, which stays finite at any representable mu.
    """
    cls = FAMILIES.get(family)
    if cls is None:
        raise InputError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    _positive("service rate", mu)
    limit = cls.limit
    attained = FAMILIES[limit or family]
    rho = attained.optimal_load
    model = attained.with_rate(rho * mu)
    kappa = tuple(getattr(model, k) for k in attained.keys)
    c0 = average_aud_from_moments(*departure_moments(attained.with_rate(rho), 1.0))
    return OptimizationResult(family=family, kappa=kappa, c0=c0 / mu, limit=limit)


def optimize_offset(lam: float, mu: float) -> OffsetResult:
    """Offset that minimizes the mean AuD of the offset-periodic system, and
    the mean AuD there and under the two other decision disciplines.

    The derivative 1 - u1/rho vanishes at u1 = rho, which lies inside
    (rho1, 1), so delta* = ln(1/rho) / (mu (1 - rho1)) in (0, 1/lam): no
    range check is needed, as rho ln(1/rho) < 1 - rho1.
    """
    rho = _stable_load(lam, mu)
    rho1 = rho1_deterministic(rho)
    a = mu * (1.0 - rho1)
    delta = -math.log(rho) / a
    return OffsetResult(delta=delta, iterations=0,
                        aud_at_delta_opt=_offset_aud(lam, delta, rho1, math.exp(-a * delta)),
                        aud_poisson_decisions=_dm1m_aud(lam, mu, rho1),
                        aud_sync_m0_1=_sync_aud(1, lam, a))
