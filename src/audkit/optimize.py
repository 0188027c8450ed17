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
Each ``optimal_load`` is the load at that root, correctly rounded, and
``tests/mp_oracle.py`` solves the condition again at 40 digits.  The
paper's own procedure, threshold bisection over a penalised simplex
minimisation, is kept in the test suite as a further oracle.

``optimize_offset`` is closed form: the offset-periodic mean AuD is convex
in the offset with derivative 1 - u1/rho (see ``queue_core``), so the
optimum is u1 = rho, delta* = ln(1/rho) / (mu (1 - rho1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .dist import FAMILIES, ArrivalModel, _positive
from .errors import InputError
from .queue_core import (
    _offset_aud,
    _stable_load,
    average_aud_from_moments,
    departure_moments,
    rho1_deterministic,
)

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
    """Optimal decision offset.

    ``iterations`` is 0: the optimum is closed form.
    """

    delta: float
    iterations: int


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
    """Offset that minimizes the mean AuD of the offset-periodic system.

    The derivative 1 - u1/rho vanishes at u1 = rho, which lies inside
    (rho1, 1), so delta* = ln(1/rho) / (mu (1 - rho1)) in (0, 1/lam).
    """
    return _offset_optimum(lam, mu)[0]


def _offset_optimum(lam: float, mu: float) -> Tuple[OffsetResult, float, float]:
    """(``optimize_offset``'s result, the mean AuD at delta*, rho1) from one
    rho1 solve, whose rho1 the CLI also reads the other periodic-arrival
    laws from.  delta* needs no range check: rho ln(1/rho) < 1 - rho1."""
    rho = _stable_load(lam, mu)
    rho1 = rho1_deterministic(rho)
    a = mu * (1.0 - rho1)
    delta = -math.log(rho) / a
    aud = _offset_aud(lam, delta, rho1, math.exp(-a * delta))
    return OffsetResult(delta=delta, iterations=0), aud, rho1
