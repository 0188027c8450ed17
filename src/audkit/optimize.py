"""Arrival-distribution and decision-offset optimization.

``optimal_arrival`` minimizes the mean age upon decisions under Poisson
decisions over one arrival family.  The paper's result 1 (periodic
arrivals minimize the mean AuD at every load) makes this a search over the
load alone:

* A one-parameter family (exp, uniform, det) is fixed by its arrival rate,
  so its optimum is a bounded scalar search over the load rho in (0, 1).
* A two-parameter family reaches its infimum on a boundary that it does not
  contain, the one-parameter family named by its ``limit``.  The folded
  normal's infimum is its sigma -> 0 limit, the ``det`` law, whose mean AuD
  is at most every family's at the same rate (result 1).  Lomax is a gamma
  mixture of exponentials, so it dominates the exponential in convex order
  (Shaked & Shanthikumar, *Stochastic Orders*, 2007, Sec. 3.A); with
  exp(-s x) convex, its mean AuD is at least the exponential's at the same
  rate, and its infimum is the shape -> infinity limit, the ``exp`` law.
  Either is searched as its limit family, and the result says so.

Every mean AuD scales as 1/mu at a fixed load, so the search runs at
mu = 1, once per searched family (exp, uniform, det) and process, and each
call rescales that answer to its mu.  The paper's own procedure, threshold
bisection over a penalised simplex search, is kept in the test suite as
the oracle these answers are checked against.

``optimize_offset`` is closed form: the offset-periodic mean AuD is convex
in the offset with derivative 1 - u1/rho (see ``queue_core``), so the
optimum is u1 = rho, delta* = ln(1/rho) / (mu (1 - rho1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from scipy import optimize as sp_optimize

from .dist import FAMILIES, ArrivalModel, _positive
from .errors import ConvergenceError, InputError
from .queue_core import (
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

# bounded scalar search over the load: absolute tolerance and iteration cap.
# The minimum is flat, so a change of eps in the objective moves its argmin
# by about sqrt(eps), and the load is found only to that, not to _XATOL:
# for exp at mu = 1 the load is 1.4e-8 off and c0 1.5e-16 off, relative.
_XATOL = 1e-12
_MAX_ITER = 500


@dataclass(frozen=True)
class OptimizationResult:
    """Output of an arrival optimization.

    ``limit`` is None when the optimum lies in ``family``.  Otherwise it is
    the tag of the boundary family that holds the infimum, which no member
    of ``family`` attains.  ``kappa`` are the parameters of ``limit or
    family``, ``c0`` their mean AuD at the service rate optimized for, and
    ``inner_evaluations`` the mean AuD evaluations of the search.
    """

    family: str
    kappa: Tuple[float, ...]
    c0: float
    inner_evaluations: int
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

    A bounded scalar search (scipy's ``minimize_scalar``, Brent's method
    on an interval) over the load of ``FAMILIES[limit or family]`` at unit
    service rate, once per searched family (``_unit_optimum``), to the
    accuracy stated at ``_XATOL``.  The optimum is rescaled to ``mu``: the
    rate is multiplied by mu and c0 divided by it.  A search that stops at
    ``_MAX_ITER`` iterations raises ConvergenceError with the best load
    found, at every call.
    """
    cls = FAMILIES.get(family)
    if cls is None:
        raise InputError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    _positive("service rate", mu)
    limit = cls.limit
    searched = FAMILIES[limit or family]
    rho, c0, evaluations = _unit_optimum(searched.tag)
    model = searched.with_rate(rho * mu)
    kappa = tuple(getattr(model, k) for k in searched.keys)
    return OptimizationResult(family=family, kappa=kappa, c0=c0 / mu,
                              inner_evaluations=evaluations, limit=limit)


@lru_cache(maxsize=None)
def _unit_optimum(tag: str) -> Tuple[float, float, int]:
    """(load, mean AuD, evaluations) of family ``tag``'s optimum at mu = 1.
    Memoised, as it depends on nothing else; ``lru_cache`` keeps no error."""
    searched = FAMILIES[tag]

    def mean_aud(rho: float) -> float:
        return average_aud_from_moments(*departure_moments(searched.with_rate(rho), 1.0))

    res = sp_optimize.minimize_scalar(
        mean_aud, bounds=(0.0, 1.0), method="bounded",
        options={"xatol": _XATOL, "maxiter": _MAX_ITER},
    )
    rho = float(res.x)
    if not res.success:
        raise ConvergenceError(f"load search stopped after {res.nfev} evaluations: "
                               f"{res.message}", best=rho, residual=float(res.fun))
    return rho, float(res.fun), int(res.nfev)


def optimize_offset(lam: float, mu: float) -> OffsetResult:
    """Offset that minimizes the mean AuD of the offset-periodic system.

    The derivative 1 - u1/rho vanishes at u1 = rho, which lies inside
    (rho1, 1), so delta* = ln(1/rho) / (mu (1 - rho1)) in (0, 1/lam).
    """
    rho = _stable_load(lam, mu)
    rho1 = rho1_deterministic(rho)
    return OffsetResult(delta=-math.log(rho) / (mu * (1.0 - rho1)), iterations=0)
