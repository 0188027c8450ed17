"""Arrival-distribution and decision-offset optimization.

The mean age upon decisions of an arrival family with parameters kappa is
the ratio N(kappa) / D(kappa), N = E[Y^2] + 2 E[TY] and D = 2 E[Y].  The
optimum c* over kappa is the threshold at which the inner problem

    min_kappa  N(kappa) - c D(kappa)

changes sign: negative above c*, non-negative below.  The inner problem is
solved by a multi-start derivative-free simplex search, with an additive
penalty replacing hard constraints (instability or parameters outside the
family's domain).  Two outer loops drive c to c*:

* ``optimal_arrival`` is Dinkelbach's method (W. Dinkelbach, "On nonlinear
  fractional programming", Management Science 13(7), 1967): start from the
  mean AuD of the load-1/2 point, and replace c by N/D at the inner
  minimizer, which lowers c superlinearly, until c drops by at most eps.
  Each inner search is warm-started from the previous minimizer.
* ``bisection_optimal_arrival`` is the paper's procedure: bisect c on the
  sign of the inner minimum.  It needs about 25 outer steps where
  Dinkelbach needs 3-5, and is kept as a reference and test oracle.

Each family's class in ``dist`` supplies the load-1/2 start and the
search coordinates.  The Lomax family has no interior optimum: its infimum
is the shape -> infinity limit, where it degenerates to the exponential
law, so the reported shape sits at the search cap 2 + 1/dist._LOMAX_Z_FLOOR
and the reported c0 lies just above the exponential optimum.

``optimize_offset`` is closed form: the offset-periodic mean AuD is convex
in the offset with derivative 1 - u1/rho (see ``queue_core``), so the
optimum is u1 = rho, delta* = ln(1/rho) / (mu (1 - rho1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as sp_optimize

from .dist import FAMILIES, ArrivalModel, _positive
from .errors import ConvergenceError, InputError
from .queue_core import (
    average_aud_from_moments,
    departure_moments,
    offset_derivative_phi,
    rho1_deterministic,
)

__all__ = [
    "ObjectiveSpec",
    "OptimizationResult",
    "OffsetResult",
    "SimplexResult",
    "simplex_minimize",
    "penalized_objective",
    "default_start",
    "OPTIMIZABLE",
    "optimal_arrival",
    "bisection_optimal_arrival",
    "optimize_offset",
]

# inner multi-start: starts, simplex tolerance (xatol and fatol), evaluations per start
_N_STARTS = 3
_SIMPLEX_TOL = 1e-9
_MAX_EVALS = 10_000

OPTIMIZABLE = tuple(tag for tag, cls in FAMILIES.items() if cls.start is not None)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Inner-problem objective: family, service rate, threshold.

    ``penalty`` is what the objective returns outside the feasible set.
    """

    family: str
    mu: float
    c0: float
    penalty = 1e9

    def __post_init__(self):
        _family(self.family)
        _positive("service rate", self.mu)


@dataclass(frozen=True)
class SimplexResult:
    x: Tuple[float, ...]
    fun: float
    n_evals: int


@dataclass(frozen=True)
class OptimizationResult:
    """Output of an arrival optimization.

    ``bracket_width`` is the final bisection bracket, or the last decrease
    of c in Dinkelbach's method.
    """

    family: str
    kappa: Tuple[float, ...]
    c0: float
    outer_iterations: int
    inner_evaluations: int
    converged: bool
    bracket_width: float

    def arrival_model(self) -> ArrivalModel:
        return FAMILIES[self.family](*self.kappa)

    def arrival_rate(self) -> float:
        return 1.0 / self.arrival_model().mean()


@dataclass(frozen=True)
class OffsetResult:
    """Optimal decision offset and the derivative residual at it.

    ``iterations`` is 0: the optimum is closed form.
    """

    delta: float
    u1: float
    phi_residual: float
    iterations: int


def simplex_minimize(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float],
    xatol: float = 1e-9,
    fatol: float = 1e-9,
    max_evals: int = 10_000,
) -> SimplexResult:
    """Derivative-free local minimization (Nelder-Mead simplex).

    Backed by scipy's implementation; converges when both the simplex
    diameter and the function spread fall below the tolerances.  Exhausting
    ``max_evals`` raises ConvergenceError carrying the best point so far.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    f0 = f(x0)
    if not math.isfinite(f0):
        raise InputError(f"objective is not finite at the start point {x0.tolist()}")
    res = sp_optimize.minimize(
        f,
        x0,
        method="Nelder-Mead",
        options={
            "xatol": xatol,
            "fatol": fatol,
            "maxfev": max_evals,
            "maxiter": max_evals,
        },
    )
    if not res.success:
        raise ConvergenceError(
            f"simplex minimization stopped after {res.nfev} evaluations: {res.message}",
            best=SimplexResult(tuple(res.x), float(res.fun), int(res.nfev)),
            residual=float(res.fun),
        )
    return SimplexResult(tuple(float(v) for v in res.x), float(res.fun), int(res.nfev))


def _family(family: str) -> type:
    """The class of an optimizable family (one with a load-1/2 start)."""
    if family not in OPTIMIZABLE:
        raise InputError(f"unknown family {family!r}; expected one of {sorted(OPTIMIZABLE)}")
    return FAMILIES[family]


def _mean_aud(family: str, kappa: Sequence[float], mu: float) -> float:
    return average_aud_from_moments(*departure_moments(FAMILIES[family](*kappa), mu))


def penalized_objective(spec: ObjectiveSpec, kappa: Sequence[float]) -> float:
    """E[Y^2] + 2 E[TY] - 2 c0 E[Y], plus the penalty outside the feasible set.

    Violations (family domain or rho >= 1) add ``spec.penalty`` instead of
    raising, so a simplex search can wander freely.
    """
    cls = FAMILIES[spec.family]
    if len(kappa) != len(cls.keys):
        raise InputError(f"{spec.family} expects {len(cls.keys)} parameter(s), got {len(kappa)}")
    try:
        model = cls(*kappa)
    except InputError:
        return spec.penalty
    rho = 1.0 / (spec.mu * model.mean())
    if not rho < 1.0:
        return spec.penalty
    try:
        mean_y, second_y, cross = departure_moments(model, spec.mu)
    except ConvergenceError:
        # Numerically intractable corner (the rho1 solve or a Lomax continued
        # fraction does not converge): treat as infeasible.
        return spec.penalty
    return second_y + 2.0 * cross - 2.0 * spec.c0 * mean_y


def default_start(family: str, mu: float) -> Tuple[float, ...]:
    """Start vector placing the family at offered load 1/2."""
    return _family(family).start(mu)


def _inner_minimize(
    spec: ObjectiveSpec, starts: Sequence[Sequence[float]]
) -> Tuple[Tuple[float, ...], float, int, bool]:
    """Multi-start simplex minimization of the penalized objective.

    A start that exhausts its budget still contributes its incumbent;
    the returned flag says whether every start converged properly.
    """
    cls = FAMILIES[spec.family]
    best_kappa: Optional[Tuple[float, ...]] = None
    best_val = math.inf
    evals = 0
    all_converged = True
    for start in starts:
        try:
            res = simplex_minimize(
                lambda y: penalized_objective(spec, cls.from_search(y)),
                cls.to_search(start),
                xatol=_SIMPLEX_TOL,
                fatol=_SIMPLEX_TOL,
                max_evals=_MAX_EVALS,
            )
        except ConvergenceError as err:
            res = err.best
            all_converged = False
        evals += res.n_evals
        if res.fun < best_val:
            best_val = res.fun
            best_kappa = cls.from_search(np.asarray(res.x))
    assert best_kappa is not None
    return best_kappa, best_val, evals, all_converged


def _jittered_starts(base: Sequence[float]) -> Tuple[Tuple[float, ...], ...]:
    """``base`` plus ``_N_STARTS - 1`` copies scaled by factors in [0.875, 1.125)."""
    base = tuple(base)
    rng = np.random.default_rng(0)
    starts = [base]
    for _ in range(_N_STARTS - 1):
        factors = 1.0 + 0.25 * (rng.random(len(base)) - 0.5)
        starts.append(tuple(b * f for b, f in zip(base, factors)))
    return tuple(starts)


def bisection_optimal_arrival(
    family: str,
    mu: float,
    eps: Optional[float] = None,
    upper: Optional[float] = None,
) -> OptimizationResult:
    """Minimize the mean AuD over one arrival family by threshold bisection.

    The bracket starts at [0, u] with u ten times the AuD of the
    load-1/2 start point (a guaranteed-feasible threshold).  Each midpoint
    c0 is classified feasible iff the multi-start inner minimum of the
    penalized objective is negative; feasibility shrinks the bracket from
    above, infeasibility from below.
    """
    starts = _jittered_starts(default_start(family, mu))
    if eps is None:
        eps = 1e-6 / mu
    _positive("tolerance", eps)

    kappa0 = starts[0]
    aud0 = _mean_aud(family, kappa0, mu)
    if upper is None:
        upper = 10.0 * aud0
    if penalized_objective(ObjectiveSpec(family, mu, upper), kappa0) >= 0.0:
        raise InputError(
            f"initial upper bound {upper} is not feasible for family {family!r}"
        )

    lo, hi = 0.0, upper
    best_kappa: Tuple[float, ...] = kappa0
    outer = 0
    total_evals = 0
    while hi - lo > eps:
        outer += 1
        c0 = 0.5 * (lo + hi)
        kappa, val, evals, converged = _inner_minimize(ObjectiveSpec(family, mu, c0), starts)
        total_evals += evals
        if val < 0.0:
            # Feasible by exhibition: the incumbent certifies the sign even
            # if a start ran out of budget.
            hi = c0
            best_kappa = kappa
        elif converged:
            lo = c0
        else:
            raise ConvergenceError(
                f"inner minimization exhausted {_MAX_EVALS} evaluations at "
                f"c0={c0} without settling the feasibility sign",
                best=kappa,
                residual=val,
            )

    return OptimizationResult(
        family=family,
        kappa=best_kappa,
        c0=hi,
        outer_iterations=outer,
        inner_evaluations=total_evals,
        converged=True,
        bracket_width=hi - lo,
    )


def optimal_arrival(
    family: str,
    mu: float,
    eps: Optional[float] = None,
) -> OptimizationResult:
    """Minimize the mean AuD over one arrival family by Dinkelbach's method.

    c starts at the AuD of the load-1/2 start point.  Each outer step
    minimizes N - c D by simplex searches from the previous minimizer and
    two jittered copies of it, each allowed ``_MAX_EVALS`` evaluations.  A
    negative minimum exhibits a point of mean AuD N/D < c, which becomes
    the new c; the loop stops when c drops by at most ``eps`` (default
    1e-6/mu), or when the minimum is non-negative and every start converged
    (c is then optimal).  A non-negative minimum from a start that ran out
    of budget settles nothing and raises ConvergenceError.
    """
    kappa = default_start(family, mu)
    if eps is None:
        eps = 1e-6 / mu
    _positive("tolerance", eps)

    c = _mean_aud(family, kappa, mu)
    outer = 0
    total_evals = 0
    decrease = math.inf
    while decrease > eps:
        outer += 1
        cand, val, evals, converged = _inner_minimize(
            ObjectiveSpec(family, mu, c), _jittered_starts(kappa)
        )
        total_evals += evals
        if val < 0.0:
            c_next = _mean_aud(family, cand, mu)
            decrease = c - c_next
            if decrease > 0.0:  # rounding can cancel a minimum within ulps of zero
                kappa, c = cand, c_next
        elif converged:
            decrease = 0.0  # no parameter vector beats c: it is the optimum
        else:
            raise ConvergenceError(
                f"inner minimization exhausted {_MAX_EVALS} evaluations at "
                f"c0={c} without settling the feasibility sign",
                best=cand,
                residual=val,
            )

    return OptimizationResult(
        family=family,
        kappa=kappa,
        c0=c,
        outer_iterations=outer,
        inner_evaluations=total_evals,
        converged=True,
        bracket_width=max(decrease, 0.0),
    )


def optimize_offset(lam: float, mu: float) -> OffsetResult:
    """Offset that minimizes the mean AuD of the offset-periodic system.

    The derivative 1 - u1/rho vanishes at u1 = rho, which lies inside
    (rho1, 1), so delta* = ln(1/rho) / (mu (1 - rho1)) in (0, 1/lam).
    """
    if not 0.0 < lam < mu:
        raise InputError(f"requires 0 < lam < mu, got lam={lam}, mu={mu}")
    rho = lam / mu
    rho1 = rho1_deterministic(rho)
    u1 = rho
    delta = -math.log(u1) / (mu * (1.0 - rho1))
    phi = offset_derivative_phi(rho, u1)
    return OffsetResult(delta=delta, u1=u1, phi_residual=phi, iterations=0)
