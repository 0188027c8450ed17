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

The Lomax family has no interior optimum: its infimum is the shape ->
infinity limit, where it degenerates to the exponential law, so the
reported shape sits at the search cap 2 + 1/_LOMAX_Z_FLOOR and the
reported c0 lies just above the exponential optimum.

``optimize_offset`` is closed form: the offset-periodic mean AuD is convex
in the offset with derivative 1 - u1/rho (see ``queue_core``), so the
optimum is u1 = rho, delta* = ln(1/rho) / (mu (1 - rho1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as sp_optimize

from .dist import ArrivalModel, Exponential, FoldedNormal, Lomax, Uniform
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
    "optimal_arrival",
    "bisection_optimal_arrival",
    "optimize_offset",
]

_SIGMA_FLOOR = 1e-12

# family tag -> (arity, constructor from a natural parameter vector)
_BUILDERS: Dict[str, Tuple[int, Callable[[Sequence[float]], ArrivalModel]]] = {
    "exp": (1, lambda k: Exponential(rate=k[0])),
    "uniform": (1, lambda k: Uniform(beta=k[0])),
    "lomax": (2, lambda k: Lomax(alpha=k[0], beta=k[1])),
    "fnorm": (2, lambda k: FoldedNormal(alpha=k[0], sigma=k[1])),
}


@dataclass(frozen=True)
class ObjectiveSpec:
    """Inner-problem objective: family, service rate, threshold, penalty."""

    family: str
    mu: float
    c0: float
    penalty: float = 1e9

    def __post_init__(self):
        _check_family(self.family)
        if not self.mu > 0:
            raise InputError(f"service rate must be > 0, got {self.mu}")
        if not self.penalty > 0:
            raise InputError(f"penalty must be > 0, got {self.penalty}")


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
        return _BUILDERS[self.family][1](self.kappa)

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


def _check_family(family: str) -> None:
    if family not in _BUILDERS:
        raise InputError(
            f"unknown family {family!r}; expected one of {sorted(_BUILDERS)}"
        )


def _build_model(family: str, kappa: Sequence[float]) -> ArrivalModel:
    arity, build = _BUILDERS[family]
    if len(kappa) != arity:
        raise InputError(f"{family} expects {arity} parameter(s), got {len(kappa)}")
    return build(kappa)


def _mean_aud(family: str, kappa: Sequence[float], mu: float) -> float:
    return average_aud_from_moments(*departure_moments(_build_model(family, kappa), mu))


def penalized_objective(spec: ObjectiveSpec, kappa: Sequence[float]) -> float:
    """E[Y^2] + 2 E[TY] - 2 c0 E[Y], plus the penalty outside the feasible set.

    Violations (family domain or rho >= 1) add ``spec.penalty`` instead of
    raising, so a simplex search can wander freely.
    """
    arity, _ = _BUILDERS[spec.family]
    if len(kappa) != arity:
        raise InputError(f"{spec.family} expects {arity} parameter(s), got {len(kappa)}")
    try:
        model = _build_model(spec.family, kappa)
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
    """Start vectors placing each family at offered load 1/2."""
    if family == "exp":
        return (mu / 2.0,)
    if family == "uniform":
        return (4.0 / mu,)
    if family == "lomax":
        return (3.0, 4.0 / mu)
    if family == "fnorm":
        return (2.0 / mu, 0.5 / mu)
    raise InputError(f"unknown family {family!r}")


_LOMAX_Z_FLOOR = 1e-6  # caps the searched shape at 2 + 1/floor

# inner multi-start: starts, simplex tolerance (xatol and fatol), evaluations per start
_N_STARTS = 3
_SIMPLEX_TOL = 1e-9
_MAX_EVALS = 10_000


def _to_search_space(family: str, kappa: Sequence[float]) -> np.ndarray:
    # Families whose optimum sits on an open boundary get coordinates that
    # make the boundary reachable: the folded-normal scale is searched in
    # log space (sigma -> 0), and the Lomax pair as (1/(shape-2), mean)
    # (shape -> infinity, where the family degenerates to exponential).
    if family == "fnorm":
        return np.array([kappa[0], math.log(max(kappa[1], _SIGMA_FLOOR))])
    if family == "lomax":
        alpha, beta = kappa
        return np.array([1.0 / (alpha - 2.0), beta / (alpha - 1.0)])
    return np.asarray(kappa, dtype=np.float64)


def _from_search_space(family: str, y: np.ndarray) -> Tuple[float, ...]:
    if family == "fnorm":
        sigma = math.exp(min(float(y[1]), 700.0))
        return (float(y[0]), max(sigma, _SIGMA_FLOOR))
    if family == "lomax":
        z, mean = float(y[0]), float(y[1])
        if z <= 0.0:  # out of domain; yields shape <= 2 and gets penalized
            return (1.0, max(mean, 1.0))
        alpha = 2.0 + 1.0 / max(z, _LOMAX_Z_FLOOR)
        return (alpha, mean * (alpha - 1.0))
    return tuple(float(v) for v in y)


def _inner_minimize(
    spec: ObjectiveSpec,
    starts: Sequence[Sequence[float]],
    xatol: float,
    fatol: float,
    max_evals: int,
) -> Tuple[Tuple[float, ...], float, int, bool]:
    """Multi-start simplex minimization of the penalized objective.

    A start that exhausts its budget still contributes its incumbent;
    the returned flag says whether every start converged properly.
    """
    best_kappa: Optional[Tuple[float, ...]] = None
    best_val = math.inf
    evals = 0
    all_converged = True
    for start in starts:
        y0 = _to_search_space(spec.family, start)
        try:
            res = simplex_minimize(
                lambda y: penalized_objective(spec, _from_search_space(spec.family, y)),
                y0,
                xatol=xatol,
                fatol=fatol,
                max_evals=max_evals,
            )
        except ConvergenceError as err:
            res = err.best
            all_converged = False
        evals += res.n_evals
        if res.fun < best_val:
            best_val = res.fun
            best_kappa = _from_search_space(spec.family, np.asarray(res.x))
    assert best_kappa is not None
    return best_kappa, best_val, evals, all_converged


def _jittered_starts(
    base: Sequence[float], n_starts: int, jitter_seed: int
) -> Tuple[Tuple[float, ...], ...]:
    """``base`` plus ``n_starts - 1`` copies scaled by factors in [0.875, 1.125)."""
    base = tuple(base)
    rng = np.random.default_rng(jitter_seed)
    starts = [base]
    for _ in range(n_starts - 1):
        factors = 1.0 + 0.25 * (rng.random(len(base)) - 0.5)
        starts.append(tuple(b * f for b, f in zip(base, factors)))
    return tuple(starts)


def bisection_optimal_arrival(
    family: str,
    mu: float,
    eps: Optional[float] = None,
    upper: Optional[float] = None,
    n_starts: int = _N_STARTS,
    jitter_seed: int = 0,
    xatol: float = _SIMPLEX_TOL,
    fatol: float = _SIMPLEX_TOL,
    max_evals: int = _MAX_EVALS,
    penalty: float = 1e9,
) -> OptimizationResult:
    """Minimize the mean AuD over one arrival family by threshold bisection.

    The bracket starts at [0, u] with u ten times the AuD of the
    load-1/2 start point (a guaranteed-feasible threshold).  Each midpoint
    c0 is classified feasible iff the multi-start inner minimum of the
    penalized objective is negative; feasibility shrinks the bracket from
    above, infeasibility from below.
    """
    _check_family(family)
    if eps is None:
        eps = 1e-6 / mu
    if not eps > 0:
        raise InputError(f"tolerance must be > 0, got {eps}")

    starts = _jittered_starts(default_start(family, mu), n_starts, jitter_seed)
    kappa0 = starts[0]
    aud0 = _mean_aud(family, kappa0, mu)
    if upper is None:
        upper = 10.0 * aud0
    if penalized_objective(ObjectiveSpec(family, mu, upper, penalty), kappa0) >= 0.0:
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
        spec = ObjectiveSpec(family, mu, c0, penalty)
        kappa, val, evals, converged = _inner_minimize(
            spec, starts, xatol, fatol, max_evals
        )
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
                f"inner minimization exhausted {max_evals} evaluations at "
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
    _check_family(family)
    if eps is None:
        eps = 1e-6 / mu
    if not eps > 0:
        raise InputError(f"tolerance must be > 0, got {eps}")

    kappa = default_start(family, mu)
    c = _mean_aud(family, kappa, mu)
    outer = 0
    total_evals = 0
    decrease = math.inf
    while decrease > eps:
        outer += 1
        starts = _jittered_starts(kappa, _N_STARTS, 0)
        cand, val, evals, converged = _inner_minimize(
            ObjectiveSpec(family, mu, c), starts, _SIMPLEX_TOL, _SIMPLEX_TOL, _MAX_EVALS
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
