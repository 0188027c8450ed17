"""The paper's arrival optimizer, kept as the oracle for ``optimize.optimal_arrival``.

The mean age upon decisions of an arrival family with parameters kappa is
the ratio N(kappa) / D(kappa), N = E[Y^2] + 2 E[TY] and D = 2 E[Y].  The
optimum c* over kappa is the threshold at which the inner problem

    min_kappa  N(kappa) - c D(kappa)

changes sign: negative above c*, non-negative below.  The inner problem is
solved by a multi-start derivative-free simplex search, with an additive
penalty replacing hard constraints (instability or parameters outside the
family's domain).  ``bisection_optimal_arrival`` bisects c on the sign of
the inner minimum, as the paper does.

Each optimizable family has a load-1/2 start and search coordinates.  The
folded normal's scale is searched in log space and the Lomax shape as
z = 1/(shape - 2), so that the boundaries holding their infima (sigma -> 0
and shape -> infinity) are reachable; the floors below cap the searched
shape at 2 + 1/_LOMAX_Z_FLOOR, where the Lomax answer therefore sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as sp_optimize

from audkit.dist import FAMILIES, ArrivalModel, _positive
from audkit.errors import ConvergenceError, InputError
from audkit.queue_core import average_aud_from_moments, departure_moments

# inner multi-start: starts, simplex tolerance (xatol and fatol), evaluations per start
_N_STARTS = 3
_SIMPLEX_TOL = 1e-9
_MAX_EVALS = 10_000

# search coordinates: the smallest folded-normal scale, and the smallest
# Lomax z = 1/(shape - 2), which caps the searched shape at 2 + 1/z
_SIGMA_FLOOR = 1e-12
_LOMAX_Z_FLOOR = 1e-6

# family -> parameters at offered load 1/2 for service rate mu
_STARTS = {
    "exp": lambda mu: (mu / 2.0,),
    "uniform": lambda mu: (4.0 / mu,),
    "lomax": lambda mu: (3.0, 4.0 / mu),
    "fnorm": lambda mu: (2.0 / mu, 0.5 / mu),
}

OPTIMIZABLE = tuple(_STARTS)


def _lomax_to_search(kappa):
    alpha, beta = kappa
    return np.array([1.0 / (alpha - 2.0), beta / (alpha - 1.0)])


def _lomax_from_search(y):
    z, mean = float(y[0]), float(y[1])
    if z <= 0.0:  # out of domain; yields shape <= 2 and gets penalized
        return (1.0, max(mean, 1.0))
    alpha = 2.0 + 1.0 / max(z, _LOMAX_Z_FLOOR)
    return (alpha, mean * (alpha - 1.0))


def _fnorm_to_search(kappa):
    return np.array([kappa[0], math.log(max(kappa[1], _SIGMA_FLOOR))])


def _fnorm_from_search(y):
    sigma = math.exp(min(float(y[1]), 700.0))
    return (float(y[0]), max(sigma, _SIGMA_FLOOR))


# family -> (to_search, from_search); the other families search kappa itself
_SEARCH_MAPS = {
    "lomax": (_lomax_to_search, _lomax_from_search),
    "fnorm": (_fnorm_to_search, _fnorm_from_search),
}


def to_search(family: str, kappa: Sequence[float]) -> np.ndarray:
    if family in _SEARCH_MAPS:
        return _SEARCH_MAPS[family][0](kappa)
    return np.asarray(kappa, dtype=np.float64)


def from_search(family: str, y: np.ndarray) -> Tuple[float, ...]:
    if family in _SEARCH_MAPS:
        return _SEARCH_MAPS[family][1](y)
    return tuple(float(v) for v in y)


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
class BisectionResult:
    """Output of the bisection; ``bracket_width`` is its final bracket."""

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
    _family(family)
    return _STARTS[family](mu)


def _inner_minimize(
    spec: ObjectiveSpec, starts: Sequence[Sequence[float]]
) -> Tuple[Tuple[float, ...], float, int, bool]:
    """Multi-start simplex minimization of the penalized objective.

    A start that exhausts its budget still contributes its incumbent;
    the returned flag says whether every start converged properly.
    """
    family = spec.family
    best_kappa: Optional[Tuple[float, ...]] = None
    best_val = math.inf
    evals = 0
    all_converged = True
    for start in starts:
        try:
            res = simplex_minimize(
                lambda y: penalized_objective(spec, from_search(family, y)),
                to_search(family, start),
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
            best_kappa = from_search(family, np.asarray(res.x))
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
) -> BisectionResult:
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

    return BisectionResult(
        family=family,
        kappa=best_kappa,
        c0=hi,
        outer_iterations=outer,
        inner_evaluations=total_evals,
        converged=True,
        bracket_width=hi - lo,
    )
