"""Exception hierarchy shared by all audkit modules."""


class AudKitError(Exception):
    """Base class for every error raised by this package."""


class InputError(AudKitError):
    """Invalid user input: bad parameters, bad spec strings, domain violations."""


class StabilityError(InputError):
    """Offered load rho = lambda/mu is not below one."""

    def __init__(self, rho: float):
        self.rho = rho
        super().__init__(f"unstable: rho={rho:.6g} (requires rho < 1)")


class ConvergenceError(AudKitError):
    """An iterative solver ran out of iterations or evaluations.

    ``best`` holds the best iterate found so far (solver specific),
    ``residual`` the convergence measure at that iterate.
    """

    def __init__(self, message: str, best=None, residual=None):
        self.best = best
        self.residual = residual
        super().__init__(message)


class InsufficientDataError(AudKitError):
    """A simulated trajectory is too short for the requested estimate."""
