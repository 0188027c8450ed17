"""The paper's expression for the missing probability under synchronous
periodic decisions, kept as the record of what the paper computes.

It is P(Y < 1/nu), the probability that an inter-departure time is shorter
than one decision period, not the share of unused updates, which
``PeriodicSyncDecisions.missing_probability`` gives.
"""

import math

from audkit.errors import InputError, StabilityError
from audkit.queue_core import rho1_deterministic


def short_interdeparture_prob_dm1d_sync(lam: float, mu: float, m0: int) -> float:
    """The paper's synchronous-decision expression (rho1 / (2 - rho1)) (1/w1 - w0),
    at decision rate nu = m0 * lam.  The fixed point
    rho1 = exp(-mu (1 - rho1)/lam) makes rho1/w1 = rho1^(1 - 1/m0), which
    stays finite where w1 underflows.
    """
    if not 0.0 < lam < mu:
        raise StabilityError(lam / mu if mu > 0 else math.inf)
    if not m0 >= 1:
        raise InputError(f"m0 must be >= 1, got {m0}")
    rho1 = rho1_deterministic(lam / mu)
    value = (rho1 ** (1.0 - 1.0 / m0) - rho1 * math.exp(-mu / (m0 * lam))) / (2.0 - rho1)
    return min(max(value, 0.0), 1.0)
