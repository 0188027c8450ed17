"""audkit: age-upon-decisions analytics for update-and-decide queueing systems.

Closed-form mean age upon decisions and missing probability for
single-server FCFS queues with exponential service (``queue_core``), the
inter-arrival distribution family behind them (``dist``), arrival and
offset optimizers (``optimize``), a Monte Carlo validator (``sim``), and a
sweep/serialization layer (``report``) with a CLI front end (``cli``).
"""

__version__ = "0.1.0"

from .dist import (
    ArrivalModel,
    Deterministic,
    Exponential,
    FoldedNormal,
    Lomax,
    ServiceModel,
    Uniform,
    arrival_rate,
    parse_arrival,
)
from .errors import (
    AudKitError,
    ConvergenceError,
    InputError,
    InsufficientDataError,
    StabilityError,
)
from .optimize import OffsetResult, OptimizationResult, optimal_arrival, optimize_offset
from .queue_core import (
    DecisionModel,
    DerivedQuantities,
    PeriodicOffsetDecisions,
    PeriodicSyncDecisions,
    PoissonDecisions,
    SystemConfig,
    average_aud_dm1d_offset,
    average_aud_dm1d_sync,
    average_aud_dm1m,
    average_aud_from_moments,
    average_aud_mm1m,
    departure_moments,
    derive,
    mean_aud,
    missing_probability,
    rho1_deterministic,
    rho1_value,
    solve_rho1,
)
from .report import Cell, SweepRow, SweepSpec, run_sweep, serialize
from .sim import (
    DecisionSamples,
    SimulationReport,
    UpdateRecords,
    dump_trajectory_csv,
    run_replications,
    run_trajectory,
)
