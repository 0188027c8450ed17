"""Parameter sweeps over update-and-decide systems, rendered as CSV or JSON.

A sweep walks one variable over a strictly increasing grid, builds a
system configuration per point from a fixed template, and evaluates any
mix of analytic formulas, Monte Carlo estimates, and optimizer runs.
Per-cell failures (an unstable point, an optimizer that does not apply, a
value that is not finite) are flagged in the cell status instead of
aborting the sweep.  Analytic columns are pure functions of the grid
point: a different base seed perturbs only the stochastic columns.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import queue_core, sim
from .dist import Deterministic, _positive
from .errors import AudKitError, InputError, StabilityError
from .optimize import optimal_arrival, optimize_offset
from .queue_core import DISCIPLINES, SystemConfig

__all__ = [
    "SCHEMA_VERSION",
    "EVALUATIONS",
    "SweepSpec",
    "Cell",
    "SweepRow",
    "run_sweep",
    "serialize",
]

SCHEMA_VERSION = "aud-kit/1"

# sweep variable -> the decision discipline whose parameter it sets
_DECISION_VARIABLES = {cls.variable: cls for cls in DISCIPLINES.values()}
_VARIABLES = ("mu", "lambda", *_DECISION_VARIABLES)


@dataclass(frozen=True)
class Cell:
    """One table entry: a value, its standard error, and a status flag."""

    value: Optional[float] = None
    std_error: float = 0.0
    status: str = "ok"


@dataclass(frozen=True)
class SweepRow:
    grid_value: float
    cells: Dict[str, Cell] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, over which grid, and with what Monte Carlo budget.

    ``template`` holds each point's ``arrival``, ``service`` and
    ``decision`` (a ``SystemConfig`` will do); a point is judged as a
    system only once the swept field replaces the template's."""

    variable: str
    grid: Tuple[float, ...]
    template: SystemConfig
    evaluations: Tuple[str, ...]
    horizon: int = sim.DEFAULT_HORIZON
    replications: int = sim.DEFAULT_REPLICATIONS
    base_seed: int = 0

    def __post_init__(self):
        if self.variable not in _VARIABLES and not self.variable.startswith("arrival."):
            raise InputError(
                f"unknown sweep variable {self.variable!r}; expected one of "
                f"{_VARIABLES} or arrival.<param>"
            )
        if len(self.grid) == 0:
            raise InputError("sweep grid must be non-empty")
        if not all(math.isfinite(v) for v in self.grid):
            raise InputError(f"sweep grid values must be finite, got {list(self.grid)}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise InputError("sweep grid must be strictly increasing")
        bad = [e for e in self.evaluations if e not in EVALUATIONS]
        if bad:
            raise InputError(f"unknown evaluations {bad}; expected subset of {EVALUATIONS}")
        if len(set(self.evaluations)) < len(self.evaluations):
            raise InputError(f"repeated evaluation in {list(self.evaluations)}")
        if self.horizon < 10 or self.replications < 2:
            raise InputError("MC budget needs horizon >= 10 and replications >= 2")
        if not self.base_seed >= 0:
            raise InputError(f"sweep base_seed must be >= 0, got {self.base_seed}")


def _apply_variable(spec: SweepSpec, value: float) -> SystemConfig:
    """The system at one grid point: the template with the swept field
    replaced, judged as a system.  Raises InputError if invalid, and
    StabilityError if unstable."""
    t, var = spec.template, spec.variable
    arrival, service, decision = t.arrival, t.service, t.decision
    if var == "mu":
        service = dataclasses.replace(service, rate=value)
    elif var == "lambda":
        _positive("arrival rate", value)
        arrival = arrival.with_rate(value)
    elif var in _DECISION_VARIABLES:
        if decision.variable != var:
            raise InputError(
                f"{var} sweeps require {_DECISION_VARIABLES[var].label} decision template"
            )
        decision = type(decision)(value)
    else:
        param = var.split(".", 1)[1]
        if param not in arrival.keys:
            raise InputError(f"arrival model has no parameter {param!r}")
        arrival = dataclasses.replace(arrival, **{param: value})
    return SystemConfig(arrival, service, decision)


@dataclass
class _Point:
    """One grid point: its system, and the work its evaluations share."""

    spec: SweepSpec
    config: SystemConfig
    index: int  # the point's place in the grid, which picks its seed
    _mc: object = field(default=None, init=False)  # the report, or the error running it

    def mc(self) -> sim.SimulationReport:
        """The Monte Carlo report, run at most once: a failure is kept and raised again."""
        if self._mc is None:
            seed = _point_seeds(self.spec.base_seed, len(self.spec.grid))[self.index]
            try:
                self._mc = sim.run_replications(self.config, horizon=self.spec.horizon,
                                                n_reps=self.spec.replications, base_seed=seed)
            except AudKitError as err:
                self._mc = err
        if isinstance(self._mc, AudKitError):
            raise self._mc
        return self._mc


@functools.lru_cache(maxsize=1)
def _point_seeds(base_seed: int, n: int) -> Tuple[int, ...]:
    """The seeds of a sweep's ``n`` points, drawn when a point first runs
    Monte Carlo: an analytic-only sweep draws none."""
    return tuple(np.random.SeedSequence(base_seed).generate_state(n, dtype=np.uint64).tolist())


def _optimal_arrival(p: _Point) -> Tuple[Cell, Cell]:
    res = optimal_arrival(p.config.arrival.tag, p.config.service.rate)
    return Cell(res.c0), Cell(res.arrival_rate())


def _optimal_offset(p: _Point) -> Tuple[Cell, Cell]:
    if not isinstance(p.config.arrival, Deterministic):
        return (Cell(status="requires-deterministic-arrivals"),) * 2
    res = optimize_offset(p.config.arrival_rate, p.config.service.rate)
    return Cell(res.delta), Cell(res.aud_at_delta_opt)


# evaluation -> its ordered (column, carries standard error) pairs, and the
# function giving the cells of those columns at one grid point
_TABLE = {
    "analytic-aud": ((("aud_analytic", False),),
                     lambda p: (Cell(queue_core.mean_aud(p.config)),)),
    "analytic-pmis": ((("pmis_analytic", False),),
                      lambda p: (Cell(queue_core.missing_probability(p.config)),)),
    "mc-aud": ((("aud_mc", True),),
               lambda p: (Cell(p.mc().mean_aud, p.mc().aud_std_error),)),
    "mc-pmis": ((("pmis_mc", True),),
                lambda p: (Cell(p.mc().p_mis_hat, p.mc().p_mis_std_error),)),
    "optimal-arrival": ((("aud_opt", False), ("lambda_opt", False)), _optimal_arrival),
    "optimal-offset": ((("delta_opt", False), ("aud_at_delta_opt", False)), _optimal_offset),
}

EVALUATIONS = tuple(_TABLE)
_HAS_SE = {col: se for columns, _ in _TABLE.values() for col, se in columns}


def _flag_all(evaluations: Sequence[str], status: str) -> Dict[str, Cell]:
    return {col: Cell(status=status) for ev in evaluations for col, _ in _TABLE[ev][0]}


def _evaluate_point(point: _Point) -> Dict[str, Cell]:
    """Cells of one grid point; an evaluation fills all its columns or flags them all."""
    cells: Dict[str, Cell] = {}
    for ev in point.spec.evaluations:
        columns, evaluate = _TABLE[ev]
        try:
            cells.update(zip((col for col, _ in columns), map(_finite, evaluate(point))))
        except StabilityError:
            cells.update(_flag_all([ev], "infeasible"))
        except AudKitError as err:
            cells.update(_flag_all([ev], type(err).__name__))
    return cells


def _finite(cell: Cell) -> Cell:
    """``cell``, or a null ``non-finite`` cell if its value or standard error
    is NaN or infinite: no JSON parser reads those."""
    if cell.value is None or (math.isfinite(cell.value) and math.isfinite(cell.std_error)):
        return cell
    return Cell(status="non-finite")


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Evaluate the sweep; rows come back in grid order, seeds are per-point."""
    rows: List[SweepRow] = []
    for index, value in enumerate(spec.grid):
        try:
            config = _apply_variable(spec, value)
        except StabilityError:
            cells = _flag_all(spec.evaluations, "infeasible")
        except InputError as err:
            cells = _flag_all(spec.evaluations, f"invalid: {err}")
        else:
            cells = _evaluate_point(_Point(spec, config, index))
        rows.append(SweepRow(value, cells))
    return rows


def _fmt(v: Optional[float]) -> str:
    if v is None:
        return ""
    return repr(float(v))


def serialize(rows: Sequence[SweepRow], fmt: str, variable: str = "grid"):
    """Render sweep rows: CSV text for ``"csv"``, the JSON document as a dict
    for ``"json"``.

    The CSV header is the sweep variable, then, for each cell of the first
    row (every row has the same cells), its column, its ``_se`` column if
    the evaluation table flags one, and its ``_status`` column.  CSV floats
    use shortest round-trip formatting (17 significant digits suffice to
    reparse the exact double), with one row per grid point.  The JSON
    document is one object per row under a top-level schema version marker.
    """
    if fmt == "json":
        doc_rows = [{"grid": row.grid_value,
                     "cells": {n: dict(vars(c)) for n, c in row.cells.items()}} for row in rows]
        return {"schema_version": SCHEMA_VERSION, "variable": variable, "rows": doc_rows}
    if fmt != "csv":
        raise InputError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    names = list(rows[0].cells) if rows else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [variable]
    for name in names:
        header.append(name)
        if _HAS_SE[name]:
            header.append(name + "_se")
        header.append(name + "_status")
    writer.writerow(header)
    for row in rows:
        out = [_fmt(row.grid_value)]
        for name in names:
            cell = row.cells[name]
            out.append(_fmt(cell.value))
            if _HAS_SE[name]:
                out.append(_fmt(cell.std_error if cell.value is not None else None))
            out.append(cell.status)
        writer.writerow(out)
    return buf.getvalue()
