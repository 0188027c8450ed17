"""Parameter sweeps over update-and-decide systems, rendered as CSV or JSON.

A sweep walks one variable over a strictly increasing grid, builds a
system configuration per point from a fixed template, and evaluates any
mix of analytic formulas, Monte Carlo estimates, and optimizer runs.
Per-cell failures (an unstable point, an optimizer that does not apply, a
value that is not finite) are flagged in the cell status instead of
aborting the sweep, and
analytic columns are pure functions of the grid point: a different base
seed perturbs only the stochastic columns.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import queue_core, sim
from .dist import Deterministic, _positive
from .errors import AudKitError, InputError, StabilityError
from .optimize import OptimizationResult, optimal_arrival, optimize_offset
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

# evaluation -> ordered (column, carries standard error) pairs
_COLUMNS: Dict[str, Tuple[Tuple[str, bool], ...]] = {
    "analytic-aud": (("aud_analytic", False),),
    "analytic-pmis": (("pmis_analytic", False),),
    "mc-aud": (("aud_mc", True),),
    "mc-pmis": (("pmis_mc", True),),
    "optimal-arrival": (("aud_opt", False), ("lambda_opt", False)),
    "optimal-offset": (("delta_opt", False), ("aud_at_delta_opt", False)),
}

EVALUATIONS = tuple(_COLUMNS)

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
    """What to sweep, over which grid, and with what Monte Carlo budget."""

    variable: str
    grid: Tuple[float, ...]
    template: SystemConfig
    evaluations: Tuple[str, ...]
    horizon: int = 1_000_000
    replications: int = 5
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
        if self.horizon < 10 or self.replications < 2:
            raise InputError("MC budget needs horizon >= 10 and replications >= 2")

    def columns(self) -> Tuple[Tuple[str, bool], ...]:
        return tuple(col for ev in self.evaluations for col in _COLUMNS[ev])


def _apply_variable(spec: SweepSpec, value: float) -> SystemConfig:
    """Instantiate the template at one grid point; raises InputError if invalid."""
    t = spec.template
    var = spec.variable
    if var == "mu":
        return dataclasses.replace(t, service=dataclasses.replace(t.service, rate=value))
    if var == "lambda":
        _positive("arrival rate", value)
        return dataclasses.replace(t, arrival=t.arrival.with_rate(value))
    if var in _DECISION_VARIABLES:
        if t.decision.variable != var:
            raise InputError(
                f"{var} sweeps require {_DECISION_VARIABLES[var].label} decision template"
            )
        return dataclasses.replace(t, decision=type(t.decision)(value))
    param = var.split(".", 1)[1]
    if param not in t.arrival.keys:
        raise InputError(f"arrival model has no parameter {param!r}")
    return dataclasses.replace(t, arrival=dataclasses.replace(t.arrival, **{param: value}))


def _flag_all(evaluations: Sequence[str], status: str) -> Dict[str, Cell]:
    return {col: Cell(status=status) for ev in evaluations for col, _ in _COLUMNS[ev]}


def _evaluate_point(
    spec: SweepSpec,
    config: SystemConfig,
    seed: int,
    optima: Dict[Tuple[str, float], OptimizationResult],
) -> Dict[str, Cell]:
    """Cells of one grid point; ``optima`` caches arrival optima per (family, mu)."""
    cells: Dict[str, Cell] = {}
    report = None
    for ev in spec.evaluations:
        try:
            if ev == "analytic-aud":
                cells["aud_analytic"] = Cell(value=queue_core.mean_aud(config))
            elif ev == "analytic-pmis":
                cells["pmis_analytic"] = Cell(value=queue_core.missing_probability(config))
            elif ev in ("mc-aud", "mc-pmis"):
                if report is None:
                    report = sim.run_replications(
                        config,
                        horizon=spec.horizon,
                        n_reps=spec.replications,
                        base_seed=seed,
                    )
                if ev == "mc-aud":
                    cells["aud_mc"] = Cell(report.mean_aud, report.aud_std_error)
                else:
                    cells["pmis_mc"] = Cell(report.p_mis_hat, report.p_mis_std_error)
            elif ev == "optimal-arrival":
                key = (config.arrival.tag, config.service.rate)
                res = optima.get(key)
                if res is None:
                    res = optima[key] = optimal_arrival(*key)
                cells["aud_opt"] = Cell(value=res.c0)
                cells["lambda_opt"] = Cell(value=res.arrival_rate())
            elif ev == "optimal-offset":
                if not isinstance(config.arrival, Deterministic):
                    cells.update(_flag_all([ev], "requires-deterministic-arrivals"))
                else:
                    lam = config.arrival_rate
                    mu = config.service.rate
                    res = optimize_offset(lam, mu)
                    cells["delta_opt"] = Cell(value=res.delta)
                    cells["aud_at_delta_opt"] = Cell(
                        value=queue_core.average_aud_dm1d_offset(lam, mu, res.delta)
                    )
        except StabilityError:
            for col, _ in _COLUMNS[ev]:
                cells[col] = Cell(status="infeasible")
        except AudKitError as err:
            code = type(err).__name__
            for col, _ in _COLUMNS[ev]:
                cells.setdefault(col, Cell(status=code))
    return {name: _finite(cell) for name, cell in cells.items()}


def _finite(cell: Cell) -> Cell:
    """``cell``, or a null ``non-finite`` cell if its value or standard error
    is NaN or infinite: no JSON parser reads those."""
    if cell.value is None or (math.isfinite(cell.value) and math.isfinite(cell.std_error)):
        return cell
    return Cell(status="non-finite")


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Evaluate the sweep; rows come back in grid order, seeds are per-point."""
    point_seeds = np.random.SeedSequence(spec.base_seed).generate_state(
        len(spec.grid), dtype=np.uint64
    )
    rows: List[SweepRow] = []
    optima: Dict[Tuple[str, float], OptimizationResult] = {}
    for value, seed in zip(spec.grid, point_seeds):
        try:
            config = _apply_variable(spec, value)
        except StabilityError:
            rows.append(SweepRow(value, _flag_all(spec.evaluations, "infeasible")))
            continue
        except InputError as err:
            rows.append(SweepRow(value, _flag_all(spec.evaluations, f"invalid: {err}")))
            continue
        rows.append(SweepRow(value, _evaluate_point(spec, config, int(seed), optima)))
    return rows


def _fmt(v: Optional[float]) -> str:
    if v is None:
        return ""
    return repr(float(v))


def serialize(
    rows: Sequence[SweepRow],
    fmt: str,
    variable: str = "grid",
    *,
    columns: Sequence[Tuple[str, bool]],
):
    """Render sweep rows: CSV text for ``"csv"``, the JSON document as a dict
    for ``"json"``.

    CSV floats use shortest round-trip formatting (17 significant digits
    suffice to reparse the exact double), with one row per grid point.  The
    JSON document is one object per row under a top-level schema version
    marker.
    """
    if fmt == "json":
        doc_rows = [{"grid": row.grid_value,
                     "cells": {n: dict(vars(c)) for n, c in row.cells.items()}} for row in rows]
        return {"schema_version": SCHEMA_VERSION, "variable": variable, "rows": doc_rows}
    if fmt != "csv":
        raise InputError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [variable]
    for name, has_se in columns:
        header.append(name)
        if has_se:
            header.append(name + "_se")
        header.append(name + "_status")
    writer.writerow(header)
    for row in rows:
        out = [_fmt(row.grid_value)]
        for name, has_se in columns:
            cell = row.cells[name]
            out.append(_fmt(cell.value))
            if has_se:
                out.append(_fmt(cell.std_error if cell.value is not None else None))
            out.append(cell.status)
        writer.writerow(out)
    return buf.getvalue()
