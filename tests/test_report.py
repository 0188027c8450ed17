"""Sweep orchestration and CSV/JSON serialization."""

import csv
import io
import json
import math

import jsonschema
import numpy as np
import pytest

import audkit as ak
from audkit import queue_core as qc
from audkit import report, sim
from audkit.errors import InputError, StabilityError

SVC2 = ak.ServiceModel(2.0)

SYNC_TEMPLATE = ak.SystemConfig(
    ak.Deterministic(1.0), SVC2, ak.PeriodicSyncDecisions(1)
)
POISSON_TEMPLATE = ak.SystemConfig(ak.Exponential(1.0), SVC2, ak.PoissonDecisions(1.0))


def load_schema(name):
    import importlib.resources as res

    with res.files("audkit.schemas").joinpath(name).open() as fh:
        return json.load(fh)


# --- spec validation ---------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(InputError):
        report.SweepSpec("nu", (), POISSON_TEMPLATE, ("analytic-aud",))
    with pytest.raises(InputError):
        report.SweepSpec("nu", (2.0, 1.0), POISSON_TEMPLATE, ("analytic-aud",))
    with pytest.raises(InputError):
        report.SweepSpec("frequency", (1.0,), POISSON_TEMPLATE, ("analytic-aud",))
    with pytest.raises(InputError):
        report.SweepSpec("nu", (1.0,), POISSON_TEMPLATE, ("aud",))
    with pytest.raises(InputError):
        report.SweepSpec("nu", (1.0,), POISSON_TEMPLATE, ("analytic-aud",), replications=1)
    with pytest.raises(InputError, match="base_seed"):
        report.SweepSpec("nu", (1.0,), POISSON_TEMPLATE, ("analytic-aud",), base_seed=-1)


def test_sweep_spec_rejects_repeated_evaluation():
    # one cell per column: a repeated evaluation would name its columns twice
    with pytest.raises(InputError, match="repeated evaluation"):
        report.SweepSpec("nu", (1.0,), POISSON_TEMPLATE, ("analytic-aud", "analytic-aud"))


@pytest.mark.parametrize("grid", [(0.5, math.inf), (0.5, math.nan, 1.0), (-math.inf, 1.0)])
def test_sweep_spec_rejects_non_finite_grid(grid):
    with pytest.raises(InputError, match="finite"):
        report.SweepSpec("nu", grid, POISSON_TEMPLATE, ("analytic-pmis",))


# --- sweeps -------------------------------------------------------------------


def test_m0_sweep_analytic_decreasing():
    spec = report.SweepSpec(
        "m0", tuple(float(m) for m in range(1, 11)), SYNC_TEMPLATE,
        ("analytic-aud", "analytic-pmis"),
    )
    rows = report.run_sweep(spec)
    assert [r.grid_value for r in rows] == list(range(1, 11))
    auds = [r.cells["aud_analytic"].value for r in rows]
    pmis = [r.cells["pmis_analytic"].value for r in rows]
    assert all(r.cells["aud_analytic"].status == "ok" for r in rows)
    for a, b in zip(auds, auds[1:]):
        assert b < a
    for a, b in zip(pmis, pmis[1:]):
        assert b < a
    assert auds[0] == pytest.approx(qc.average_aud_dm1d_sync(1.0, 2.0, 1), rel=1e-12)


def test_m0_sweep_rejects_fractional_point():
    spec = report.SweepSpec("m0", (1.0, 1.5), SYNC_TEMPLATE, ("analytic-aud",))
    rows = report.run_sweep(spec)
    assert rows[0].cells["aud_analytic"].status == "ok"
    assert rows[1].cells["aud_analytic"].status.startswith("invalid")
    assert rows[1].cells["aud_analytic"].value is None


def test_unstable_points_flagged_not_dropped():
    spec = report.SweepSpec(
        "lambda", (1.0, 1.9, 2.5), POISSON_TEMPLATE, ("analytic-aud", "analytic-pmis")
    )
    rows = report.run_sweep(spec)
    assert len(rows) == 3
    assert rows[0].cells["aud_analytic"].status == "ok"
    assert rows[1].cells["aud_analytic"].status == "ok"
    assert rows[2].cells["aud_analytic"].status == "infeasible"
    assert rows[2].cells["aud_analytic"].value is None


def test_delta_sweep_reproduces_convex_curve():
    template = ak.SystemConfig(
        ak.Deterministic(1.0), SVC2, ak.PeriodicOffsetDecisions(0.3)
    )
    grid = tuple((i + 1) / 51.0 for i in range(50))
    spec = report.SweepSpec("delta", grid, template, ("analytic-aud",))
    rows = report.run_sweep(spec)
    vals = [r.cells["aud_analytic"].value for r in rows]
    second = [a - 2 * b + c for a, b, c in zip(vals, vals[1:], vals[2:])]
    assert all(s >= -1e-8 for s in second)
    assert min(vals) < vals[0] and min(vals) < vals[-1]  # interior minimum


def test_analytic_columns_ignore_seed_stochastic_move():
    spec1 = report.SweepSpec(
        "nu", (0.5, 1.0), POISSON_TEMPLATE, ("analytic-aud", "mc-aud"),
        horizon=20_000, replications=3, base_seed=1,
    )
    spec2 = report.SweepSpec(
        "nu", (0.5, 1.0), POISSON_TEMPLATE, ("analytic-aud", "mc-aud"),
        horizon=20_000, replications=3, base_seed=2,
    )
    rows1, rows2 = report.run_sweep(spec1), report.run_sweep(spec2)
    for r1, r2 in zip(rows1, rows2):
        assert r1.cells["aud_analytic"].value == r2.cells["aud_analytic"].value
        assert r1.cells["aud_mc"].value != r2.cells["aud_mc"].value
        assert r1.cells["aud_mc"].std_error > 0
        assert r1.cells["aud_analytic"].std_error == 0.0


def test_analytic_only_sweep_draws_no_seed(monkeypatch):
    def seed_sequence(*args, **kwargs):
        raise AssertionError("a SeedSequence was built")

    monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
    report._point_seeds.cache_clear()  # an earlier sweep's seeds would hide a draw
    template = ak.SystemConfig(ak.Deterministic(1.0), SVC2, ak.PoissonDecisions(1.0))
    spec = report.SweepSpec("lambda", (0.5, 0.8), template, (
        "analytic-aud", "analytic-pmis", "optimal-arrival", "optimal-offset"))
    rows = report.run_sweep(spec)
    assert all(c.status == "ok" for row in rows for c in row.cells.values())


@pytest.mark.parametrize("evaluation", ["mc-aud", "mc-pmis"])
def test_stochastic_sweep_seeds_each_point_from_the_base_seed(monkeypatch, evaluation):
    seeds = []
    run = sim.run_replications

    def recorded(*args, base_seed, **kwargs):
        seeds.append(base_seed)
        return run(*args, base_seed=base_seed, **kwargs)

    monkeypatch.setattr(sim, "run_replications", recorded)
    spec = report.SweepSpec("nu", (0.5, 1.0, 2.0), POISSON_TEMPLATE,
                            ("analytic-aud", evaluation), horizon=200, replications=2,
                            base_seed=7)
    report.run_sweep(spec)
    expected = np.random.SeedSequence(7).generate_state(3, dtype=np.uint64)
    assert seeds == [int(v) for v in expected]
    assert all(type(v) is int for v in seeds)


OFFSET_TEMPLATE = ak.SystemConfig(ak.Deterministic(1.0), SVC2, ak.PeriodicOffsetDecisions(0.3))


@pytest.mark.parametrize(
    "variable,grid,template,seed",
    [
        ("nu", (0.5, 1.0, 2.0), POISSON_TEMPLATE, 17),
        ("m0", (1.0, 2.0, 5.0), SYNC_TEMPLATE, 23),
        ("delta", (0.25, 0.5, 0.75), OFFSET_TEMPLATE, 29),
    ],
    ids=["nu", "m0", "delta"],
)
def test_mc_consistency_gate(variable, grid, template, seed):
    # |analytic - mc| <= max(1% analytic, 3 se) wherever both cells exist
    spec = report.SweepSpec(
        variable, grid, template,
        ("analytic-aud", "analytic-pmis", "mc-aud", "mc-pmis"),
        horizon=200_000, replications=5, base_seed=seed,
    )
    for row in report.run_sweep(spec):
        for name in ("aud", "pmis"):
            analytic = row.cells[f"{name}_analytic"]
            mc = row.cells[f"{name}_mc"]
            assert analytic.status == "ok" and mc.status == "ok"
            bound = max(0.01 * analytic.value, 3.0 * mc.std_error)
            assert abs(analytic.value - mc.value) <= bound


def test_optimal_arrival_sweep():
    template = ak.SystemConfig(ak.Uniform(2.0), SVC2, ak.PoissonDecisions(1.0))
    spec = report.SweepSpec("mu", (2.0, 3.0), template, ("optimal-arrival",))
    rows = report.run_sweep(spec)
    c0 = [r.cells["aud_opt"].value for r in rows]
    lam = [r.cells["lambda_opt"].value for r in rows]
    assert c0[1] < c0[0]  # faster service lowers the optimum age
    for v, mu in zip(lam, (2.0, 3.0)):
        assert 0.4 <= v / mu <= 0.6


def test_lambda_sweep_reports_one_optimum():
    # the optimum depends on the family and mu, not on the grid point, the
    # sweep or how often it is asked for
    spec = report.SweepSpec("lambda", (0.5, 1.0, 1.5), POISSON_TEMPLATE, ("optimal-arrival",))
    rows = report.run_sweep(spec)
    assert len({r.cells["aud_opt"].value for r in rows}) == 1
    assert repr(report.run_sweep(spec)) == repr(rows)


def test_optimal_offset_sweep():
    spec = report.SweepSpec("mu", (2.0, 2.5), SYNC_TEMPLATE, ("optimal-offset",))
    rows = report.run_sweep(spec)
    for row, mu in zip(rows, (2.0, 2.5)):
        delta = row.cells["delta_opt"].value
        assert 0.0 < delta < 1.0
        assert row.cells["aud_at_delta_opt"].value == pytest.approx(
            qc.average_aud_dm1d_offset(1.0, mu, delta), rel=1e-12
        )


# --- serialization ---------------------------------------------------------------


def _small_rows():
    spec = report.SweepSpec(
        "m0", (1.0, 2.0, 3.0), SYNC_TEMPLATE, ("analytic-aud", "analytic-pmis")
    )
    return spec, report.run_sweep(spec)


def test_serialize_csv_round_trip():
    spec, rows = _small_rows()
    text = report.serialize(rows, "csv", "m0")
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed[0] == [
        "m0",
        "aud_analytic", "aud_analytic_status",
        "pmis_analytic", "pmis_analytic_status",
    ]
    assert len(parsed) == 4
    for row, raw in zip(rows, parsed[1:]):
        assert float(raw[0]) == row.grid_value
        assert float(raw[1]) == row.cells["aud_analytic"].value  # bitwise round trip
        assert raw[2] == "ok"


def test_serialize_empty_evaluations_writes_grid_rows():
    # one row per grid point, as the JSON document has
    spec = report.SweepSpec("m0", (1.0, 2.0), SYNC_TEMPLATE, ())
    rows = report.run_sweep(spec)
    text = report.serialize(rows, "csv", "m0")
    assert text.splitlines() == ["m0", "1.0", "2.0"]
    doc = report.serialize(rows, "json", "m0")
    assert [row["grid"] for row in doc["rows"]] == [1.0, 2.0]


def test_serialize_json_validates_against_schema():
    spec, rows = _small_rows()
    doc = report.serialize(rows, "json", "m0")
    assert doc["schema_version"] == "aud-kit/1"
    jsonschema.validate(doc, load_schema("sweep.schema.json"))
    assert len(doc["rows"]) == 3
    assert doc["rows"][0]["cells"]["aud_analytic"]["value"] == rows[0].cells[
        "aud_analytic"
    ].value


def test_serialize_rejects_unknown_format():
    _, rows = _small_rows()
    with pytest.raises(InputError):
        report.serialize(rows, "xml")


def test_sweep_flags_non_finite_cells():
    # the missing probability of this system evaluates to NaN at this time scale
    template = ak.SystemConfig(ak.Uniform(1e-300), ak.ServiceModel(1e301), ak.PoissonDecisions(1.0))
    spec = report.SweepSpec("mu", (1e301,), template, ("analytic-pmis",))
    (row,) = report.run_sweep(spec)
    assert row.cells["pmis_analytic"] == report.Cell(status="non-finite")
    doc = report.serialize([row], "json", "mu")
    jsonschema.validate(doc, load_schema("sweep.schema.json"))
    assert report.serialize([row], "csv", "mu").splitlines()[1] == (
        "1e+301,,non-finite"
    )


def test_the_two_sweep_schemas_agree():
    # cli.schema.json carries a hand copy of sweep.schema.json under $defs
    standalone = load_schema("sweep.schema.json")
    copy = load_schema("cli.schema.json")["$defs"]["sweep"]
    drop = ("$schema", "title")
    assert {k: v for k, v in copy.items() if k not in drop} == {
        k: v for k, v in standalone.items() if k not in drop
    }


@pytest.mark.parametrize("arrival", [ak.Deterministic(1.0), ak.Uniform(2.0), ak.Exponential(1.0)])
def test_lambda_sweep_flags_non_positive_rates(arrival):
    template = ak.SystemConfig(arrival, SVC2, ak.PoissonDecisions(1.0))
    rows = report.run_sweep(report.SweepSpec("lambda", (-1.0, 0.0, 1.0), template, ("analytic-aud",)))
    for row in rows[:2]:
        assert row.cells["aud_analytic"].status == f"invalid: arrival rate must be > 0, got {row.grid_value}"
    assert rows[2].cells["aud_analytic"].status == "ok"


# --- per-cell statuses --------------------------------------------------------------


@pytest.mark.parametrize(
    "variable,template,status",
    [
        ("m0", POISSON_TEMPLATE,
         "invalid: m0 sweeps require a synchronous periodic decision template"),
        ("arrival.rate", ak.SystemConfig(ak.Lomax(3.0, 2.0), SVC2, ak.PoissonDecisions(1.0)),
         "invalid: arrival model has no parameter 'rate'"),
        ("lambda", ak.SystemConfig(ak.Lomax(3.0, 2.0), SVC2, ak.PoissonDecisions(1.0)),
         "invalid: cannot sweep lambda for a Lomax arrival; sweep arrival.<param> instead"),
    ],
    ids=["m0-of-poisson", "lomax-rate", "lambda-of-lomax"],
)
def test_sweep_flags_variables_the_template_lacks(variable, template, status):
    (row,) = report.run_sweep(
        report.SweepSpec(variable, (1.0,), template, ("analytic-aud", "optimal-arrival"))
    )
    assert row.cells == {name: report.Cell(status=status)
                         for name in ("aud_analytic", "aud_opt", "lambda_opt")}


@pytest.fixture
def replication_calls(monkeypatch):
    """The configs ``sim.run_replications`` is called with during the test."""
    run = sim.run_replications
    calls = []

    def counting(config, **budget):
        calls.append(config)
        return run(config, **budget)

    monkeypatch.setattr(sim, "run_replications", counting)
    return calls


def test_mc_cells_flag_a_replication_without_data(replication_calls):
    # the failed report is not run again for the second Monte Carlo column
    template = ak.SystemConfig(ak.Exponential(0.5), ak.ServiceModel(1.0), ak.PoissonDecisions(1.0))
    spec = report.SweepSpec("nu", (0.001,), template, ("mc-aud", "mc-pmis"),
                            horizon=10, replications=2, base_seed=1)
    (row,) = report.run_sweep(spec)
    assert row.cells == {"aud_mc": report.Cell(status="InsufficientDataError"),
                         "pmis_mc": report.Cell(status="InsufficientDataError")}
    assert len(replication_calls) == 1


def test_mc_columns_share_one_report_per_point(replication_calls):
    spec = report.SweepSpec("nu", (0.5, 1.0), POISSON_TEMPLATE, ("mc-aud", "mc-pmis"),
                            horizon=1_000, replications=2)
    rows = report.run_sweep(spec)
    assert len(replication_calls) == 2
    assert all(cell.status == "ok" for row in rows for cell in row.cells.values())


def test_an_unstable_evaluation_flags_all_its_columns(monkeypatch):
    def unstable(family, mu):
        raise StabilityError(1.5)

    monkeypatch.setattr(report, "optimal_arrival", unstable)
    spec = report.SweepSpec("mu", (2.0,), POISSON_TEMPLATE, ("analytic-aud", "optimal-arrival"))
    (row,) = report.run_sweep(spec)
    assert row.cells["aud_analytic"].status == "ok"
    assert row.cells["aud_opt"] == row.cells["lambda_opt"] == report.Cell(status="infeasible")
