"""In-process CLI runs, with JSON output validated against the shipped schema."""

import ast
import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import audkit
from audkit import cli, sim

CLI_SCHEMA = json.loads(
    (Path(audkit.__file__).parent / "schemas" / "cli.schema.json").read_text()
)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def read_json(path):
    """The JSON document at ``path``; NaN and Infinity tokens fail the test."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize(
    "arrival,rho",
    [
        ("lomax:alpha=3,beta=2.1052631578947367", 0.95),
        ("exp:rate=0.99999", 0.99999),  # the rho1 solve used to give up here
    ],
)
def test_analyze_json_near_critical(tmp_path, arrival, rho):
    out = tmp_path / "analyze.json"
    code = cli.main(
        ["analyze", "--arrival", arrival, "--mu", "1", "--decision", "poisson:rate=0.5",
         "--json", "--out", str(out)]
    )
    assert code == 0
    payload = read_json(out)
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    assert payload["derived"]["rho"] == pytest.approx(rho, rel=1e-12)


def test_analyze_evaluates_each_transform_once(tmp_path, monkeypatch):
    # derive, mean_aud and missing_probability share one DerivedQuantities,
    # and q1 comes with rho1 from the solve: one newton_terms per Newton step
    # and one at the root, then q0 = laplace(nu), and no W1 at the root
    steps = audkit.solve_rho1(audkit.Lomax(3.5, 3.0), 1.0).iterations
    calls = []
    original = audkit.Lomax.newton_terms
    monkeypatch.setattr(audkit.Lomax, "newton_terms",
                        lambda self, *a: calls.append(a) or original(self, *a))
    code = cli.main(
        ["analyze", "--arrival", "lomax:alpha=3.5,beta=3", "--mu", "1",
         "--decision", "poisson:rate=0.5", "--out", str(tmp_path / "analyze.txt")]
    )
    assert code == 0
    assert len(calls) == steps + 2
    assert calls[-1] == (0.5, False)


@pytest.mark.parametrize("decision", ["poisson:rate=0.5", "sync:m0=2", "offset:delta=0.5"])
def test_analyze_solves_rho1_once(tmp_path, monkeypatch, decision):
    # the periodic disciplines read rho1 off the system's derived quantities
    solve = audkit.queue_core.solve_rho1
    calls = []
    monkeypatch.setattr(audkit.queue_core, "solve_rho1",
                        lambda arrival, mu: calls.append(arrival) or solve(arrival, mu))
    code = cli.main(["analyze", "--arrival", "det:period=2", "--mu", "1",
                     "--decision", decision, "--out", str(tmp_path / "analyze.txt")])
    assert code == 0
    assert len(calls) == 1


def analyze_json(tmp_path, arrival, decision):
    out = tmp_path / "analyze.json"
    code = cli.main(["analyze", "--arrival", arrival, "--mu", "1", "--decision", decision,
                     "--json", "--out", str(out)])
    assert code == 0
    return read_json(out)


def test_analyze_sync_at_huge_m0(tmp_path):
    # 1 - w1 rounded to 0 here and the mean AuD divided by it
    payload = analyze_json(tmp_path, "det:period=2", "sync:m0=1e20")
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    assert payload["mean_aud"] == pytest.approx(audkit.average_aud_dm1m(0.5, 1.0),
                                                rel=1e-12, abs=0)
    assert 0.0 <= payload["missing_probability"] <= 1e-15


def test_analyze_sync_where_w1_underflows(tmp_path):
    # w1 = exp(-mu (1 - rho1) P) underflows at P = 1000; the paper's
    # expression used to divide by it
    payload = analyze_json(tmp_path, "det:period=1000", "sync:m0=1")
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)  # rho1 rounds to 0
    assert payload["missing_probability"] == 0.0
    assert payload["mean_aud"] == pytest.approx(1000.0, rel=1e-12)


def test_analyze_exp_keeps_its_digits_near_critical_load(tmp_path):
    # the rho1 solve gave a mean AuD of 1.13e8 here, against 1.0e10
    payload = analyze_json(tmp_path, "exp:rate=0.9999999999", "poisson:rate=0.5")
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    assert payload["mean_aud"] == pytest.approx(audkit.average_aud_mm1m(0.9999999999, 1.0),
                                                rel=1e-5, abs=0)


def test_analyze_fnorm_at_light_load(tmp_path):
    # the rho1 solve reaches sigma s ~ 3e10, where the Gaussian-tail exponents
    # v^2/2 - a s - (v - z)^2/2 lost every digit and math.exp raised
    # OverflowError; at load 1e-11 the mean AuD is E[X^2]/(2 E[X]) + E[T]
    payload = analyze_json(tmp_path, "fnorm:alpha=1e11,sigma=3e10", "poisson:rate=1")
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    fn = audkit.FoldedNormal(1e11, 3e10)
    assert payload["mean_aud"] == pytest.approx(fn.second_moment() / (2 * fn.mean()), rel=1e-9)


@pytest.mark.parametrize("arrival", ["det:period=1e160", "fnorm:alpha=1e160,sigma=1e159"])
def test_analyze_rejects_an_unrepresentable_second_moment(capsys, arrival):
    # E[Y^2] overflows at this time scale; squaring the period raised OverflowError
    code = cli.main(["analyze", "--arrival", arrival, "--mu", "1e-159",
                     "--decision", "poisson:rate=1e-160"])
    err = capsys.readouterr().err
    assert code == 2
    assert "second_moment_y" in err
    assert "Traceback" not in err


_EXTREME = ["analyze", "--arrival", "fnorm:alpha=1e10,sigma=3e9", "--mu", "1e290",
            "--decision", "poisson:rate=1"]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_a_non_finite_result_exits_2_naming_the_field(tmp_path, capsys, mode):
    # the folded-normal W1 overflows at sigma s ~ 3e299 (ROADMAP item 18), and
    # with it E[TY] and the mean AuD; such a result was printed with exit 0
    out = tmp_path / "out"
    assert cli.main(_EXTREME + mode + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: derived.cross_ty is not finite at this "
                                       "time scale; rescale the input rates and times\n")
    assert not out.exists()


def test_first_non_finite_names_nested_fields():
    payload = {"a": 1.0, "b": {"c": [0.0, math.inf]}, "d": math.nan, "e": None}
    assert cli._first_non_finite(payload) == "b.c[1]"
    assert cli._first_non_finite({"a": 1, "b": "nan", "c": [None, 2.0]}) is None


SWEEP_SCHEMA = json.loads(
    (Path(audkit.__file__).parent / "schemas" / "sweep.schema.json").read_text()
)


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = cli.main(argv + ["--json", "--out", str(out)])
    assert code == 0
    return read_json(out)


def test_optimize_arrival_json(tmp_path):
    payload = run_json(tmp_path, ["optimize-arrival", "--family", "exp", "--mu", "1"])
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    assert payload["limit"] is None
    assert payload["c0"] == pytest.approx(audkit.average_aud_mm1m(payload["lambda_opt"], 1.0))


@pytest.mark.parametrize(
    "family,limit",
    [("exp", None), ("uniform", None), ("lomax", "exp"), ("fnorm", "det"), ("det", None)],
)
@pytest.mark.parametrize("mu", ["1", "1e-200"])
def test_optimize_arrival_json_every_family(tmp_path, family, limit, mu):
    # mu = 1e-200 used to overflow FoldedNormal.mean and exit 1 with a traceback
    payload = run_json(tmp_path, ["optimize-arrival", "--family", family, "--mu", mu])
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    assert payload["family"] == family and payload["limit"] == limit
    assert payload["c0"] * float(mu) == pytest.approx(
        audkit.optimal_arrival(family, 1.0).c0, rel=1e-14
    )


def test_optimize_offset_json_at_high_load(tmp_path):
    # lam/mu = 0.9: the offset derivative has a root at u1 = rho at every load
    payload = run_json(tmp_path, ["optimize-offset", "--lambda", "0.9", "--mu", "1"])
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    rho1 = audkit.rho1_deterministic(0.9)
    assert payload["delta_opt"] == pytest.approx(math.log(1.0 / 0.9) / (1.0 - rho1), rel=1e-14)
    assert payload["iterations"] == 0
    assert payload["aud_at_delta_opt"] < payload["aud_sync_m0_1"]
    assert payload["aud_at_delta_opt"] < payload["aud_poisson_decisions"]


def _count_rho1_solves(monkeypatch) -> list:
    solve = audkit.queue_core.solve_rho1
    calls = []
    monkeypatch.setattr(audkit.queue_core, "solve_rho1",
                        lambda arrival, mu: calls.append(arrival) or solve(arrival, mu))
    return calls


def test_optimize_offset_reads_its_laws_off_one_rho1_solve(tmp_path, monkeypatch):
    lam, mu = 0.6, 1.3
    delta = audkit.optimize_offset(lam, mu).delta
    expected = {  # the public laws, each solving rho1 again
        "delta_opt": delta,
        "aud_at_delta_opt": audkit.average_aud_dm1d_offset(lam, mu, delta),
        "aud_poisson_decisions": audkit.average_aud_dm1m(lam, mu),
        "aud_sync_m0_1": audkit.average_aud_dm1d_sync(lam, mu, 1),
    }
    calls = _count_rho1_solves(monkeypatch)
    payload = run_json(tmp_path, ["optimize-offset", "--lambda", repr(lam), "--mu", repr(mu)])
    assert len(calls) == 1
    assert {k: payload[k] for k in expected} == expected


def test_optimal_offset_sweep_cell_solves_rho1_once(tmp_path, monkeypatch):
    lam, mu = 0.6, 1.3
    delta = audkit.optimize_offset(lam, mu).delta
    aud = audkit.average_aud_dm1d_offset(lam, mu, delta)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "variable": "lambda", "grid": [lam], "evaluations": ["optimal-offset"],
        "template": {"arrival": "det:period=1", "mu": mu, "decision": "poisson:rate=1"},
    }))
    calls = _count_rho1_solves(monkeypatch)
    cells = run_json(tmp_path, ["sweep", "--spec", str(spec)])["rows"][0]["cells"]
    assert len(calls) == 1
    assert (cells["delta_opt"]["value"], cells["aud_at_delta_opt"]["value"]) == (delta, aud)


def test_optimize_arrival_unknown_family_exits_2():
    assert cli.main(["optimize-arrival", "--family", "weibull", "--mu", "1"]) == 2


def test_optimize_offset_at_subnormal_load(capsys):
    # exp(-1/rho) underflows to 0 and 1/rho overflows: the Lambert W argument was inf * 0
    assert audkit.optimize_offset(1e-320, 1.0).delta == pytest.approx(-math.log(1e-320),
                                                                       rel=1e-14)
    # the mean AuD under Poisson decisions, 1/(2 lam) + E[T], overflows at this load
    assert cli.main(["optimize-offset", "--lambda", "1e-320", "--mu", "1", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: aud_poisson_decisions is not finite at this time scale; "
                   "rescale the input rates and times\n")


@pytest.mark.parametrize("lam", ["0.5", "inf"])
def test_optimize_offset_rejects_infinite_mu(capsys, lam):
    assert cli.main(["optimize-offset", "--lambda", lam, "--mu", "inf"]) == 2
    err = capsys.readouterr().err
    assert "mu=inf" in err
    assert "unstable" not in err


def test_optimize_offset_rejects_eps():
    with pytest.raises(SystemExit):
        cli.main(["optimize-offset", "--lambda", "0.5", "--mu", "1", "--eps", "1e-9"])


@pytest.mark.parametrize("count", ["-1", "-3"])
def test_optimize_offset_rejects_delta_grid(count):
    # the brute-force grid check is test_optimize_offset_matches_grid_oracle
    with pytest.raises(SystemExit) as err:
        cli.main(["optimize-offset", "--lambda", "0.5", "--mu", "1", "--delta-grid", count])
    assert err.value.code == 2


def test_optimize_arrival_rejects_eps():
    # the load search has no tolerance to set; --eps inf used to exit 2
    with pytest.raises(SystemExit):
        cli.main(["optimize-arrival", "--family", "exp", "--mu", "1", "--eps", "inf"])


@pytest.mark.parametrize(
    "arrival,ok,skipped",
    [
        ("exp:rate=0.5", ("aud_opt", "lambda_opt"), ("delta_opt", "aud_at_delta_opt")),
        ("det:period=2", ("delta_opt", "aud_at_delta_opt", "aud_opt", "lambda_opt"), ()),
    ],
)
def test_lambda_sweep_of_optima_json(tmp_path, arrival, ok, skipped):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "variable": "lambda",
        "grid": [0.2, 0.5, 0.9],
        "template": {"arrival": arrival, "mu": 1.0, "decision": "poisson:rate=1"},
        "evaluations": ["optimal-arrival", "optimal-offset"],
    }))
    doc = run_json(tmp_path, ["sweep", "--spec", str(spec)])
    jsonschema.Draft202012Validator(SWEEP_SCHEMA).validate(doc)
    assert [row["grid"] for row in doc["rows"]] == [0.2, 0.5, 0.9]
    for row in doc["rows"]:
        assert all(row["cells"][name]["status"] == "ok" for name in ok)
        assert all(row["cells"][name]["status"] != "ok" for name in skipped)
    if "aud_opt" in ok:  # the optimum does not depend on the swept rate
        assert len({row["cells"]["aud_opt"]["value"] for row in doc["rows"]}) == 1


def test_simulate_dump_is_replication_zero(tmp_path):
    dump = tmp_path / "trajectory.csv"
    horizon = 2_000
    payload = run_json(tmp_path, [
        "simulate", "--arrival", "exp:rate=0.5", "--mu", "1", "--decision",
        "poisson:rate=0.7", "--horizon", str(horizon), "--reps", "3", "--seed", "11",
        "--dump", str(dump),
    ])
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    with open(dump, newline="") as fh:
        rows = list(csv.reader(fh))
    departures = np.array([float(r[6]) for r in rows[1 : 1 + horizon]])
    decisions = np.array([[float(r[1]), float(r[3])] for r in rows[2 + horizon :]])
    # the replications' warm-up rule: keep decisions from the first kept departure on
    kept = decisions[decisions[:, 0] >= departures[horizon // 10], 1]
    assert float(kept.mean()) == payload["report"]["replication_means"][0]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_dump_reruns_replication_zero(tmp_path, monkeypatch, threads):
    lindley = sim._lindley  # the core every replication and the dump run once
    calls = []

    def counting(*args):
        calls.append(args)
        return lindley(*args)

    monkeypatch.setattr(sim, "_lindley", counting)
    dump = tmp_path / "trajectory.csv"
    argv = ["simulate", "--arrival", "det:period=2", "--mu", "1", "--decision", "sync:m0=2",
            "--horizon", "3000", "--reps", "3", "--seed", "5", "--threads", threads,
            "--dump", str(dump)]
    assert cli.main(argv + ["--out", str(tmp_path / "report.txt")]) == 0
    assert len(calls) == 4  # three replications, then replication 0 for the dump
    # the file a separate simulation of replication 0 writes
    seq = np.random.SeedSequence(5).spawn(3)[0]
    reference = tmp_path / "reference.csv"
    sim.dump_trajectory_csv(*sim.run_trajectory(calls[0][0], 3000, seq), str(reference))
    assert dump.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("decision", ["sync:m0=3", "offset:delta=0.4"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_periodic_report_does_not_depend_on_dump(tmp_path, decision, threads):
    # the dumped replication is summed on the grid like the others
    argv = ["simulate", "--arrival", "det:period=1.25", "--mu", "1", "--decision", decision,
            "--horizon", "20000", "--reps", "3", "--seed", "5", "--threads", threads, "--json"]
    plain, dumped = tmp_path / "plain.json", tmp_path / "dumped.json"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    assert cli.main(argv + ["--out", str(dumped), "--dump", str(tmp_path / "d.csv")]) == 0
    assert dumped.read_bytes() == plain.read_bytes()


_ANALYZE = ["analyze", "--mu", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        _ANALYZE + ["--arrival", "exp:rate=inf", "--decision", "poisson:rate=1"],
        _ANALYZE + ["--arrival", "uniform:beta=inf", "--decision", "poisson:rate=1"],
        # E[X^2] and 1 / mu^2 past the double range: they raised ZeroDivisionError
        # and OverflowError, exit 1
        ["analyze", "--arrival", "exp:rate=1e-200", "--mu", "1e-190",
         "--decision", "poisson:rate=1e-200"],
        _ANALYZE + ["--arrival", "uniform:beta=1e200", "--decision", "poisson:rate=1"],
        _ANALYZE + ["--arrival", "det:period=2", "--decision", "sync:m0=inf"],
        _ANALYZE + ["--arrival", "det:period=2", "--decision", "sync:m0=1.5"],
        _ANALYZE + ["--arrival", "exp:rate=0.5", "--decision", "sync:m0=1"],
        ["analyze", "--mu", "inf", "--arrival", "exp:rate=0.5", "--decision", "poisson:rate=1"],
        ["simulate", "--mu", "1", "--arrival", "exp:rate=2", "--decision", "poisson:rate=1"],
        ["simulate", "--mu", "1", "--arrival", "exp:rate=0.5", "--decision", "poisson:rate=1",
         "--reps", "1"],
        ["optimize-offset", "--lambda", "0", "--mu", "1"],
        ["optimize-offset", "--lambda", "nan", "--mu", "1"],
        ["optimize-offset", "--lambda", "1.5", "--mu", "1"],
        ["simulate", "--mu", "1", "--arrival", "exp:rate=0.5", "--decision", "poisson:rate=1",
         "--threads", "0"],
        ["simulate", "--mu", "1", "--arrival", "exp:rate=0.5", "--decision", "poisson:rate=1",
         "--horizon", "200", "--reps", "2", "--seed", "-1"],
    ],
)
def test_input_errors_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _sweep_spec(grid):
    return {
        "variable": "nu",
        "grid": grid,
        "template": {"arrival": "exp:rate=0.5", "mu": 1.0, "decision": "poisson:rate=1"},
        "evaluations": ["analytic-pmis"],
    }


def _template(**fields):
    return dict(_sweep_spec([0.5])["template"], **fields)


@pytest.mark.parametrize(
    "text, key",  # key: the key the message names, where checked
    [
        (None, None),  # no such file
        ('{"variable": ', None),
        (json.dumps(_sweep_spec([0.5, math.inf])), None),
        (json.dumps(_sweep_spec([0.5, math.nan, 1.0])), None),
        (json.dumps(dict(_sweep_spec([0.5]), template={"arrival": "exp:rate=0.5", "mu": 1.0})),
         None),
        (json.dumps(dict(_sweep_spec([0.5]), evaluations=["analytic-aud", "analytic-aud"])),
         None),
        (json.dumps(dict(_sweep_spec([0.5]), base_seed=-1)), None),
        (json.dumps(_sweep_spec([10**400])), None),
        (json.dumps(dict(_sweep_spec([0.5]), variable=5)), "variable"),
        (json.dumps(dict(_sweep_spec([0.5]), template=_template(arrival=5))), "template.arrival"),
        (json.dumps(dict(_sweep_spec([0.5]), template=_template(decision=None))),
         "template.decision"),
        (json.dumps(dict(_sweep_spec([0.5]), template="exp:rate=0.5")), "template"),
        (json.dumps(dict(_sweep_spec([0.5]), evaluations="analytic-aud")), "evaluations"),
        (json.dumps(dict(_sweep_spec([0.5]), evaluations=["analytic-aud", 5])),
         "evaluations[1]"),
        (json.dumps(dict(_sweep_spec([0.5]), grid=0.5)), "grid"),
        (json.dumps(dict(_sweep_spec([0.5]), replication=3)), "replication"),
        (json.dumps(dict(_sweep_spec([0.5]), template=_template(extra=1))), "extra"),
    ],
    ids=["missing", "malformed", "inf-grid", "nan-grid", "no-decision", "repeated-evaluation",
         "negative-seed", "huge-int-grid", "number-variable", "number-arrival", "null-decision",
         "string-template", "string-evaluations", "number-evaluation", "number-grid",
         "unknown-key", "unknown-template-key"],
)
def test_sweep_input_errors_exit_2(tmp_path, capsys, text, key):
    spec = tmp_path / "spec.json"
    if text is not None:
        spec.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key is None or key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("horizon", 2000.9), ("replications", 2.7), ("base_seed", True),
     ("base_seed", "3"), ("horizon", None)],
)
def test_sweep_budget_must_be_integral(tmp_path, capsys, key, value):
    # int() would run 2000 updates for 2000.9, and 1 replication for true
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(_sweep_spec([0.5]), **{key: value})))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "key, grid, mu",
    [("grid[1]", [0.5, True], True), ("template.mu", [0.5], True), ("grid[0]", ["0.5"], 1.0),
     ("template.mu", [0.5], "1")],
    ids=["bool-grid", "bool-mu", "string-grid", "string-mu"],
)
def test_sweep_spec_numbers_must_be_numbers(tmp_path, capsys, key, grid, mu):
    # float() read true as 1.0 and ran the sweep
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "variable": "lambda", "grid": grid, "evaluations": ["analytic-aud"],
        "template": {"arrival": "det:period=2", "mu": mu, "decision": "poisson:rate=1"},
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must be a number" in err


def test_sweep_budget_takes_integral_floats(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(_sweep_spec([0.5]), horizon=2000.0, replications=2,
                                    base_seed=7.0)))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]) == 0
    assert cli._load_sweep_spec(str(spec)).horizon == 2000


OFFSET_TEMPLATE = {"arrival": "det:period=1", "mu": 2.0, "decision": "offset:delta=1.5"}


@pytest.mark.parametrize("variable,grid,template,systems", [
    ("mu", [3, 4], {"arrival": "exp:rate=2", "mu": 1.0, "decision": "poisson:rate=1"},
     [(audkit.Exponential(2.0), mu, audkit.PoissonDecisions(1.0)) for mu in (3, 4)]),
    ("arrival.period", [2, 3], OFFSET_TEMPLATE,
     [(audkit.Deterministic(p), 2.0, audkit.PeriodicOffsetDecisions(1.5)) for p in (2, 3)]),
    ("delta", [0.5, 0.6], OFFSET_TEMPLATE,
     [(audkit.Deterministic(1.0), 2.0, audkit.PeriodicOffsetDecisions(d)) for d in (0.5, 0.6)]),
], ids=["unstable-mu", "offset-past-period", "offset-past-period-delta"])
def test_sweep_template_is_judged_only_at_its_points(tmp_path, variable, grid, template,
                                                     systems):
    # the template is no valid system, but every point is
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variable": variable, "grid": grid, "template": template,
                                "evaluations": ["analytic-aud"]}))
    rows = run_json(tmp_path, ["sweep", "--spec", str(spec)])["rows"]
    assert [row["cells"]["aud_analytic"] for row in rows] == [
        {"value": audkit.mean_aud(audkit.SystemConfig(a, audkit.ServiceModel(mu), d)),
         "std_error": 0.0, "status": "ok"} for a, mu, d in systems]


def test_sweep_flags_a_template_decision_its_arrivals_cannot_serve(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "variable": "mu", "grid": [1.0, 2.0], "evaluations": ["analytic-aud"],
        "template": {"arrival": "exp:rate=0.5", "mu": 1.0, "decision": "sync:m0=1"}}))
    rows = run_json(tmp_path, ["sweep", "--spec", str(spec)])["rows"]
    assert [row["cells"]["aud_analytic"]["status"] for row in rows] == [
        "invalid: periodic decision disciplines require deterministic arrivals"] * 2


def test_simulate_insufficient_data_exits_3(capsys):
    argv = ["simulate", "--arrival", "exp:rate=0.5", "--mu", "1", "--decision",
            "poisson:rate=0.001", "--horizon", "20", "--reps", "2"]
    assert cli.main(argv) == 3
    assert "no decision epochs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate"])
def test_unwritable_path_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "no-such-dir"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_sweep_spec([0.5])))
    argv = {
        "analyze": _ANALYZE + ["--arrival", "exp:rate=0.5", "--decision", "poisson:rate=1",
                               "--json", "--out", str(missing / "x.json")],
        "sweep": ["sweep", "--spec", str(spec), "--out", str(missing / "x.csv")],
        "simulate": ["simulate", "--arrival", "exp:rate=0.5", "--mu", "1", "--decision",
                     "poisson:rate=1", "--horizon", "200", "--reps", "2",
                     "--dump", str(missing / "d.csv")],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-dir" in err
    assert "Traceback" not in err


# --- overwriting an existing --out file -------------------------------------------

_OUT_ARGV = {
    "text": _ANALYZE + ["--arrival", "exp:rate=0.5", "--decision", "poisson:rate=1"],
    "json": _ANALYZE + ["--arrival", "exp:rate=0.5", "--decision", "poisson:rate=1", "--json"],
    "sweep-csv": ["sweep"],
}


def _out_argv(kind, tmp_path):
    argv = list(_OUT_ARGV[kind])
    if kind == "sweep-csv":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_sweep_spec([0.25, 0.5, 1.0])))
        argv += ["--spec", str(spec)]
    return argv


def _fresh_output(argv, tmp_path) -> bytes:
    fresh = tmp_path / "fresh.out"
    assert cli.main(argv + ["--out", str(fresh)]) == 0
    return fresh.read_bytes()


@pytest.mark.parametrize("kind", sorted(_OUT_ARGV))
def test_out_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, kind):
    argv = _out_argv(kind, tmp_path)
    expected = _fresh_output(argv, tmp_path)
    stale = tmp_path / "stale.out"
    stale.write_bytes(b"stale\n" * len(expected))
    assert cli.main(argv + ["--out", str(stale)]) == 0
    assert stale.read_bytes() == expected


def test_out_through_a_symlink_writes_its_target(tmp_path):
    argv = _out_argv("json", tmp_path)
    expected = _fresh_output(argv, tmp_path)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"stale\n" * len(expected))
    link.symlink_to(target)
    assert cli.main(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == expected


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null device")
def test_out_to_dev_null_exits_0(tmp_path):
    # a character device is written as it is, never cut to length
    assert cli.main(_out_argv("json", tmp_path) + ["--out", "/dev/null"]) == 0


def test_no_module_opens_a_file_for_writing_but_the_in_place_writer():
    # open(path, "w") truncates the file first (see audkit._inplace)
    for path in sorted(Path(audkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            assert getattr(node, "attr", None) != "O_TRUNC", where
            if path.name == "_inplace.py" or not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            if name in ("open", "GzipFile") and "fileobj" not in keywords:
                assert not set(getattr(mode, "value", "r")) & set("wax+"), where


def _g12(v):
    return f"{v:.12g}"


def _g6(v):
    return f"{v:.6g}"


# per subcommand: (label, the --json value it prints, its text format)
_ANALYZE_LINES = [
    ("rho", lambda p: p["derived"]["rho"], _g12),
    ("rho1", lambda p: p["derived"]["rho1"], _g12),
    ("mean_system_time", lambda p: p["derived"]["mean_system_time"], _g12),
    ("mean_interdeparture", lambda p: p["derived"]["mean_y"], _g12),
    ("second_moment_y", lambda p: p["derived"]["second_moment_y"], _g12),
    ("cross_ty", lambda p: p["derived"]["cross_ty"], _g12),
    ("mean_aud", lambda p: p["mean_aud"], _g12),
    ("missing_probability", lambda p: p["missing_probability"], _g12),
]
_SIMULATE_LINES = [
    ("mean_aud", lambda p: p["report"]["mean_aud"], _g12),
    ("aud_std_error", lambda p: p["report"]["aud_std_error"], _g6),
    ("ci95", lambda p: p["report"]["ci95"], lambda v: f"[{v[0]:.12g}, {v[1]:.12g}]"),
    ("p_mis", lambda p: p["report"]["p_mis_hat"], _g12),
    ("p_mis_std_error", lambda p: p["report"]["p_mis_std_error"], _g6),
    ("updates_used", lambda p: p["report"]["n_updates"], str),
    ("decisions_used", lambda p: p["report"]["n_decisions"], str),
    ("updates_discarded", lambda p: p["report"]["updates_discarded"], str),
    ("decisions_discarded", lambda p: p["report"]["decisions_discarded"], str),
    ("horizon", lambda p: p["report"]["horizon"], str),
    ("replications", lambda p: p["report"]["n_replications"], str),
    ("seed", lambda p: p["report"]["seed"], str),
]
_OPTIMIZE_ARRIVAL_LINES = [
    ("family", lambda p: p["family"], str),
    ("limit", lambda p: p["limit"], lambda v: v or "none (optimum attained)"),
    ("kappa_opt", lambda p: p["kappa"], lambda v: "[" + ", ".join(f"{k:.10g}" for k in v) + "]"),
    ("min_aud (c0)", lambda p: p["c0"], _g12),
    ("lambda_opt", lambda p: p["lambda_opt"], lambda v: f"{v:.10g}"),
]
_OPTIMIZE_OFFSET_LINES = [
    ("delta_opt", lambda p: p["delta_opt"], _g12),
    ("iterations", lambda p: p["iterations"], str),
    ("aud_at_delta_opt", lambda p: p["aud_at_delta_opt"], _g12),
    ("aud_poisson_decisions", lambda p: p["aud_poisson_decisions"], _g12),
    ("aud_sync_m0_1", lambda p: p["aud_sync_m0_1"], _g12),
]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (_ANALYZE + ["--arrival", "exp:rate=0.5", "--decision", "poisson:rate=0.7"],
         _ANALYZE_LINES),
        (_ANALYZE + ["--arrival", "det:period=2", "--decision", "sync:m0=2"], _ANALYZE_LINES),
        (_ANALYZE + ["--arrival", "det:period=2", "--decision", "offset:delta=0.5"],
         _ANALYZE_LINES),
        (["simulate", "--arrival", "exp:rate=0.5", "--mu", "1", "--decision",
          "poisson:rate=0.7", "--horizon", "2000", "--reps", "3", "--seed", "4"],
         _SIMULATE_LINES),
        (["optimize-arrival", "--family", "lomax", "--mu", "2"], _OPTIMIZE_ARRIVAL_LINES),
        (["optimize-arrival", "--family", "uniform", "--mu", "2"], _OPTIMIZE_ARRIVAL_LINES),
        (["optimize-offset", "--lambda", "0.6", "--mu", "1"], _OPTIMIZE_OFFSET_LINES),
    ],
    ids=["analyze-poisson", "analyze-sync", "analyze-offset", "simulate",
         "optimize-arrival-limit", "optimize-arrival", "optimize-offset"],
)
def test_text_output_matches_json(tmp_path, capsys, argv, expected):
    payload = run_json(tmp_path, argv)
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # each line is the label padded to 22 columns, a space, then the value
    assert [(line[:22].rstrip(), line[23:]) for line in lines] == [
        (label, fmt(value(payload))) for label, value, fmt in expected
    ]


# argv -> what the full parser makes of it; cli._parse must make the same
_PARSE_CASES = {
    "empty": [],
    "version": ["--version"],
    "help": ["-h"],
    "command-help": ["optimize-offset", "-h"],
    "unknown-command": ["frobnicate", "--mu", "1"],
    "double-dash-first": ["--", "optimize-offset", "--lambda", "0.5", "--mu", "1"],
    "option-first": ["--json", "optimize-offset", "--lambda", "0.5", "--mu", "1"],
    "missing-mu": ["optimize-offset", "--lambda", "0.5"],
    "bogus": ["optimize-offset", "--lambda", "0.5", "--mu", "1", "--bogus"],
    "bare-bogus": ["--bogus"],
    "lam-abbreviation": ["optimize-offset", "--lam", "0.5", "--mu", "1"],
    "vers": ["--vers"],
    "vers-after-command": ["optimize-offset", "--lambda", "0.5", "--mu", "1", "--vers"],
    "lambda-not-a-number": ["optimize-offset", "--lambda=x", "--mu", "1"],
    "negative": ["optimize-offset", "--lambda", "-0.5", "--mu", "1"],
    "stray-positional": ["optimize-offset", "--lambda", "0.5", "--mu", "1", "extra"],
    "sweep-without-spec": ["sweep"],
    "analyze": ["analyze", "--arrival", "exp:rate=0.5", "--mu", "1",
                "--decision", "poisson:rate=1", "--json", "--out", "x.json"],
    "simulate-defaults": ["simulate", "--arrival", "det:period=2", "--mu", "1",
                          "--decision", "sync:m0=2"],
    "optimize-arrival": ["optimize-arrival", "--family", "exp", "--mu", "1"],
}


def _parse_outcome(parse, argv, capsys):
    """(the namespace's attributes, or the SystemExit code), stdout, stderr."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", _PARSE_CASES.values(), ids=list(_PARSE_CASES))
def test_subcommand_parser_parses_as_the_full_parser(capsys, argv):
    outcome = _parse_outcome(cli._parse, argv, capsys)
    assert outcome == _parse_outcome(cli._parser().parse_args, argv, capsys)
    assert outcome[0] in (0, 2) or outcome[0]["command"] == argv[0]


@pytest.mark.parametrize("name", ["analyze", "simulate-defaults", "optimize-arrival"])
def test_a_whole_subcommand_skips_the_full_parser(monkeypatch, name):
    def full_parse(argv):
        raise AssertionError("parsed by the full parser")

    monkeypatch.setattr(cli._parser(), "parse_args", full_parse)
    assert vars(cli._parse(_PARSE_CASES[name]))["command"] == _PARSE_CASES[name][0]
