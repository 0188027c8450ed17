"""In-process CLI runs, with JSON output validated against the shipped schema."""

import json
from pathlib import Path

import jsonschema
import pytest

import audkit
from audkit import cli

CLI_SCHEMA = json.loads(
    (Path(audkit.__file__).parent / "schemas" / "cli.schema.json").read_text()
)


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
    payload = json.loads(out.read_text())
    jsonschema.Draft202012Validator(CLI_SCHEMA).validate(payload)
    assert payload["derived"]["rho"] == pytest.approx(rho, rel=1e-12)
