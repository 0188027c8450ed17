"""CLI outputs compared byte for byte with committed golden files.

The files in ``tests/data/golden`` pin the analyze, simulate and sweep
outputs of a fixed set of inputs, and two ``simulate --dump`` trajectory
files.  A change that alters numbers on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from audkit import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
# a sitecustomize that refuses every scipy import
NO_SCIPY = Path(__file__).parent / "no_scipy"

ANALYZE = {
    "exp-poisson": ("exp:rate=0.6", "1", "poisson:rate=0.8"),
    "uniform-poisson": ("uniform:beta=2.5", "1.3", "poisson:rate=2"),
    "lomax-poisson": ("lomax:alpha=3.5,beta=3", "1", "poisson:rate=0.5"),
    # shape 2.05 at load 0.99, and shape 1e6 at load 0.5, next to exp's M/M/1
    "lomax-heavy-poisson": ("lomax:alpha=2.05,beta=1.0606060606060606", "1",
                            "poisson:rate=0.7"),
    "lomax-near-exp-poisson": ("lomax:alpha=1e6,beta=1999998", "1", "poisson:rate=0.8"),
    "fnorm-poisson": ("fnorm:alpha=1.5,sigma=0.4", "1", "poisson:rate=1"),
    "det-poisson": ("det:period=1.25", "1", "poisson:rate=0.7"),
    "det-sync": ("det:period=1.25", "1", "sync:m0=2"),
    "det-offset": ("det:period=1.25", "1", "offset:delta=0.4"),
}

SIMULATE = {
    "poisson": ("lomax:alpha=3.5,beta=3", "1", "poisson:rate=0.5"),
    "sync": ("det:period=1.25", "1", "sync:m0=2"),
    "offset": ("det:period=1.25", "1", "offset:delta=0.4"),
}

_MC = {"horizon": 500, "replications": 2, "base_seed": 3}
_ALL = ["analytic-aud", "analytic-pmis", "mc-aud", "mc-pmis", "optimal-arrival",
        "optimal-offset"]

SWEEPS = {
    "mu": {"grid": [0.5, 1.0, 2.5],
           "template": {"arrival": "exp:rate=0.8", "mu": 1.0, "decision": "poisson:rate=1"},
           "evaluations": _ALL},
    "lambda": {"grid": [0.3, 0.6, 0.9, 1.2],
               "template": {"arrival": "det:period=2", "mu": 1.0, "decision": "poisson:rate=1"},
               "evaluations": _ALL},
    "nu": {"grid": [0.25, 1.0, 4.0],
           "template": {"arrival": "uniform:beta=2", "mu": 2.0, "decision": "poisson:rate=1"},
           "evaluations": _ALL[:4]},
    "m0": {"grid": [1, 2, 3],
           "template": {"arrival": "det:period=1.25", "mu": 1.0, "decision": "sync:m0=1"},
           "evaluations": _ALL},
    "delta": {"grid": [0.1, 0.5, 0.9],
              "template": {"arrival": "det:period=1.25", "mu": 1.0,
                           "decision": "offset:delta=0.5"},
              "evaluations": _ALL},
    "arrival.sigma": {"grid": [0.0, 0.3, 1.0],
                      "template": {"arrival": "fnorm:alpha=1.5,sigma=0.4", "mu": 1.0,
                                   "decision": "poisson:rate=1"},
                      "evaluations": _ALL},
}


def _cases():
    cases = {}
    for name, (arrival, mu, decision) in ANALYZE.items():
        cases[f"analyze-{name}.json"] = (
            ["analyze", "--arrival", arrival, "--mu", mu, "--decision", decision, "--json"],
            None,
        )
    for name, (arrival, mu, decision) in SIMULATE.items():
        cases[f"simulate-{name}.json"] = (
            ["simulate", "--arrival", arrival, "--mu", mu, "--decision", decision,
             "--threads", "1", "--horizon", "2000", "--reps", "3", "--seed", "7", "--json"],
            None,
        )
    for name in ("poisson", "offset"):  # a dump case ends in --dump: see case_argv
        arrival, mu, decision = SIMULATE[name]
        cases[f"simulate-{name}-dump.csv"] = (
            ["simulate", "--arrival", arrival, "--mu", mu, "--decision", decision,
             "--threads", "1", "--horizon", "200", "--reps", "2", "--seed", "7", "--dump"],
            None,
        )
    for variable, spec in SWEEPS.items():
        cases[f"sweep-{variable}.csv"] = (["sweep"], dict(spec, variable=variable, **_MC))
    return cases


CASES = _cases()


def case_argv(name: str, workdir: Path) -> list:
    """The CLI arguments of one case, writing its output to ``workdir / name``;
    a sweep's spec file is written to ``workdir`` first, and a dump case writes
    the dump there and its report to a side file."""
    argv, spec = CASES[name]
    argv = list(argv)
    if spec is not None:
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv += ["--spec", str(spec_path)]
    if argv[-1] == "--dump":
        argv.append(str(workdir / name))
        name += ".report"
    return argv + ["--out", str(workdir / name)]


def run_case(name: str, workdir: Path) -> bytes:
    """Output file of one case, written under ``workdir``."""
    assert cli.main(case_argv(name, workdir)) == 0
    return (workdir / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(tmp_path, name):
    assert run_case(name, tmp_path) == (GOLDEN / name).read_bytes()


def _fresh_python(script: str, *path: Path) -> subprocess.CompletedProcess:
    """``script`` in a new interpreter with ``path`` and audkit's and this
    directory's parents on its path."""
    path += (Path(cli.__file__).parents[1], Path(__file__).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in path))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)


def _every_subcommand(tmp_path: Path, *path: Path) -> subprocess.CompletedProcess:
    """In one new interpreter: every golden case (analyze for every family,
    simulate, and sweeps of every evaluation), each compared byte for byte,
    then optimize-arrival for every family and optimize-offset; finally the
    scipy modules loaded are printed."""
    return _fresh_python(f"""
        import sys
        from pathlib import Path
        from audkit import cli
        from audkit.dist import FAMILIES
        from test_golden import CASES, GOLDEN, case_argv
        tmp = Path({str(tmp_path)!r})
        for name in sorted(CASES):
            assert cli.main(case_argv(name, tmp)) == 0, name
            assert (tmp / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        for family in FAMILIES:
            assert cli.main(["optimize-arrival", "--family", family, "--mu", "1"]) == 0, family
        assert cli.main(["optimize-offset", "--lambda", "0.5", "--mu", "1"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """, *path)


def test_cli_import_loads_no_scipy(tmp_path):
    proc = _every_subcommand(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_goldens_and_optimizers_without_scipy(tmp_path):
    # every scipy import raises: no subcommand needs scipy
    proc = _every_subcommand(tmp_path, NO_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert "delta" in proc.stdout


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / case).write_bytes(run_case(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
