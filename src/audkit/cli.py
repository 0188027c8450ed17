"""Command-line front end.

Five subcommands: ``analyze`` (closed forms for one system), ``simulate``
(Monte Carlo replications, and optionally the trajectory of replication 0
as CSV), ``optimize-arrival`` (the AuD-minimizing arrival rate of a family,
or of the limit family holding its infimum) and ``optimize-offset`` (the
closed-form optimal decision offset), and ``sweep`` (grid evaluation driven
by a JSON spec file).  Neither optimizer takes a tolerance or a budget.
Each subcommand returns its JSON payload and its text rendering, and
``_emit`` is the one writer of both.  ``main`` parses with the subcommand's
own parser, skipping the full parser's scan of every argument (25-29 against
52-55 us for ``optimize-offset``); with no subcommand first, or an argument
left over, the full parser runs, so every usage error keeps its text.
Exit codes: 0 success, 2 invalid input, an unstable system, a result that
is not finite at the given time scale, or a path that cannot be read or
written, 3 a runtime numerical or simulation failure.
The spec grammars and ``--family`` choices in the help texts come from the
family and discipline registries, ``dist.FAMILIES`` and
``queue_core.DISCIPLINES``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from types import SimpleNamespace
from typing import Optional

from . import __version__, queue_core, report, sim
from ._inplace import overwrite
from .dist import ARRIVAL_GRAMMAR, FAMILIES, ServiceModel, parse_arrival
from .errors import AudKitError, InputError
from .optimize import optimal_arrival, optimize_offset
from .queue_core import DECISION_GRAMMAR, SystemConfig, parse_decision


def _first_non_finite(value, name: str = "") -> Optional[str]:
    """Dotted name of the first NaN or infinity in a JSON-ready ``value``, or None."""
    if isinstance(value, dict):
        children = ((f"{name}.{k}" if name else k, v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        children = ((f"{name}[{i}]", v) for i, v in enumerate(value))
    else:
        return name if isinstance(value, float) and not math.isfinite(value) else None
    return next(filter(None, (_first_non_finite(v, n) for n, v in children)), None)


def _emit(payload: dict, text: Optional[str], args) -> None:
    """The only writer: ``payload`` as JSON under --json, else ``text``, to
    --out or stdout.  A non-finite number in ``payload`` is an input error in
    either mode, since no JSON parser reads NaN or Infinity.

    An existing --out file is overwritten in place and then cut to length,
    not truncated first (``_inplace``).  On ext4 this function then takes
    34-74 us of an in-process ``optimize-offset --json --out`` call (median
    90-185 us), against 102-228 us (of 173-380 us) with a truncating open.
    Like a truncating open, the overwrite is not atomic."""
    field = _first_non_finite(payload)
    if field is not None:
        raise InputError(f"{field} is not finite at this time scale; "
                         "rescale the input rates and times")
    if args.json:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with overwrite(args.out) as fh:
            fh.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _text(lines) -> str:
    return "".join(f"{k:<22} {v}\n" for k, v in lines)


def _parts(fields) -> dict:
    """The ``arrival``, ``service`` and ``decision`` named by the ``arrival``,
    ``mu`` and ``decision`` entries of a mapping (the parsed options, or a
    sweep spec's template), each checked on its own, not yet as a system."""
    return {"arrival": parse_arrival(fields["arrival"]),
            "service": ServiceModel(rate=float(fields["mu"])),
            "decision": parse_decision(fields["decision"])}


def _cmd_analyze(args) -> tuple:
    config = SystemConfig(**_parts(vars(args)))
    derived = queue_core.derive(config)
    aud = queue_core.mean_aud(config)
    pmis = queue_core.missing_probability(config)
    payload = {
        "command": "analyze",
        "config": config.describe(),
        "derived": derived.to_dict(),
        "mean_aud": aud,
        "missing_probability": pmis,
    }
    return payload, _text([
        ("rho", f"{derived.rho:.12g}"),
        ("rho1", f"{derived.rho1:.12g}"),
        ("mean_system_time", f"{derived.mean_system_time:.12g}"),
        ("mean_interdeparture", f"{derived.mean_y:.12g}"),
        ("second_moment_y", f"{derived.second_moment_y:.12g}"),
        ("cross_ty", f"{derived.cross_ty:.12g}"),
        ("mean_aud", f"{aud:.12g}"),
        ("missing_probability", f"{pmis:.12g}"),
    ])


def _cmd_simulate(args) -> tuple:
    config = SystemConfig(**_parts(vars(args)))
    rep = sim.run_replications(config, args.horizon, args.reps, args.seed, args.threads)
    if args.dump:  # replication 0 again, from its stream (the seeding rule of ``sim``)
        import numpy as np

        seq = np.random.SeedSequence(args.seed).spawn(1)[0]
        sim.dump_trajectory_csv(*sim.run_trajectory(config, args.horizon, seq), args.dump)
    payload = {"command": "simulate", "report": rep.to_dict()}
    return payload, _text([
        ("mean_aud", f"{rep.mean_aud:.12g}"),
        ("aud_std_error", f"{rep.aud_std_error:.6g}"),
        ("ci95", f"[{rep.ci95[0]:.12g}, {rep.ci95[1]:.12g}]"),
        ("p_mis", f"{rep.p_mis_hat:.12g}"),
        ("p_mis_std_error", f"{rep.p_mis_std_error:.6g}"),
        ("updates_used", rep.n_updates),
        ("decisions_used", rep.n_decisions),
        ("updates_discarded", rep.updates_discarded),
        ("decisions_discarded", rep.decisions_discarded),
        ("horizon", rep.horizon),
        ("replications", rep.n_replications),
        ("seed", rep.seed),
    ])


def _cmd_optimize_arrival(args) -> tuple:
    res = optimal_arrival(args.family, args.mu)
    payload = {
        "command": "optimize-arrival",
        "family": res.family,
        "limit": res.limit,
        "mu": args.mu,
        "kappa": list(res.kappa),
        "c0": res.c0,
        "lambda_opt": res.arrival_rate(),
    }
    return payload, _text([
        ("family", res.family),
        ("limit", res.limit or "none (optimum attained)"),
        ("kappa_opt", "[" + ", ".join(f"{v:.10g}" for v in res.kappa) + "]"),
        ("min_aud (c0)", f"{res.c0:.12g}"),
        ("lambda_opt", f"{res.arrival_rate():.10g}"),
    ])


def _cmd_optimize_offset(args) -> tuple:
    res = dict(vars(optimize_offset(args.lam, args.mu)))  # fields in JSON key order
    results = {"delta_opt": res.pop("delta"), **res}
    text = _text((k, f"{v:.12g}" if isinstance(v, float) else v) for k, v in results.items())
    return {"command": "optimize-offset", "lambda": args.lam, "mu": args.mu, **results}, text


def _number(key: str, value) -> float:
    """A sweep spec number as a float; a JSON boolean or a non-number is an error."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise InputError(f"sweep spec {key} must be a number, got {value!r}")


def _integral(key: str, value) -> int:
    """A sweep budget value as an int; a fraction is an error, as for ``_number``."""
    if _number(key, value).is_integer():
        return int(value)
    raise InputError(f"sweep spec {key} must be an integral number, got {value!r}")


_JSON = {str: "string", list: "array", dict: "object"}


def _typed(key: str, value, kind: type, keys: tuple = ()):
    """A sweep spec value of one JSON type, ``kind`` a key of ``_JSON``; an
    object may hold no key outside ``keys``."""
    if not isinstance(value, kind):
        raise InputError(f"sweep spec {key} must be a JSON {_JSON[kind]}, got {value!r}")
    unknown = sorted(set(value) - set(keys)) if kind is dict else []
    if unknown:
        raise InputError(f"sweep spec {key} has unknown key {unknown[0]!r}; "
                         f"expected {', '.join(keys)}")
    return value


_BUDGET = ("horizon", "replications", "base_seed")


def _load_sweep_spec(path: str) -> report.SweepSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _typed("file", json.load(fh), dict,
                         ("variable", "grid", "template", "evaluations") + _BUDGET)
        budget = {k: _integral(k, raw[k]) for k in _BUDGET if k in raw}
        template = _typed("template", raw["template"], dict, ("arrival", "mu", "decision"))
        grid = _typed("grid", raw["grid"], list)
        evaluations = _typed("evaluations", raw["evaluations"], list)
        return report.SweepSpec(
            variable=_typed("variable", raw["variable"], str),
            grid=tuple(_number(f"grid[{i}]", v) for i, v in enumerate(grid)),
            template=SimpleNamespace(**_parts(dict(
                {k: _typed(f"template.{k}", template[k], str) for k in ("arrival", "decision")},
                mu=_number("template.mu", template["mu"])))),
            evaluations=tuple(_typed(f"evaluations[{i}]", v, str)
                              for i, v in enumerate(evaluations)),
            **budget,
        )
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as err:
        raise InputError(f"bad sweep spec {path}: {err}") from None


def _cmd_sweep(args) -> tuple:
    spec = _load_sweep_spec(args.spec)
    rows = report.run_sweep(spec)
    return (report.serialize(rows, "json", spec.variable),
            None if args.json else report.serialize(rows, "csv", spec.variable))


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """Built on first use and shared by every later call; never mutated.
    Its ``commands`` maps each subcommand to its own parser."""
    p = argparse.ArgumentParser(
        prog="audkit",
        description="Age-upon-decisions analysis of update-and-decide queueing systems.",
    )
    p.add_argument("--version", action="version", version=f"audkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    def add_common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit JSON instead of text (CSV for sweep)")
        sp.add_argument("--out", help="write output to this path instead of stdout")

    def add_system(sp):
        sp.add_argument("--arrival", required=True, help=f"arrival spec: {ARRIVAL_GRAMMAR}")
        sp.add_argument("--mu", type=float, required=True, help="service rate")
        sp.add_argument("--decision", required=True, help=f"decision spec: {DECISION_GRAMMAR}")

    sp = sub.add_parser("analyze", help="closed-form quantities for one system")
    add_system(sp)
    add_common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate for one system")
    add_system(sp)
    sp.add_argument("--horizon", type=int, default=sim.DEFAULT_HORIZON,
                    help="updates per replication")
    sp.add_argument("--reps", type=int, default=sim.DEFAULT_REPLICATIONS,
                    help="number of replications")
    sp.add_argument("--seed", type=int, default=0, help="base seed")
    sp.add_argument("--dump", help="write the per-update/per-decision CSV here, "
                                   "gzip-compressed when the path ends in .gz")
    sp.add_argument("--threads", type=int,
                    help="worker threads (default: one per available core, at most one "
                         "per replication, from --horizon 1e5 up; 1 below)")
    add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("optimize-arrival", help="AuD-minimizing arrival parameters")
    sp.add_argument("--family", required=True, help=" | ".join(FAMILIES))
    sp.add_argument("--mu", type=float, required=True, help="service rate")
    add_common(sp)
    sp.set_defaults(func=_cmd_optimize_arrival)

    sp = sub.add_parser("optimize-offset", help="AuD-minimizing decision offset")
    sp.add_argument("--lambda", dest="lam", type=float, required=True, help="arrival rate")
    sp.add_argument("--mu", type=float, required=True, help="service rate")
    add_common(sp)
    sp.set_defaults(func=_cmd_optimize_offset)

    sp = sub.add_parser("sweep", help="grid evaluation from a JSON spec file")
    sp.add_argument("--spec", required=True, help="path to the sweep spec JSON")
    add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    return p


def _parse(argv: list) -> argparse.Namespace:
    """``_parser().parse_args(argv)``: the subcommand's own parser, if argv
    starts with one and it takes every argument after it, else the full
    parser, so that every usage error keeps its text and exit code."""
    command = _parser().commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _parser().parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        _emit(*args.func(args), args)
        return 0
    except (InputError, OSError) as err:  # OSError: an unreadable or unwritable path
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AudKitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
