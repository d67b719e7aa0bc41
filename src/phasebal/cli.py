"""Command line interface.

Verbs: optimize, validate, sweep, scale, export-lp, pf.  Global flags may
also come from a key = value config file (--config); explicit flags win.
A config value is typed as its flag is: ``delta_max = 2.7`` or
``seed = true`` is an input error, as ``--delta-max 2.7`` is.
Exit codes: 0 success, 2 input/validation error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import ga, harness, lpfile, miqp
from .errors import ConvergenceError, InputParseError, PhasebalError, ValidationError
from .metrics import ALL_METRICS, ObjectiveSpec
from .network import ConstraintConfig, is_whole, load_feeder, load_profiles

_OBJECTIVES = {m.replace("_", "-"): ObjectiveSpec(m) for m in ALL_METRICS}  # flag -> spec


def load_config(path) -> dict:
    """Key = value lines; # comments; bare words, numbers and booleans."""
    values = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputParseError(
                        f"{path}:{ln}: expected 'key = value', got {line!r}")
                key, _, raw = line.partition("=")
                key = key.strip().replace("-", "_")
                raw = raw.strip().strip('"').strip("'")
                if raw.lower() in ("true", "false"):
                    values[key] = raw.lower() == "true"
                else:
                    try:
                        values[key] = int(raw)
                    except ValueError:
                        try:
                            values[key] = float(raw)
                        except ValueError:
                            values[key] = raw
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasebal",
        description="Static phase re-assignment planning for LV feeders")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file supplying any flag")
    common.add_argument("--feeder", help="feeder JSON file")
    common.add_argument("--profiles", help="demand profiles CSV")
    common.add_argument("--objective", choices=sorted(_OBJECTIVES),
                        help="imbalance objective (default pu-star)")
    common.add_argument("--method", choices=["ga", "miqp", "oracle"],
                        help="optimizer (default miqp)")
    common.add_argument("--seed", type=int, help="RNG seed for the GA")
    common.add_argument("--threads", type=int, help="parallel fitness workers")
    common.add_argument("--out", help="output file (JSON report)")
    common.add_argument("--delta-max", type=int, dest="delta_max",
                        help="switching budget (default 5)")
    common.add_argument("--gamma-low", type=int, dest="gamma_low")
    common.add_argument("--gamma-upp", type=int, dest="gamma_upp")
    common.add_argument("--enforce-phase-counts", action="store_const",
                        const=True, dest="enforce_phase_counts")
    common.add_argument("--v-min", type=float, dest="v_min")
    common.add_argument("--v-max", type=float, dest="v_max")

    sub = parser.add_subparsers(dest="verb", required=True)
    p_opt = sub.add_parser("optimize", parents=[common],
                           help="compute a phase re-assignment plan")
    p_opt.add_argument("--f-calls", type=int, dest="f_calls",
                       help="GA fitness-call budget")
    p_opt.add_argument("--population", type=int, help="GA population size")
    p_opt.add_argument("--time-limit", type=float, dest="time_limit",
                       help="time limit in seconds; bounds only the MIQP search")
    p_opt.add_argument("--trace", help="CSV path for the GA fitness trace")

    p_val = sub.add_parser("validate", parents=[common],
                           help="score a stored assignment on unseen loads")
    p_val.add_argument("--assignment", required=True,
                       help="run report JSON holding the assignment")
    p_val.add_argument("--csv", help="per-timestep metric CSV path")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="objective vs switching budget")
    p_sweep.add_argument("--grid", help="comma-separated budgets")
    p_sweep.add_argument("--csv", help="plot data CSV path")
    p_sweep.add_argument("--time-limit", type=float, dest="time_limit")

    p_scale = sub.add_parser("scale", parents=[common],
                             help="wall-time grid over feeders and horizons")
    p_scale.add_argument("--feeders", nargs="+",
                         help="feeder JSON files (profiles CSV alongside: "
                              "same path with .profiles.csv)")
    p_scale.add_argument("--horizons", help="comma-separated horizon lengths")
    p_scale.add_argument("--methods")
    p_scale.add_argument("--repeats", type=int)
    p_scale.add_argument("--csv", help="timing rows CSV path")

    p_lp = sub.add_parser("export-lp", parents=[common],
                          help="write the binary program as an LP file")

    p_pf = sub.add_parser("pf", parents=[common],
                          help="one-shot exact power flow")
    p_pf.add_argument("--t", type=int, help="timestep (default: all)")
    return parser


_DEFAULTS = {"objective": "pu-star", "method": "miqp", "seed": 0, "threads": 1,
             "delta_max": 5, "gamma_low": 0, "gamma_upp": 10 ** 9,
             "enforce_phase_counts": False, "v_min": 0.90, "v_max": 1.10,
             "grid": "0,1,2,3,5,10,20", "horizons": "1,24", "methods": "miqp,ga",
             "repeats": 5, "population": 100, "f_calls": 6000}


def _int_list(value) -> list[int]:
    return [int(v) for v in str(value).split(",")]


def _strict(accepts, convert):
    """A reader that converts only the values ``accepts`` takes, where a
    plain int(), float() or bool() would read ``true`` as 1, 2.7 as 2,
    ``infinity`` as a number and any text as True."""
    def read(value):
        if not accepts(value):
            raise ValueError(value)
        return convert(value)
    return read


_whole = _strict(is_whole, int)
# type(), not isinstance(): a bool is an int
_real = _strict(lambda v: type(v) in (int, float) and math.isfinite(v), float)
_flag = _strict(lambda v: type(v) is bool, bool)


_TYPES = {"seed": _whole, "threads": _whole, "delta_max": _whole, "gamma_low": _whole,
          "gamma_upp": _whole, "v_min": _real, "v_max": _real, "population": _whole,
          "f_calls": _whole, "time_limit": _real, "repeats": _whole, "grid": _int_list,
          "horizons": _int_list, "enforce_phase_counts": _flag,
          "objective": _OBJECTIVES.__getitem__, "feeder": str, "profiles": str,
          "out": str, "csv": str, "trace": str}


def _resolve(args) -> dict:
    """Merge defaults < config file < explicit flags, then type each value;
    one that does not parse (``delta_max = abc`` in a config file) or names
    no objective is a ValidationError.  Paths are text, so ``out = 1``
    names a file, not a file descriptor."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(load_config(args.config))
    merged.update((key, value) for key, value in vars(args).items() if value is not None)
    for key, convert in _TYPES.items():
        if merged.get(key) is not None:
            try:
                merged[key] = convert(merged[key])
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                raise ValidationError(f"bad value for {key}: {merged[key]!r}") from exc
    return merged


def _read_assignment(path):
    """The ``assignment`` of a run report JSON file, or the file's mapping."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # JSON, UTF-8 and nesting errors
        raise InputParseError(f"cannot parse assignment file {path}: {exc}") from exc
    return payload.get("assignment", payload) if isinstance(payload, dict) else payload


def _load_inputs(opts):
    if not opts.get("feeder"):
        raise ValidationError("--feeder is required (flag or config file)")
    feeder = load_feeder(opts["feeder"])
    if not opts.get("profiles"):
        raise ValidationError("--profiles is required (flag or config file)")
    loads = load_profiles(opts["profiles"], feeder)
    return feeder, loads


def _constraints(opts) -> ConstraintConfig:
    return ConstraintConfig(
        delta_max=opts["delta_max"], gamma_low=opts["gamma_low"],
        gamma_upp=opts["gamma_upp"], v_min=opts["v_min"], v_max=opts["v_max"],
        enforce_phase_counts=opts["enforce_phase_counts"])


def _emit(opts, payload: str) -> None:
    path = opts.get("out")
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
        print(f"wrote {path}")
    else:
        print(payload)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    opts = _resolve(args)
    if args.verb != "scale":
        feeder, loads = _load_inputs(opts)
    if args.verb == "optimize":
        ga_cfg = None
        if opts["method"] == "ga":
            ga_cfg = ga.GAConfig(
                population_size=opts["population"], max_fitness_calls=opts["f_calls"],
                rng_seed=opts["seed"], threads=opts["threads"])
        report = harness.cmd_optimize(
            feeder, loads, opts["method"], opts["objective"], _constraints(opts),
            seed=opts["seed"], threads=opts["threads"],
            ga_config=ga_cfg, time_limit_s=opts.get("time_limit"),
            trace_path=opts.get("trace"))
        _emit(opts, report.to_json())
    elif args.verb == "validate":
        assignment = harness.assignment_from_payload(
            feeder, _read_assignment(args.assignment))
        report = harness.cmd_validate(feeder, assignment, loads,
                                      csv_path=opts.get("csv"))
        _emit(opts, json.dumps(report, sort_keys=True, indent=1))
    elif args.verb == "sweep":
        report = harness.cmd_sweep_switches(
            feeder, loads, opts["objective"], opts["grid"], method=opts["method"],
            seed=opts["seed"], constraints=_constraints(opts),
            time_limit_s=opts.get("time_limit", 20.0),
            csv_path=opts.get("csv"))
        _emit(opts, json.dumps(report.__dict__, sort_keys=True, indent=1))
    elif args.verb == "scale":
        trio = []
        for path in args.feeders or []:
            feeder = load_feeder(path)
            profiles = path.replace(".feeder.json", ".profiles.csv")
            trio.append((path, feeder, load_profiles(profiles, feeder)))
        if not trio:
            raise ValidationError("scale needs --feeders")
        report = harness.cmd_scaling(trio, opts["horizons"],
                                     str(opts["methods"]).split(","),
                                     repeats=opts["repeats"],
                                     objective=opts["objective"],
                                     constraints=_constraints(opts),
                                     csv_path=opts.get("csv"))
        _emit(opts, json.dumps(report, sort_keys=True, indent=1))
    elif args.verb == "export-lp":
        prog = miqp.build_program(feeder, loads, _constraints(opts),
                                  opts["objective"])
        path = opts.get("out") or "program.lp"
        lpfile.export_lp(prog, path)
        print(f"wrote {path}")
    elif args.verb == "pf":
        report = harness.cmd_pf(feeder, loads, t=getattr(args, "t", None))
        _emit(opts, json.dumps(report, sort_keys=True, indent=1))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except PhasebalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
