"""Command-line front end: parameter parsing, sweep orchestration, CSV/JSON
emission, and the differential validation suite.

Output is deterministic: rows are ordered by sweep index regardless of the
worker pool, floats are printed with 17 significant digits, and every table
carries '#'-prefixed metadata lines echoing the full parameter set.

Exit codes: 0 ok, 2 parameter error, 3 validation failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import astuple

import numpy as np

from . import validation
from .correlations import (_pair_concurrences, _ring_distance_pairs, _two_tangles,
                           chirality_expectation, density_matrix, one_tangle)
from .model import N_MAX, N_MIN, ChainParams, ParameterError
from .otto import CycleMode, CycleSpec, efficiency_sweep, size_scaling
from .response import FieldTag, _kubo
from .semiclassical import (ScConfig, entropy_sc, free_energy_sc,
                            efficiency_sc, perturbation_valid)
from .spectra import ContinuationError, DiagonalizationError, diagonalize_params
from .thermal import TemperatureError, gibbs

log = logging.getLogger("ottochain")

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

SWEEP_VARS = ("t", "e-field", "b-field", "n")


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"sweep must be var:start:stop:count, got {text!r}")
    var, start, stop, count = parts
    if var not in SWEEP_VARS:
        raise argparse.ArgumentTypeError(
            f"sweep variable {var!r} not one of {SWEEP_VARS}")
    try:
        start_f, stop_f, count_i = float(start), float(stop), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not (np.isfinite(start_f) and np.isfinite(stop_f)):
        raise argparse.ArgumentTypeError(f"sweep bounds must be finite, got {text!r}")
    if var == "n" and not all(b.is_integer() and N_MIN <= b <= N_MAX for b in (start_f, stop_f)):
        raise argparse.ArgumentTypeError(
            f"ring-size sweep bounds must be integers in [{N_MIN}, {N_MAX}], got {text!r}")
    if count_i < 1:
        raise argparse.ArgumentTypeError("sweep count must be >= 1")
    return var, start_f, stop_f, count_i


def _sweep_values(spec) -> np.ndarray:
    var, start, stop, count = spec
    if var == "n":
        return np.unique(np.linspace(start, stop, count).round().astype(int))
    return np.linspace(start, stop, count)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=4, help="ring size")
    common.add_argument("--j1", type=float, default=1.0)
    common.add_argument("--j2", type=float, default=-1.0)
    common.add_argument("--b-field", type=float, default=1.0)
    common.add_argument("--e-field", type=float, default=1.0,
                        help="electric coupling (high/driving field for cycles)")
    common.add_argument("--e-field-low", type=float, default=3.5,
                        help="low-side field of the Otto cycle")
    common.add_argument("--t", type=float, default=10.0, help="temperature")
    common.add_argument("--t-hot", type=float, default=30.0)
    common.add_argument("--t-cold", type=float, default=10.0)
    common.add_argument("--mode", choices=("quantum", "thermo"), default="thermo",
                        help="Otto cycle of `otto --sweep n`; the e-field "
                             "sweep always reports both cycles")
    common.add_argument("--sweep", action="append", type=_parse_sweep,
                        default=None, metavar="VAR:START:STOP:COUNT")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--config", default=None,
                        help="JSON file of flag defaults (flags override)")

    parser = argparse.ArgumentParser(
        prog="ottochain",
        description="Thermodynamics and Otto cycles of a chiral spin ring")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "spectrum": "energies and sector labels per parameter point",
        "tangles": "tangles, concurrences and chirality along a sweep",
        "susceptibility": "magnetic and electric susceptibilities versus T",
        "otto": "cycle efficiency sweep (field grid or ring sizes)",
        "semiclassical": "perturbative entropy grid and cycle efficiency",
        "validate": "analytic-versus-numeric differential suite",
    }
    # subparsers parse into a fresh namespace, so config-file defaults must
    # be applied to each of them, not to the root parser
    parser.subcommands = {name: sub.add_parser(name, parents=[common],
                                               help=text)
                          for name, text in helps.items()}
    return parser


def _config_value(action, key: str, value):
    """A config file's `value` for the flag of `action`, with the checks
    argparse gives the flag: a string goes through the flag's type as if
    typed after it, a number suits only a numeric flag (an integer only an
    integer one), and the result must be one of the flag's choices."""
    if isinstance(value, str) and action.type is not None:
        try:
            value = action.type(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParameterError(f"config key {key!r}: {exc}") from exc
    elif isinstance(value, bool) or not isinstance(
            value, {int: int, float: (int, float), None: str}.get(action.type, ())):
        raise ParameterError(f"config key {key!r} cannot take {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ParameterError(f"config key {key!r} must be one of {action.choices}, "
                             f"got {value!r}")
    return value


def _apply_config(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read config {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise ParameterError(f"config {args.config} is not a JSON object")
        actions = {a.dest: a for a in parser.subcommands[args.command]._actions
                   if a.nargs != 0}     # not --help, which takes no value
        mapped = {}
        for key, value in raw.items():
            dest = key.replace("-", "_")
            if dest not in actions:
                raise ParameterError(f"unknown config key {key!r}")
            if dest == "sweep":     # one sweep or a list of them, like repeated flags
                mapped[dest] = [_config_value(actions[dest], key, v)
                                for v in (value if isinstance(value, list) else [value])]
            else:
                mapped[dest] = _config_value(actions[dest], key, value)
        for sub in parser.subcommands.values():
            sub.set_defaults(**mapped)
        args = parser.parse_args(argv)
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    return args


def _params(args) -> ChainParams:
    return ChainParams(args.n, args.j1, args.j2, args.b_field, args.e_field)


def _meta(args) -> dict:
    keys = ("command", "n", "j1", "j2", "b_field", "e_field", "e_field_low",
            "t", "t_hot", "t_cold", "mode", "format", "jobs")
    meta = {k: getattr(args, k) for k in keys}
    if args.sweep:
        meta["sweep"] = [":".join(str(x) for x in s) for s in args.sweep]
    return meta


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def _json_value(value):
    """A table value as strict JSON takes it: a numpy scalar as its Python
    value, and a non-finite float as None, written null."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_table(meta: dict, header: list, rows: list, fmt: str, out_path) -> None:
    if fmt == "json":
        payload = {"meta": {k: _json_value(v) for k, v in meta.items()},
                   "rows": [{h: _json_value(v) for h, v in zip(header, row)}
                            for row in rows]}
        text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    else:
        lines = [f"# {k} = {v}" for k, v in meta.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    log.info("%s: %d rows to %s", meta["command"], len(rows),
             out_path or "stdout")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_rows(fn, values, jobs: int) -> list:
    """fn of every value, in order, on at most `jobs` threads, and on no
    more than there are values or CPUs available to the process."""
    workers = min(jobs, len(values), _cpus())
    if workers > 1:
        # deferred: the thread pool's imports cost 0.4 MB in every process
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, values))
    return [fn(v) for v in values]


def _single_sweep(args, allowed, default_var, default_value):
    """The one swept variable of a command, or a single-point pseudo-sweep."""
    sweeps = args.sweep or []
    chosen = [s for s in sweeps if s[0] in allowed]
    if len(chosen) > 1:
        raise ParameterError(
            f"command supports one sweep over {allowed}, got {len(chosen)}")
    if chosen:
        return chosen[0][0], _sweep_values(chosen[0])
    return default_var, np.array([default_value])


def cmd_spectrum(args):
    var, values = _single_sweep(args, ("e-field", "b-field"), "e-field",
                                args.e_field)
    field = "e_field" if var == "e-field" else "b"

    def one(value):
        spec = diagonalize_params(_params(args).replace(**{field: float(value)}))
        return [(float(value), k, spec.energies[k], int(spec.sz_sector[k]))
                for k in range(spec.dim)]

    rows = [r for chunk in _map_rows(one, values, args.jobs) for r in chunk]
    return [var, "level", "energy", "sz_sector"], rows


def cmd_tangles(args):
    var, values = _single_sweep(args, ("t", "e-field"), "t", args.t)
    params = _params(args)
    pairs = _ring_distance_pairs(params.n)
    # a temperature sweep shares one spectrum
    spec = diagonalize_params(params) if var == "t" else None

    def one(value):
        if var == "t":
            rho = density_matrix(gibbs(spec, float(value)))
        else:
            p = params.replace(e_field=float(value))
            rho = density_matrix(gibbs(diagonalize_params(p), args.t))
        # every distance in one stacked Wootters pass
        cs = _pair_concurrences(rho.buffer, rho.layout, params.n)
        return ([float(value), one_tangle(rho), float(_two_tangles(cs, params.n))]
                + cs.tolist() + [chirality_expectation(rho)])

    header = ([var, "tau1", "tau2"]
              + [f"c_r{r}" for r, _ in pairs] + ["chirality"])
    return header, _map_rows(one, values, args.jobs)


def cmd_susceptibility(args):
    var, values = _single_sweep(args, ("t",), "t", args.t)
    params = _params(args)
    # every temperature shares one spectrum
    spec = diagonalize_params(params)

    def one(value):
        t = float(value)
        return [t] + [_kubo(spec, field, t)
                      for field in (FieldTag.MAGNETIC, FieldTag.ELECTRIC)]

    return ["t", "chi_b", "chi_e"], _map_rows(one, values, args.jobs)


def cmd_otto(args):
    var, values = _single_sweep(args, ("e-field", "n"), "e-field", args.e_field)
    p_high = args.e_field if var == "n" else float(values[-1])
    spec = CycleSpec(_params(args), args.t_hot, args.t_cold, p_high,
                     args.e_field_low, CycleMode(args.mode))
    if var == "n":
        return ["n", "eta", "carnot"], [
            (n, eta, 1.0 - args.t_cold / args.t_hot)
            for n, eta in size_scaling(spec, list(values))]
    # the columns of a SweepRow, in its order
    return (["e_field", "ratio", "eta_quantum", "eta_thermo", "tau2_hot",
             "tau1_hot", "quantum_is_engine", "thermo_is_engine", "carnot"],
            [astuple(r) for r in efficiency_sweep(spec, list(values))])


def cmd_semiclassical(args):
    cfg = ScConfig(args.j1, args.b_field)
    sweeps = args.sweep or []
    t_sweep = next((s for s in sweeps if s[0] == "t"), None)
    p_sweep = next((s for s in sweeps if s[0] == "e-field"), None)
    p_values = _sweep_values(p_sweep) if p_sweep else np.array([args.e_field])

    if t_sweep is not None:
        t_values = _sweep_values(t_sweep)
        points = [(t, p) for p in p_values for t in t_values]

        def one(point):
            t, p = float(point[0]), float(point[1])
            s = entropy_sc(t, p, cfg)
            return [t, p, free_energy_sc(t, p, cfg), s,
                    s >= 0.0 and perturbation_valid(t, p, cfg)]

        return (["t", "e_field", "f_sc", "s_sc", "valid"],
                _map_rows(one, points, args.jobs))

    def one(p):
        return [float(p), efficiency_sc(args.t_cold, args.t_hot, float(p),
                                        args.e_field_low, cfg)]

    return ["e_field", "eta_sc"], _map_rows(one, p_values, args.jobs)


def cmd_validate(args):
    results = validation.run_all()
    for r in results:
        log.info("%-35s max dev %.3e (tol %.0e) %s",
                 r.name, r.max_deviation, r.tolerance,
                 "pass" if r.passed else "FAIL")
    return (["check", "max_deviation", "tolerance", "passed"],
            [(r.name, r.max_deviation, r.tolerance, r.passed) for r in results])


# each command returns the (header, rows) of its table
COMMANDS = {
    "spectrum": cmd_spectrum,
    "tangles": cmd_tangles,
    "susceptibility": cmd_susceptibility,
    "otto": cmd_otto,
    "semiclassical": cmd_semiclassical,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("OTTO_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
        header, rows = COMMANDS[args.command](args)
        write_table(_meta(args), header, rows, args.format, args.out)
    except (ParameterError, TemperatureError, ValueError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (DiagonalizationError, ContinuationError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.command == "validate" and not all(passed for *_, passed in rows):
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
