"""Command-line front end.

Five commands: `ml` (point evaluation of the Mittag-Leffler function),
`respond` (material-function sweeps on a grid), `simulate` (stress from
a strain-history file), `fit nutting` (creep-law regression) and
`quasi` (quasi-property extraction). Each returns raw values; one
renderer writes them as CSV or JSON with numbers at 15 significant
digits so identical invocations produce identical bytes on any platform.

Exit codes: 0 success, 1 numerical, data or output-file failure
(one-line `E_CODE: message` on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
from pathlib import Path
from typing import List, Union

import numpy as np

from .errors import FormatError, FrheoError
from .fracops import SignalSeries, _grid_break
from .models import (ClassicalKelvin, ClassicalMaxwell, FracKelvinVoigt,
                     FracMaxwell, FracZener, PoyntingThomson, SpringPot,
                     ThreeParamMaxwell, complex_modulus, creep_compliance,
                     relaxation_modulus, simulate_stress)
from .nutting import CreepRecord, fit_nutting, quasi_property
from .special import MLParams, ml_eval

_MODEL_SPECS = {
    "springpot": SpringPot,
    "fmaxwell": FracMaxwell,
    "maxwell3": ThreeParamMaxwell,
    "fkelvinvoigt": FracKelvinVoigt,
    "fzener": FracZener,
    "poynting": PoyntingThomson,
    "cmaxwell": ClassicalMaxwell,
    "ckelvin": ClassicalKelvin,
}

_RESPONSE_FN = {
    "relaxation": relaxation_modulus,
    "creep": creep_compliance,
    "complex": complex_modulus,
}


class _UsageError(Exception):
    """Bad flags or parameter combinations; maps to exit code 2."""


def _fmt(x) -> str:
    return f"{float(x):.15g}"


def _flag(field: str) -> str:
    return "--lambda" if field == "lam" else f"--{field}"


def _bulk_signal(data: bytes):
    """The signal of a plain t,value file's bytes, parsed in bulk, or None.

    Plain means UTF-8 without quotes or carriage returns, the header on
    the first line, every needed cell a number and a uniform grid; the
    values are then those of the row scan in ingest_csv. Anything else
    returns None, and the row scan names the offending line.
    """
    end = data.find(b"\n")
    if (end < 0 or b'"' in data or b"\r" in data
            or data.count(b"\n", end) == len(data) - end):  # no rows
        return None
    try:
        header = data[:end].decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    col = {c.strip().lower(): i for i, c in enumerate(header.split(","))}
    if "t" not in col or "value" not in col or "stress" in col and "strain" in col:
        return None
    try:
        t, v = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, skiprows=1,
                          usecols=(col["t"], col["value"]), ndmin=2, unpack=True,
                          encoding="utf-8")
    except ValueError:  # UnicodeDecodeError included
        return None
    if t.size < 2 or _grid_break(t) is not None:
        return None
    return SignalSeries(t[0], t[1] - t[0], v)


def ingest_csv(path) -> Union[List[CreepRecord], SignalSeries]:
    """Load a UTF-8 creep-record (t,stress,strain) or signal (t,value) file,
    columns matched by name in any order and case. A signal's times must be
    finite, increasing and uniform: dt = t1 - t0 > 0, every step within
    1e-9 * dt of dt."""
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"input file not found: {path}")
    try:
        data = p.read_bytes()
    except OSError as e:
        raise FormatError(f"{path}: cannot be read ({e.strerror})") from None
    series = _bulk_signal(data)
    if series is not None:
        return series
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    raw = [(i + 1, row) for i, row in enumerate(csv.reader(io.StringIO(text, newline="")))
           if row and any(cell.strip() for cell in row)]
    if not raw:
        raise FormatError(f"{path}: no header row")
    header = [c.strip().lower() for c in raw[0][1]]
    col = {name: i for i, name in enumerate(header)}
    body = raw[1:]
    if not body:
        raise FormatError(f"{path}: no data rows")

    def cell(line, row, name):
        idx = col[name]
        if idx >= len(row):
            raise FormatError(f"{path} line {line}: missing {name} cell")
        text = row[idx].strip()
        try:
            v = float(text)
        except ValueError:
            raise FormatError(
                f"{path} line {line}: non-numeric {name} value {text!r}") from None
        return v

    if "t" in col and "stress" in col and "strain" in col:
        records = []
        for line, row in body:
            vals = {n: cell(line, row, n) for n in ("t", "stress", "strain")}
            for n, v in vals.items():
                if not 0.0 < v < np.inf:
                    raise FormatError(
                        f"{path} line {line}: {n} must be a positive real, got {v:g}")
            records.append(CreepRecord(**vals))
        return records
    if "t" in col and "value" in col:
        t = [cell(line, row, "t") for line, row in body]
        v = [cell(line, row, "value") for line, row in body]
        if len(t) < 2:
            raise FormatError(f"{path}: a signal needs at least 2 rows")
        for k in (0, 1):  # the first step needs two finite times
            if not np.isfinite(t[k]):
                raise FormatError(f"{path} line {body[k][0]}: time must be finite, got {t[k]:g}")
        dt, i = t[1] - t[0], _grid_break(t)
        if i == 1:
            why = "times must increase" if dt <= 0.0 else f"grid step {dt:g} is not finite"
            raise FormatError(f"{path} line {body[1][0]}: {why}")
        if i is not None:
            raise FormatError(
                f"{path} line {body[i][0]}: grid step {t[i] - t[i - 1]:.12g} "
                f"breaks uniform spacing {dt:.12g}")
        return SignalSeries(t[0], dt, v)
    raise FormatError(
        f"{path}: header must contain t,stress,strain or t,value "
        f"(got {','.join(header)})")


def _build_model(args):
    if getattr(args, "model", None) is None:
        raise _UsageError("--model is required")
    cls = _MODEL_SPECS[args.model]
    # flags follow the dataclass field order, in messages and in JSON params
    kwargs = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)}
    missing = [_flag(f) for f, v in kwargs.items() if v is None]
    if missing:
        raise _UsageError(f"model {args.model} needs {' '.join(missing)}")
    try:
        return cls(**kwargs)
    except FrheoError as e:
        raise _UsageError(f"{e.code}: {e}") from e


def _build_grid(args) -> np.ndarray:
    missing = [f for f in ("tmin", "tmax") if getattr(args, f) is None]
    if missing:
        raise _UsageError("need " + " ".join(f"--{f}" for f in missing))
    tmin, tmax, points = args.tmin, args.tmax, args.points
    if points < 1:
        raise _UsageError(f"--points must be at least 1, got {points}")
    if points == 1:
        if tmin != tmax:
            raise _UsageError("--points 1 requires --tmin equal to --tmax")
        return np.array([tmin])
    if not tmin < tmax:
        raise _UsageError(f"need --tmin < --tmax, got {tmin} and {tmax}")
    if args.spacing == "log":
        if tmin <= 0.0:
            raise _UsageError("log spacing needs a positive --tmin")
        return np.geomspace(tmin, tmax, points)
    return np.linspace(tmin, tmax, points)


def _model_params(args) -> dict:
    out = {"model": args.model}
    for f in dataclasses.fields(_MODEL_SPECS[args.model]):
        out[_flag(f.name)[2:]] = getattr(args, f.name)
    return out


def _table(names, columns) -> str:
    # one %-format over every cell, row by row: the bytes of _fmt per cell
    cells = np.column_stack([np.asarray(c, dtype=float) for c in columns]).ravel().tolist()
    rows = (",".join(["%.15g"] * len(names)) + "\n") * (len(cells) // len(names))
    return ",".join(names) + "\n" + rows % tuple(cells)


def _round15(v):
    # JSON floats go through the same 15-digit funnel as CSV text, arrays
    # element by element; ints, strings and bools pass unchanged
    if isinstance(v, np.ndarray):
        return [float(_fmt(x)) for x in v]
    return float(_fmt(v)) if isinstance(v, float) else v


def _render(command: str, fmt: str, params: dict, result: dict, diagnostics: dict) -> str:
    """Every output byte of a command. JSON holds the four parts, params and
    result through _round15. CSV follows the result: arrays make a table, one
    scalar a bare number, several a header and one row, diagnostics last."""
    if fmt == "json":
        doc = {"command": command,
               "params": {k: _round15(v) for k, v in params.items()},
               "result": {k: _round15(v) for k, v in result.items()},
               "diagnostics": diagnostics}
        return json.dumps(doc, indent=2) + "\n"
    values = list(result.values())
    if isinstance(values[0], np.ndarray):
        return _table(tuple(result), values)
    if len(values) == 1:
        return _fmt(values[0]) + "\n"
    row = {**result, **diagnostics}  # a non-float cell takes its JSON spelling
    cells = (_fmt(v) if isinstance(v, float) else json.dumps(v) for v in row.values())
    return ",".join(row) + "\n" + ",".join(cells) + "\n"


def _cmd_ml(args):
    try:
        p = MLParams(args.alpha, args.beta)
    except FrheoError as e:
        raise _UsageError(f"{e.code}: {e}") from e
    return ({"alpha": args.alpha, "beta": args.beta, "z": args.z},
            {"value": ml_eval(p, args.z)}, {})


def _cmd_respond(args):
    model = _build_model(args)
    resp = _RESPONSE_FN[args.function](model, _build_grid(args))
    params = _model_params(args)
    params.update(function=args.function, tmin=args.tmin, tmax=args.tmax,
                  points=args.points, spacing=args.spacing)
    x, v = resp.abscissae, resp.values
    result = ({"omega": x, "storage": v.real, "loss": v.imag} if resp.kind == "complex"
              else {"t": x, "value": v})
    return params, result, {}


def _cmd_simulate(args):
    model = _build_model(args)
    series = ingest_csv(args.input)
    if not isinstance(series, SignalSeries):
        raise FormatError(f"{args.input}: simulate expects a t,value signal file")
    stress = simulate_stress(model, series)
    return ({**_model_params(args), "input": args.input},
            {"t": stress.times(), "value": stress.values}, {})


def _cmd_fit(args):
    records = ingest_csv(args.input)
    if isinstance(records, SignalSeries):
        raise FormatError(f"{args.input}: fit expects a t,stress,strain file")
    fit = fit_nutting(records)
    return ({"law": args.law, "input": args.input},
            {"psi": fit.psi, "alpha": fit.alpha, "beta_exp": fit.beta_exp,
             "rms_log_residual": fit.rms_log_residual},
            {"n_points": fit.n_points, "beta_fixed": fit.beta_fixed,
             "alpha_range_violation": fit.alpha_range_violation})


def _cmd_quasi(args):
    series = ingest_csv(args.input)
    if not isinstance(series, SignalSeries):
        raise FormatError(f"{args.input}: quasi expects a t,value signal file")
    out = quasi_property(args.stress, series, args.mu)
    return ({"stress": args.stress, "mu": args.mu, "input": args.input},
            {"t": out.times(), "value": out.values}, {})


def _add_output_flags(p):
    p.add_argument("--output", help="write here instead of standard output")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_model_flags(p):
    p.add_argument("--model", choices=sorted(_MODEL_SPECS))
    fields = (f.name for cls in _MODEL_SPECS.values() for f in dataclasses.fields(cls))
    for f in dict.fromkeys(fields):
        p.add_argument(_flag(f), dest=f, type=float)


def _add_grid_flags(p):
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process. Reuse is safe:
    parse_args returns a fresh Namespace on every call, nothing mutates
    the defaults or handlers after this build, and argparse reads the
    terminal width when it formats a usage, help or error message, not
    here, so those bytes do not depend on which call built the parser."""
    parser = argparse.ArgumentParser(
        prog="frheo",
        description="Fractional-calculus viscoelasticity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    ml_p = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    ml_p.add_argument("--alpha", type=float, required=True)
    ml_p.add_argument("--beta", type=float, default=1.0)
    ml_p.add_argument("--z", type=float, required=True)
    _add_output_flags(ml_p)
    ml_p.set_defaults(handler=_cmd_ml)

    re_p = sub.add_parser("respond", help="material-function sweep on a grid")
    _add_model_flags(re_p)
    re_p.add_argument("--function", required=True,
                      choices=("relaxation", "creep", "complex"))
    _add_grid_flags(re_p)
    _add_output_flags(re_p)
    re_p.set_defaults(handler=_cmd_respond)

    si_p = sub.add_parser("simulate", help="stress from a strain-history file")
    _add_model_flags(si_p)
    si_p.add_argument("--input", required=True)
    _add_output_flags(si_p)
    si_p.set_defaults(handler=_cmd_simulate)

    fi_p = sub.add_parser("fit", help="fit a material law to creep records")
    fi_p.add_argument("law", choices=("nutting",))
    fi_p.add_argument("--input", required=True)
    _add_output_flags(fi_p)
    fi_p.set_defaults(handler=_cmd_fit)

    qu_p = sub.add_parser("quasi", help="stress over fractional strain rate")
    qu_p.add_argument("--input", required=True)
    qu_p.add_argument("--stress", type=float, required=True)
    qu_p.add_argument("--mu", type=float, required=True)
    _add_output_flags(qu_p)
    qu_p.set_defaults(handler=_cmd_quasi)
    return parser


def run(argv=None) -> int:
    """Parse argv, execute, and return the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse already printed the diagnostic
        return 0 if e.code in (0, None) else int(e.code)
    try:
        text = _render(args.command, args.format, *args.handler(args))
    except _UsageError as e:
        sys.stderr.write(f"frheo: {e}\n")
        return 2
    except (FrheoError, OverflowError) as e:  # a bare OverflowError has no code
        sys.stderr.write(f"{getattr(e, 'code', 'E_OVERFLOW')}: {e}\n")
        return 1
    if not args.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        sys.stderr.write(f"E_IO: {args.output}: {e.strerror}\n")
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
