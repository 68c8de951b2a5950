"""Command-line front end.

Five commands: `ml` (point evaluation of the Mittag-Leffler function),
`respond` (material-function sweeps on a grid), `simulate` (stress from
a strain-history file), `fit nutting` (creep-law regression) and
`quasi` (quasi-property extraction). Output is CSV or JSON with numbers
at 15 significant digits so identical invocations produce identical
bytes on any platform.

Exit codes: 0 success, 1 numerical or data failure (one-line
`E_CODE: message` on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Union

import numpy as np

from .errors import FormatError, FrheoError
from .fracops import SignalSeries
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


def _round15(x) -> float:
    # JSON floats go through the same 15-digit funnel as CSV text
    return float(_fmt(x))


def _flag(field: str) -> str:
    return "--lambda" if field == "lam" else f"--{field}"


def ingest_csv(path) -> Union[List[CreepRecord], SignalSeries]:
    """Load a creep-record file (t,stress,strain) or a signal file
    (t,value). Columns are matched by name, case-insensitively, in any
    order; signal grids must be uniform to 1e-9 relative.
    """
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"input file not found: {path}")
    with open(p, newline="", encoding="utf-8-sig") as fh:
        raw = [(i + 1, row) for i, row in enumerate(csv.reader(fh))
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
                if not v > 0.0:
                    raise FormatError(
                        f"{path} line {line}: {n} must be positive, got {v:g}")
            records.append(CreepRecord(**vals))
        return records
    if "t" in col and "value" in col:
        t = np.array([cell(line, row, "t") for line, row in body])
        v = np.array([cell(line, row, "value") for line, row in body])
        if t.size < 2:
            raise FormatError(f"{path}: a signal needs at least 2 rows")
        dt = t[1] - t[0]
        if dt <= 0.0:
            raise FormatError(f"{path} line {body[1][0]}: times must increase")
        for i in range(1, t.size):
            step = t[i] - t[i - 1]
            if abs(step - dt) > 1e-9 * abs(dt):
                raise FormatError(
                    f"{path} line {body[i][0]}: grid step {step:.12g} "
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
        out["lambda" if f.name == "lam" else f.name] = _round15(getattr(args, f.name))
    return out


def _table(names, columns) -> str:
    lines = [",".join(names)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(command: str, params: dict, result: dict, diagnostics: dict) -> str:
    doc = {"command": command, "params": params, "result": result,
           "diagnostics": diagnostics}
    return json.dumps(doc, indent=2) + "\n"


def _columns(values) -> list:
    return [_round15(v) for v in values]


def _cmd_ml(args) -> str:
    try:
        params = MLParams(args.alpha, args.beta)
    except FrheoError as e:
        raise _UsageError(f"{e.code}: {e}") from e
    value = ml_eval(params, args.z)
    if args.format == "json":
        return _json_doc("ml",
                         {"alpha": _round15(args.alpha),
                          "beta": _round15(args.beta),
                          "z": _round15(args.z)},
                         {"value": _round15(value)}, {})
    return _fmt(value) + "\n"


def _cmd_respond(args) -> str:
    model = _build_model(args)
    grid = _build_grid(args)
    resp = _RESPONSE_FN[args.function](model, grid)
    params = _model_params(args)
    params.update(function=args.function, tmin=_round15(args.tmin),
                  tmax=_round15(args.tmax), points=args.points,
                  spacing=args.spacing)
    if resp.kind == "complex":
        names = ("omega", "storage", "loss")
        cols = (resp.abscissae, resp.values.real, resp.values.imag)
    else:
        names = ("t", "value")
        cols = (resp.abscissae, resp.values)
    if args.format == "json":
        result = {n: _columns(c) for n, c in zip(names, cols)}
        return _json_doc("respond", params, result, {})
    return _table(names, cols)


def _cmd_simulate(args) -> str:
    model = _build_model(args)
    series = ingest_csv(args.input)
    if not isinstance(series, SignalSeries):
        raise FormatError(f"{args.input}: simulate expects a t,value signal file")
    stress = simulate_stress(model, series)
    params = _model_params(args)
    params["input"] = args.input
    if args.format == "json":
        result = {"t": _columns(stress.times()), "value": _columns(stress.values)}
        return _json_doc("simulate", params, result, {})
    return _table(("t", "value"), (stress.times(), stress.values))


def _cmd_fit(args) -> str:
    records = ingest_csv(args.input)
    if isinstance(records, SignalSeries):
        raise FormatError(f"{args.input}: fit expects a t,stress,strain file")
    fit = fit_nutting(records)
    if args.format == "json":
        return _json_doc(
            "fit", {"law": args.law, "input": args.input},
            {"psi": _round15(fit.psi), "alpha": _round15(fit.alpha),
             "beta_exp": _round15(fit.beta_exp),
             "rms_log_residual": _round15(fit.rms_log_residual)},
            {"n_points": fit.n_points, "beta_fixed": fit.beta_fixed,
             "alpha_range_violation": fit.alpha_range_violation})
    header = ("psi,alpha,beta_exp,rms_log_residual,n_points,"
              "beta_fixed,alpha_range_violation")
    row = ",".join([_fmt(fit.psi), _fmt(fit.alpha), _fmt(fit.beta_exp),
                    _fmt(fit.rms_log_residual), str(fit.n_points),
                    str(fit.beta_fixed).lower(),
                    str(fit.alpha_range_violation).lower()])
    return header + "\n" + row + "\n"


def _cmd_quasi(args) -> str:
    series = ingest_csv(args.input)
    if not isinstance(series, SignalSeries):
        raise FormatError(f"{args.input}: quasi expects a t,value signal file")
    out = quasi_property(args.stress, series, args.mu)
    if args.format == "json":
        params = {"stress": _round15(args.stress), "mu": _round15(args.mu),
                  "input": args.input}
        result = {"t": _columns(out.times()), "value": _columns(out.values)}
        return _json_doc("quasi", params, result, {})
    return _table(("t", "value"), (out.times(), out.values))


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


def _build_parser() -> argparse.ArgumentParser:
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
        text = args.handler(args)
    except _UsageError as e:
        sys.stderr.write(f"frheo: {e}\n")
        return 2
    except FrheoError as e:
        sys.stderr.write(f"{e.code}: {e}\n")
        return 1
    except OverflowError as e:
        sys.stderr.write(f"E_OVERFLOW: {e}\n")
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
