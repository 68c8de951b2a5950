"""Command-line front end.

Five commands: `ml` (point evaluation of the Mittag-Leffler function),
`respond` (material-function sweeps on a grid), `simulate` (stress from
a strain-history file), `fit nutting` (creep-law regression) and
`quasi` (quasi-property extraction). Each returns raw values; one
renderer writes them as CSV or JSON with numbers at 15 significant
digits so identical invocations produce identical bytes on any platform.
Every number is the text of "%.15g"; tables of _BULK_MIN_CELLS cells or
more get those bytes from an exact numpy writer (see _table), JSON
arrays the floats of the same cells.

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


_RECORD_COLUMNS = ("t", "stress", "strain")


def _fmt(x) -> str:
    return f"{float(x):.15g}"


def _flag(field: str) -> str:
    return "--lambda" if field == "lam" else f"--{field}"


def _bulk_ingest(data: bytes):
    """The signal or creep records of a plain file's bytes, parsed in bulk,
    or None.

    Plain means UTF-8 without quotes or carriage returns, the header on
    the first line and every needed cell a number; a signal's grid must be
    uniform, and every cell of a creep record a positive real. The values
    are then those of the row scan in ingest_csv. Anything else returns
    None, and the row scan names the offending line.
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
    if all(c in col for c in _RECORD_COLUMNS):
        names = _RECORD_COLUMNS
    elif "t" in col and "value" in col:
        names = ("t", "value")
    else:
        return None
    try:
        cells = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, skiprows=1,
                           usecols=[col[c] for c in names], ndmin=2, unpack=True,
                           encoding="utf-8")
    except ValueError:  # UnicodeDecodeError included
        return None
    if names == _RECORD_COLUMNS:
        if not ((cells > 0.0) & (cells < np.inf)).all():
            return None
        return [CreepRecord(*row) for row in cells.T.tolist()]
    t, v = cells
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
    bulk = _bulk_ingest(data)
    if bulk is not None:
        return bulk
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

    if all(n in col for n in _RECORD_COLUMNS):
        records = []
        for line, row in body:
            vals = {n: cell(line, row, n) for n in _RECORD_COLUMNS}
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


# ---------------------------------------------------- exact bulk %.15g writer
#
# Each cell gets a digit row of 28 bytes (seven 32-bit words): "0000", a
# pad "0", the 15 digits of its significand (digit j at column 5 + j), then
# "e", the exponent sign, its hundreds digit (0 below 100), tens and units.
# Its text row, also 28 bytes, is read off the digit rows shifted by s
# columns (column c of the shifted view holds digit c - 1 - s), under
# byte masks that depend only on the %g layout: column 0 the sign, the
# integer digits at shift 0, the point, the fraction digits at shift 1
# ("0." and its zeros at shift 1 - q below 1), the exponent, and the
# separator in the last column. Unused bytes are 0 and fall out of the
# final compaction.

_WIDTH = 28
_BULK_MIN_CELLS = 1024
_CHUNK_CELLS = 4096
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles


def _words(quads) -> np.ndarray:
    # byte quadruples as native 32-bit words, so one column write fills four bytes
    quads = np.asarray(quads)
    return np.ascontiguousarray(quads, dtype=np.uint8).view(np.uint32).reshape(quads.shape[:-1])


def _layout_masks():
    """Byte masks of the text row for each (kind, P, lim): kind 0 fixed
    notation with exponent q >= 0, 1 scientific (laid out as q = 0), 2
    fixed with q < 0; P the point's column; lim the first column past the
    last digit kept, so trailing zeros and a bare point fall away."""
    c = np.arange(_WIDTH)
    kind, P, lim = np.ix_(range(3), range(17), range(22))
    kind, P, lim = kind[..., None], P[..., None], lim[..., None]
    keep = (c >= 1) & (c < lim)
    whole = keep & (c < P) & (kind == 0) | (kind == 1) & (c == 1)
    frac = keep & ((c > P) | (kind == 2) & (c < P)) | (kind == 1) & (c >= 17) & (c <= 21)
    point = keep & (c == P)
    return [np.ascontiguousarray(np.broadcast_to(m, (3, 17, 22, _WIDTH)), dtype=np.uint8)
            .reshape(-1, _WIDTH) * v for m, v in ((whole, 255), (frac, 255), (point, 46))]


@functools.cache
def _tables():
    """The writer's constant tables, built on its first call."""
    two = np.stack([np.repeat(np.arange(10), 10), np.tile(np.arange(10), 10)], -1)  # 00..99
    tz2 = (two[:, 1] == 0) * (1 + (two[:, 0] == 0))  # their trailing zeros, 2 for 00
    four = np.empty((100, 100, 4), dtype=np.uint8)  # 0000..9999
    four[..., :2] = 48 + two[:, None]
    four[..., 2:] = 48 + two
    low, high = np.tile(tz2, 100), np.repeat(tz2, 100)  # trailing zeros of each pair
    e = np.arange(-300, 301)
    ae, pad = np.abs(e), 0 * e
    whole, frac, point = _layout_masks()
    return dict(
        digits4=_words(four).ravel(),
        tz4=np.where(low < 2, low, 2 + high).astype(np.int8),  # of 0000..9999
        exp_head=_words(np.stack([pad + 101, np.where(e < 0, 45, 43),
                                  np.where(ae >= 100, 48 + ae // 100, 0),
                                  48 + ae // 10 % 10], -1)),
        exp_tail=_words(np.stack([48 + ae % 10, pad, pad, pad], -1)),
        zeros=_words(list(b"0000"))[()],
        whole=whole, frac=frac, point=point,
    )


@functools.cache
def _pow10(k: int):
    """10**k as hi + lo: hi the correctly rounded double, lo the correctly
    rounded remainder, both from exact int/int division; hi also split in
    Veltkamp halves of at most 26 bits."""
    num, den = 10**max(k, 0), 10**max(-k, 0)
    hi = num / den
    p, q = hi.as_integer_ratio()
    c = hi * _SPLIT
    hh = c - (c - hi)
    return hi, hh, hi - hh, (num * q - p * den) / (den * q)


def _significands(x: np.ndarray):
    """(d, e, bulk) per cell: d the 15-digit integer of |x| rounded at 15
    significant digits, exact in a double, and e its decimal exponent,
    where bulk; d = 0 where not. See _table for why d is exact."""
    a = np.abs(x)
    with np.errstate(all="ignore"):
        bulk = (a > 1e-280) & (a < 1e280)
        a = np.where(bulk, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.intp)
        k0 = 14 - int(e.max())  # powers 10**k for k = 14 - e, from k0 up
        p10 = np.array([_pow10(k) for k in range(k0, 15 - int(e.min()))]).T.copy()
        hi, hh, hl, lo = (t.take(14 - k0 - e) for t in p10)
        # y = a * 10**k as p + err + a*lo; Dekker's product makes err exact
        c = a * _SPLIT
        ah = c - (c - a)
        al = a - ah
        p = a * hi
        err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
        r = np.rint(p)
        f = (p - r) + (err + a * lo)  # y - r, off by about 1e-16
        d = r + np.rint(f)
        # keep y >= 1e14 (log10 did not overshoot), d <= 1e15 and y clear of a tie
        bulk &= (np.abs(np.abs(f) - 0.5) > 1e-9) & ((r - 1e14) + f >= 0.0) & (d <= 1e15)
    d = np.where(bulk, d, 0.0)
    top = d == 1e15
    d[top] = 1e14
    e += top
    return d, e, bulk


def _digit_rows(d: np.ndarray, e: np.ndarray):
    """The digit rows of _significands' cells as one flat byte array with
    a pad row on either side, and nz, the digits left once trailing zeros
    are stripped (-1 for d = 0)."""
    tb = _tables()
    hi8 = np.floor(d / 1e8)  # exact: d/1e8 stays below the next integer by 1e-8
    g0, g1 = np.divmod(hi8.astype(np.intp), 10000)
    g2, g3 = np.divmod((d - hi8 * 1e8).astype(np.intp), 10000)
    tz4 = tb["tz4"]  # the first group is at least 100 unless d = 0
    nz = 15 - (tz4[g3] + (g3 == 0) * (tz4[g2] + (g2 == 0) * (tz4[g1] + (g1 == 0) * tz4[g0])))
    rows = np.empty((d.size + 2, 7), dtype=np.uint32)
    rows[:, 0] = tb["zeros"]
    rows[0] = rows[-1] = tb["zeros"]
    for j, g in enumerate((g0, g1, g2, g3), 1):
        rows[1:-1, j] = tb["digits4"][g]
    rows[1:-1, 5] = tb["exp_head"][e + 300]
    rows[1:-1, 6] = tb["exp_tail"][e + 300]
    return rows.view(np.uint8).ravel(), nz


def _bulk_cells(x: np.ndarray, m: int) -> bytes:
    """The bytes of "%.15g" % v for each cell v of the flat row-major x,
    cells joined by "," within a row of m and by "\\n" after it."""
    tb = _tables()
    n = x.size
    d, e, bulk = _significands(x)
    flat, nz = _digit_rows(d, e)

    def shifted(s):
        return flat[_WIDTH + 4 - s:][:n * _WIDTH].reshape(n, _WIDTH)

    sci = (e < -4) | (e > 14)
    q = np.where(sci, 0, e)
    neg = q < 0
    P = np.where(neg, 2, q + 2)
    lim = np.where(neg, 2 - q + nz, np.where(nz > q + 1, nz + 2, P))
    lay = ((sci + 2 * neg) * 17 + P) * 22 + lim
    out = tb["whole"].take(lay, axis=0)
    out &= shifted(0)
    out |= tb["point"].take(lay, axis=0)
    frac = tb["frac"].take(lay, axis=0)
    below = np.flatnonzero(neg)  # "0." and its zeros: the digits sit at shift 1 - q
    head = flat[(below * _WIDTH + _WIDTH + 3 + q[below])[:, None] + np.arange(_WIDTH)]
    head &= frac[below]
    frac &= shifted(1)
    out |= frac
    out[below] = head | tb["point"].take(lay[below], axis=0)
    out[:, 0] = np.signbit(x) * 45
    out[:, -1] = 44
    out.reshape(-1, m, _WIDTH)[:, -1, -1] = 10
    for i in np.flatnonzero(~bulk & (x != 0.0)).tolist():  # the rest, one %-format each
        s = b"%.15g" % x[i] + (b"\n" if i % m == m - 1 else b",")
        out[i] = 0
        out[i, :len(s)] = np.frombuffer(s, dtype=np.uint8)
    return out[out != 0].tobytes()


def _cells(values: np.ndarray) -> List[str]:
    """Every cell of a (rows, m) float array as "%.15g", "," between the
    cells of a row and "\\n" after each row, in pieces to be joined."""
    rows, m = values.shape
    if values.size < _BULK_MIN_CELLS:
        return [((",".join(["%.15g"] * m) + "\n") * rows) % tuple(values.ravel().tolist())]
    step = max(1, _CHUNK_CELLS // m)
    return [_bulk_cells(values[i:i + step].ravel(), m).decode("ascii")
            for i in range(0, rows, step)]


def _table(names, columns) -> str:
    """A CSV table: the header, then each row's cells as _fmt gives them.

    Below _BULK_MIN_CELLS cells one %-format writes every cell. From there
    up, a numpy writer gives the same bytes in chunks of _CHUNK_CELLS cells:
    "%.15g" asks CPython's dtoa for one digit more than its double quick
    path serves, so each cell takes the bignum path, about 0.5-0.7 us. On a
    2-core x86-64 virtual machine (CPython 3.11, numpy 2.4) the bulk writer
    took 0.27 ms for 108 cells against 0.08 ms, broke even at about 600-700
    cells, and took 0.72 of the %-format's time at 1024 cells, 0.48 at 8000
    and 0.36 at 32000 (median of 60 alternating runs). Its tables cost
    about 1 ms on the first bulk call of a process.

    Why the bulk bytes are exact: for 1e-280 < |x| < 1e280, e = floor(log10 |x|)
    and y = |x| * 10**(14 - e) is formed as p + err + |x|*lo, where 10**(14 - e)
    = hi + lo from exact integer division, p = |x|*hi rounded and err its
    exact error (Dekker's product of Veltkamp-split factors). So the
    fraction y - rint(p) is known to about 1e-16, and the 15-digit integer
    d = round(y) is taken only where that fraction lies more than 1e-9 from
    1/2, d <= 10**15 (10**15 itself is 10**14 one decade up) and y >= 10**14
    (log10 may overshoot just below a power of ten). Every other nonzero
    cell -- NaN, infinities, magnitudes outside that range, cells near a
    tie, exact ties such as dyadic values of 16 or more digits -- takes
    "%.15g" on its own; zeros print in bulk as "0" and "-0". The digits then
    follow %g: fixed notation for -4 <= exponent < 15, trailing zeros
    stripped, no point without a fraction, exponents of at least two digits.
    """
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    return "".join([",".join(names) + "\n", *_cells(values)])


def _round15(v):
    # JSON floats go through the same 15-digit funnel as CSV text, arrays as
    # the floats of the table writer's cells; ints, strings and bools pass
    if isinstance(v, np.ndarray):
        return [float(c) for part in _cells(np.asarray(v, dtype=float).reshape(-1, 1))
                for c in part.split()]
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
