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

Exit codes: 0 success, 1 numerical, data, memory or output-file failure
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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, FrheoError
from .fracops import SignalSeries, _grid_break
from .models import (ClassicalKelvin, ClassicalMaxwell, FracKelvinVoigt,
                     FracMaxwell, FracZener, PoyntingThomson, SpringPot,
                     ThreeParamMaxwell, complex_modulus, creep_compliance,
                     relaxation_modulus, simulate_stress)
from .nutting import _FIELDS as _RECORD_COLUMNS, CreepColumns, _first_non_positive
from .nutting import fit_nutting, quasi_property
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


def _columns(cells):
    """(names, indices) of the needed columns among a header row's cells, or None."""
    col = {c.strip().lower(): i for i, c in enumerate(cells)}
    for names in (_RECORD_COLUMNS, ("t", "value")):
        if all(n in col for n in names):
            return names, [col[n] for n in names]
    return None


def _nonblank(path, lines):
    """(line, cells) of each csv row of lines with a non-blank cell, lines
    numbered from 1. A cell over the csv module's field limit is an E_FORMAT
    line."""
    kept = []
    rows = csv.reader(lines)
    try:
        for line, row in enumerate(rows, 1):
            if any(c.strip() for c in row):
                kept.append((line, row))
    except csv.Error as e:
        raise FormatError(f"{path} line {rows.line_num}: {e}") from None
    return kept


def _convert(path, body, names, need) -> np.ndarray:
    """The cells need of body rows (line, cells) as a (len(names), rows)
    float array, read row by row and in names order within a row, so the
    first missing or non-numeric cell in file order is the one named."""
    x = np.empty((len(names), len(body)))
    for k, (line, row) in enumerate(body):
        for j, (name, i) in enumerate(zip(names, need)):
            if i >= len(row):
                raise FormatError(f"{path} line {line}: missing {name} cell")
            text = row[i].strip()
            try:
                x[j, k] = float(text)
            except ValueError:
                raise FormatError(
                    f"{path} line {line}: non-numeric {name} value {text!r}") from None
    return x


def _bulk_ingest(data: bytes, path):
    """The column names, needed cells and body line numbering of a plain
    file, read in bulk; None, to leave the file to the row scan, if it is
    not plain (UTF-8 without quotes or carriage returns, the header on its
    first line, every later line a row of the header's cell count: no empty
    line or line of spaces before the last row), has no data row or has a
    needed cell float() rejects."""
    if data[-2:-1].isspace():  # blank lines at the end number no row; one "\n" needs no copy
        data = data.rstrip()
    end = data.find(b"\n")
    if end < 0 or b'"' in data or b"\r" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    heads = data[:end].decode("utf-8-sig").split(",")
    found = _columns(heads)
    if found is None:
        return None
    names, need = found
    x = _read_columns(data, end + 1, len(heads), need)
    return None if x is None else (names, x, lambda k: k + 2)


def _row_scan(data: bytes, path):
    """As _bulk_ingest, for any UTF-8 file, read with the csv module: quoted
    cells, carriage returns, blank lines anywhere, any cell float() rejects."""
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    raw = _nonblank(path, io.StringIO(text, newline=""))
    if not raw:
        raise FormatError(f"{path}: no header row")
    body = raw[1:]
    if not body:
        raise FormatError(f"{path}: no data rows")
    found = _columns(raw[0][1])
    if found is None:
        raise FormatError(
            f"{path}: header must contain t,stress,strain or t,value "
            f"(got {','.join(c.strip().lower() for c in raw[0][1])})")
    return found[0], _convert(path, body, *found), lambda k: body[k][0]


def _validate(path, names, x, line_of) -> Union[CreepColumns, SignalSeries]:
    """The creep columns or signal of the needed cells x, a row per name, or
    the E_FORMAT error of the first rule break, naming line_of(body row)."""
    if names == _RECORD_COLUMNS:
        bad = _first_non_positive(x)
        if bad:
            k, j = bad
            raise FormatError(
                f"{path} line {line_of(k)}: {names[j]} must be a positive real, got {x[j, k]:g}")
        return CreepColumns(*x)
    t = x[0]
    if t.size < 2:
        raise FormatError(f"{path}: a signal needs at least 2 rows")
    dt, i = float(t[1]) - float(t[0]), _grid_break(t)
    if i == 1:  # at the first non-finite time of t0, t1, else at t1
        k = int(np.isfinite(t[0]))
        why = (f"time must be finite, got {t[k]:g}" if not np.isfinite(t[k])
               else "times must increase" if dt <= 0.0 else f"grid step {dt:g} is not finite")
        raise FormatError(f"{path} line {line_of(k)}: {why}")
    if i is not None:
        raise FormatError(
            f"{path} line {line_of(i)}: grid step {float(t[i]) - float(t[i - 1]):.12g} "
            f"breaks uniform spacing {dt:.12g}")
    return SignalSeries(t[0], dt, x[1])


def ingest_csv(path) -> Union[CreepColumns, SignalSeries]:
    """Load a UTF-8 creep-record (t,stress,strain) or signal (t,value) file,
    columns matched by name in any order and case. A signal's times must be
    finite, increasing and uniform: dt = t1 - t0 > 0, every step within
    1e-9 * dt of dt. The first unreadable cell in file order is named
    first, then the first cell that breaks a rule."""
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"input file not found: {path}")
    try:
        data = p.read_bytes()
    except OSError as e:
        raise FormatError(f"{path}: cannot be read ({e.strerror})") from None
    return _validate(path, *(_bulk_ingest(data, path) or _row_scan(data, path)))


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
    if args.spacing == "log" and tmin <= 0.0:
        raise _UsageError("log spacing needs a positive --tmin")
    with np.errstate(all="ignore"):  # an infinite end or span is the models' E_DOMAIN line
        if args.spacing == "log":
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
    return (hi, *_split(hi), (num * q - p * den) / (den * q))


def _split(x):
    """Veltkamp's split of a float or array: x = hi + lo exactly, each half
    with at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, b, bh, bl):
    """p = fl(a*b) and err = a*b - p exactly (Dekker, Numer. Math. 18,
    1971), for floats or arrays, with bh + bl = b split by _split; exact
    while no product overflows or underflows."""
    ah, al = _split(a)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _p10_columns(k: np.ndarray):
    """hi, hh, hl, lo of _pow10 for each entry of the integer array k."""
    k0 = int(k.min())
    p10 = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)]).T.copy()
    return (t.take(k - k0) for t in p10)


def _significands(x: np.ndarray):
    """(d, e, bulk) per cell: d the 15-digit integer of |x| rounded at 15
    significant digits, exact in a double, and e its decimal exponent,
    where bulk; d = 0 where not. See _table for why d is exact."""
    a = np.abs(x)
    with np.errstate(all="ignore"):
        bulk = (a > 1e-280) & (a < 1e280)
        a = np.where(bulk, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.intp)
        hi, hh, hl, lo = _p10_columns(14 - e)
        # y = a * 10**k as p + err + a*lo; Dekker's product makes err exact
        p, err = _two_product(a, hi, hh, hl)
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
    head = sliding_window_view(flat, _WIDTH)[below * _WIDTH + _WIDTH + 3 + q[below]]
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


# ------------------------------------------------- exact bulk decimal reader
#
# _read_columns copies the body into a buffer in chunks of about
# _READ_CHUNK bytes, each cut at a line end, after _CELL pad bytes, so that
# the kernel's temporaries stay below glibc's 128 KB mmap threshold: over
# the 40 input files of a march pass, chunks of 64 KB took about 350 minor
# page faults a pass and 2 MB of peak memory, 128 KB chunks 11 000 and
# 4 MB in about the same time, whole files 40 000 and 15 MB in about 1.5
# times the time. One separator scan gives the cell bounds. The kernel,
# _decimals, gathers the last _CELL bytes of each needed cell as a row of a
# sliding window over the buffer, read as three little-endian 64-bit words
# (a cell's first byte lowest), and works on the eight bytes of a word at
# once: a zero-byte test finds "e" and the point, a carry-free test flags
# any byte that is not a digit, and three multiplications turn eight
# digits into their integer (Lemire, Softw. Pract. Exp. 51(8), 2021).

_READ_CHUNK = 1 << 16
_CELL = 24  # bytes of the widest cell the kernel reads: three words
_U64 = np.uint64
_BYTES_7F = _U64(0x7F7F7F7F7F7F7F7F)
_BYTES_80 = _U64(0x8080808080808080)
_DIGIT_0 = _U64(0x3030303030303030)
_PAST_9 = _U64(0x4646464646464646)  # sets bit 7 of every byte above "9"


def _zero_bytes(z):
    # 0x80 in each zero byte of z and 0 elsewhere; no carry crosses a byte
    return ~(((z & _BYTES_7F) + _BYTES_7F) | z | _BYTES_7F)


def _eight_digits(w):
    # the integer of eight digit values 0..9, the leading one in the lowest byte
    w = w * _U64(10) + (w >> _U64(8))
    m = _U64(0x000000FF000000FF)
    return (((w & m) * _U64(100 + (1000000 << 32)))
            + (((w >> _U64(16)) & m) * _U64(1 + (10000 << 32)))) >> _U64(32)


@functools.cache
def _read_tables():
    """The reader's constant tables, built on its first call."""
    c = np.arange(_CELL)
    keep = c >= _CELL - np.arange(_CELL + 1)[:, None]  # the last mc bytes, mc = 0.._CELL
    i = np.arange(8)
    ecol = i >= np.maximum(3, 8 - np.arange(9)[:, None])  # the last min(5, L) of 8 bytes

    def words(b):
        return np.ascontiguousarray(b, dtype=np.uint8).view("<u8")

    return dict(keep=words(keep * 255), fill=words(~keep * 48), ecol=words(ecol * 128).ravel(),
                p10=np.array([10**j if j < 19 else 2**63 - 1 for j in range(_CELL)],
                             dtype=np.int64))


def _decimals(buf, win, e, L):
    """(x, ok): x the float of cell buf[e - L:e] where ok, as float() reads
    it; win = sliding_window_view(buf, _CELL) and e >= _CELL.

    Why those bits are exact: a cell [+-]digits[.digits][e[+-]ddd] of at
    most _CELL bytes is the integer m of its digits (below 9e18, so exact
    in int64) times 10**k. With 10**k = hi + lo from exact integer division
    (_pow10), m = mh + ml (mh the rounded double, ml its int64 remainder,
    exact) and Dekker's product mh*hi = p + err, m*10**k is p + t with t =
    err + mh*lo + ml*hi, to within about 2**-84 of it (the rounding of lo,
    which is subnormal for k near -300, dominates). r = p + t rounded, and
    rem = t - (r - p) is exactly p + t - r. So r is the double nearest
    m*10**k, which float() returns, when |rem| stays 2**-79 of r's binade
    below half an ulp (half the smaller ulp below a power of two) and
    1e-280 < r < 1e280; and also, ties to even included, when ml = lo = 0,
    where p + err is m*10**k itself. A zero is exact and keeps its sign.
    Other spellings, longer cells, digit strings of 9e18 or more (the
    point read as a 0), values next to a tie or out of that range are not
    ok and take float() one by one.
    """
    tb = _read_tables()
    first = buf.take(e - L)
    neg = first == 45
    start = e - L + (neg | (first == 43))  # of the mantissa
    w = win[e - _CELL].view("<u8")  # (n, 3): the cell's last 24 bytes
    # an exponent: the last "e" or "E" among the cell's last five bytes
    at_e = _zero_bytes((w[:, 2] | _U64(0x2020202020202020)) ^ _U64(0x6565656565656565))
    at_e &= tb["ecol"].take(np.minimum(e - start, 8))
    ok = (L >= 1) & (L <= _CELL)
    x, k = e, 0  # the mantissa's end, the decimal exponent
    ex = np.flatnonzero(at_e)
    if ex.size:
        col = (np.frexp(at_e[ex].astype(float))[1] - 1) >> 3
        tail = w[ex, 2] >> (_U64(8) * np.minimum(col + 1, 7).astype(_U64))
        sign = tail & _U64(255)
        signed = (sign == 45) | (sign == 43)
        nd = 7 - col - signed  # its digits, right-aligned in three bytes of "0"s
        tail = np.where(signed, tail >> _U64(8), tail)
        shift = _U64(8) * np.clip(8 - nd, 0, 7).astype(_U64)
        tail = (tail << shift) | (_DIGIT_0 & ((_U64(1) << shift) - _U64(1)))
        ok[ex] &= (nd >= 1) & (nd <= 3) & (((tail + _PAST_9) | (tail - _DIGIT_0)) & _BYTES_80 == 0)
        k = np.zeros(e.size, dtype=np.int64)
        k[ex] = np.where(sign == 45, -1, 1) * _eight_digits(tail - _DIGIT_0).view(np.int64)
        x = e.copy()
        x[ex] -= 8 - col
        w = w.copy()
        w[ex] = win[x[ex] - _CELL].view("<u8")
    # the mantissa, right-aligned in the three words with "0"s before it
    mc = x - start
    ok &= (mc >= 1) & (mc <= _CELL)
    mc = np.where(ok, mc, 0)
    w = (w & tb["keep"].take(mc, axis=0)) | tb["fill"].take(mc, axis=0)
    dot = _zero_bytes(w ^ _U64(0x2E2E2E2E2E2E2E2E))
    w += dot >> _U64(6)  # the point reads as a "0"
    digits = w - _DIGIT_0
    bad = ((w + _PAST_9) | digits) & _BYTES_80
    ok &= (bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0
    count = ((dot >> _U64(7)) * _U64(0x0101010101010101)) >> _U64(56)
    ok &= count[:, 0] + count[:, 1] + count[:, 2] <= 1
    # the point's bit as one float, 2**(8*b - 121) at byte b of the 24: nf = 23 - b
    at = dot.astype(float)
    at = (at[:, 0] * 2.0**-128 + at[:, 1] * 2.0**-64) + at[:, 2]
    has_dot = at > 0.0
    ok &= mc > has_dot
    nf = np.where(has_dot, 8 - (np.frexp(at)[1] >> 3), 0)
    d = _eight_digits(digits).view(np.int64)
    ok &= d[:, 0] < 900  # below 9e18 with the point's "0"
    n = (d[:, 0] * 10**8 + d[:, 1]) * 10**8 + d[:, 2]
    f = n % tb["p10"].take(nf)
    m = np.where(has_dot, (n - f) // 10 + f, n)  # the point's "0" dropped
    k = k - nf
    fits = (k >= -300) & (k <= 280)
    ok &= fits | (m == 0)
    hi, hh, hl, lo = _p10_columns(np.where(fits & ok, k, 0))
    mh = m.astype(float)
    with np.errstate(all="ignore"):  # the cells not ok may hold anything
        ml = (m - mh.astype(np.int64)).astype(float)
        p, err = _two_product(mh, hi, hh, hl)
        t = err + (mh * lo + ml * hi)
        r = p + t
        rem = t - (r - p)
        binade = (r.view(np.int64) & 0x7FF0000000000000).view(float)
        half = np.where((rem < 0.0) & (r == binade), 2.0**-54 - 2.0**-79, 2.0**-53 - 2.0**-79)
        exact = (ml == 0.0) & (lo == 0.0)  # y = p + err: r is y rounded once, ties to even
        ok &= ((np.abs(rem) < binade * half) | exact) & (r > 1e-280) & (r < 1e280) | (m == 0)
    np.negative(r, out=r, where=neg)
    return r, ok


def _read_columns(data: bytes, start: int, ncols: int, need):
    """The cells of columns need of the body data[start:], one row of ncols
    cells a line, as a (len(need), rows) float array, read a chunk of whole
    lines at a time; None as soon as a chunk's lines are not rows of ncols
    cells (an empty line or a line of spaces included) or float() rejects a
    needed cell, and None for an empty body."""
    buf = np.zeros(0, dtype=np.uint8)
    parts, hi = [], start
    while hi < len(data):
        lo = hi
        hi = data.rfind(b"\n", lo, lo + _READ_CHUNK) + 1 or data.find(b"\n", lo) + 1 or len(data)
        if _CELL + hi - lo + 1 > buf.size:  # the first chunk, or one line longer than a chunk
            buf = np.zeros(_CELL + max(hi - lo, _READ_CHUNK) + 1, dtype=np.uint8)
            win = sliding_window_view(buf, _CELL)
        c = buf[:_CELL + hi - lo + 1]
        c[_CELL:-1] = np.frombuffer(data, np.uint8, hi - lo, lo)
        c[-1] = 10
        if data[hi - 1] == 10:
            c = c[:-1]
        sep = np.flatnonzero((c == 44) | (c == 10))
        kinds = c.take(sep)
        if not _whole_rows(kinds, ncols):
            return None
        prev = np.empty_like(sep)
        prev[0] = _CELL - 1
        prev[1:] = sep[:-1]
        e = sep.reshape(-1, ncols)[:, need].T.ravel()
        L = e - 1 - prev.reshape(-1, ncols)[:, need].T.ravel()
        x, ok = _decimals(c, win, e, L)
        try:
            for i in np.flatnonzero(~ok).tolist():  # the rest, one float() each
                x[i] = float(c[e[i] - L[i]:e[i]].tobytes())
        except ValueError:
            return None
        parts.append(x.reshape(len(need), -1))
    return np.concatenate(parts, axis=1) if parts else None


def _whole_rows(kinds, ncols: int) -> bool:
    """Whether the separators kinds (44 a comma, 10 a line end) of whole
    lines end a line after every ncols cells and nowhere else."""
    return not (kinds.size % ncols or (kinds.reshape(-1, ncols)[:, -1] != 10).any()
                or np.count_nonzero(kinds == 10) != kinds.size // ncols)


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


def _input(args, kind):
    """The --input file of a command that takes kind, SignalSeries or CreepColumns."""
    got = ingest_csv(args.input)
    if not isinstance(got, kind):
        what = "t,value signal" if kind is SignalSeries else "t,stress,strain"
        raise FormatError(f"{args.input}: {args.command} expects a {what} file")
    return got


def _cmd_simulate(args):
    model = _build_model(args)
    stress = simulate_stress(model, _input(args, SignalSeries))
    return ({**_model_params(args), "input": args.input},
            {"t": stress.times(), "value": stress.values}, {})


def _cmd_fit(args):
    fit = fit_nutting(_input(args, CreepColumns))
    return ({"law": args.law, "input": args.input},
            {"psi": fit.psi, "alpha": fit.alpha, "beta_exp": fit.beta_exp,
             "rms_log_residual": fit.rms_log_residual},
            {"n_points": fit.n_points, "beta_fixed": fit.beta_fixed,
             "alpha_range_violation": fit.alpha_range_violation})


def _cmd_quasi(args):
    out = quasi_property(args.stress, _input(args, SignalSeries), args.mu)
    return ({"stress": args.stress, "mu": args.mu, "input": args.input},
            {"t": out.times(), "value": out.values}, {})


def _add_model_flags(p):
    p.add_argument("--model", choices=sorted(_MODEL_SPECS))
    fields = (f.name for cls in _MODEL_SPECS.values() for f in dataclasses.fields(cls))
    for f in dict.fromkeys(fields):
        p.add_argument(_flag(f), dest=f, type=float)


def _flag_table(dest: str, name: str, p: argparse.ArgumentParser):
    """(options, required, defaults) of subparser p of command name:
    options maps each long option string of a store action to the action,
    required holds the dests argparse insists on, and defaults is the
    Namespace content before any flag, in argparse's order: dest = name,
    then each action's default, then p's set_defaults."""
    options, required, defaults = {}, set(), {dest: name}
    for a in p._actions:
        if isinstance(a, argparse._StoreAction) and a.nargs is None:
            options.update((s, a) for s in a.option_strings if s.startswith("--"))
        if a.required:
            required.add(a.dest)
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            defaults.setdefault(a.dest, a.default)
    for k, v in p._defaults.items():
        defaults.setdefault(k, v)
    return options, required, defaults


def _parse_flags(commands: dict, argv: list):
    """The Namespace argparse gives argv when argv is a command followed
    only by exact long options of it, each as --name=value or --name value,
    a value of the second kind not starting with "-"; None for any other
    argv, or where a value fails its type or choices or a required flag is
    missing, so that argparse writes every help, usage and error byte.
    A repeated flag keeps its last value, as in argparse."""
    spec = commands.get(argv[0]) if argv else None
    if spec is None:
        return None
    options, required, defaults = spec
    values = {}
    i, n = 1, len(argv)
    while i < n:
        name, eq, value = argv[i].partition("=")
        a = options.get(name)
        if a is None:
            return None
        if not eq:
            i += 1
            if i == n or argv[i].startswith("-"):  # argparse's negative-number rule varies
                return None
            value = argv[i]
        i += 1
        try:
            value = value if a.type is None else a.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if a.choices is not None and value not in a.choices:
            return None
        values[a.dest] = value
    if not required.issubset(values):
        return None
    return argparse.Namespace(**{**defaults, **values})


@functools.cache
def _build_parser():
    """The command parser and, for each command name, its _flag_table, built
    once per process. Reuse is safe: parse_args and _parse_flags return a
    fresh Namespace on every call, nothing mutates the defaults or handlers
    after this build, and argparse reads the terminal width when it formats
    a usage, help or error message, not here, so those bytes do not depend
    on which call built the parser."""
    parser = argparse.ArgumentParser(
        prog="frheo",
        description="Fractional-calculus viscoelasticity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    ml_p = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    ml_p.add_argument("--alpha", type=float, required=True)
    ml_p.add_argument("--beta", type=float, default=1.0)
    ml_p.add_argument("--z", type=float, required=True)

    re_p = sub.add_parser("respond", help="material-function sweep on a grid")
    _add_model_flags(re_p)
    re_p.add_argument("--function", required=True,
                      choices=("relaxation", "creep", "complex"))
    re_p.add_argument("--tmin", type=float)
    re_p.add_argument("--tmax", type=float)
    re_p.add_argument("--points", type=int, default=50)
    re_p.add_argument("--spacing", choices=("log", "linear"), default="log")

    si_p = sub.add_parser("simulate", help="stress from a strain-history file")
    _add_model_flags(si_p)
    si_p.add_argument("--input", required=True)

    fi_p = sub.add_parser("fit", help="fit a material law to creep records")
    fi_p.add_argument("law", choices=("nutting",))
    fi_p.add_argument("--input", required=True)

    qu_p = sub.add_parser("quasi", help="stress over fractional strain rate")
    qu_p.add_argument("--input", required=True)
    qu_p.add_argument("--stress", type=float, required=True)
    qu_p.add_argument("--mu", type=float, required=True)

    handlers = {"ml": _cmd_ml, "respond": _cmd_respond, "simulate": _cmd_simulate,
                "fit": _cmd_fit, "quasi": _cmd_quasi}
    for name, p in sub.choices.items():  # the output flags last, in every usage line
        p.add_argument("--output", help="write here instead of standard output")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(handler=handlers[name])
    return parser, {name: _flag_table(sub.dest, name, p) for name, p in sub.choices.items()}


def run(argv=None) -> int:
    """Parse argv, execute, and return the process exit code.

    An argv that is a command and exact long options of it, each spelled
    --name=value or --name value (that value not starting with "-"), with
    every value valid and every required flag present, is parsed by
    _parse_flags from tables taken from the command's own subparser; any
    other argv (help, an unknown or abbreviated flag, "--", a positional,
    any error) goes to argparse, which writes every help, usage and error
    byte."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_flags(commands, argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
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
    except MemoryError:  # numpy's refused allocations included
        sys.stderr.write("E_MEMORY: not enough memory for this request\n")
        return 1
    if args.output is None:
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
