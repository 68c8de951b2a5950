"""Command-line interface: formatting, ingestion, exit codes, round trips."""

import argparse
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from frheo import cli, models
from frheo.cli import ingest_csv, run
from frheo.errors import DomainError, FrheoError
from frheo.fracops import SignalSeries
from frheo.nutting import CreepColumns, nutting_general_series
from frheo.special import gamma


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def ramp_csv(tmp_path, dt=0.01, tmax=1.0, name="strain.csv"):
    rows = ["t,value"]
    k = 0
    while k * dt <= tmax + dt / 2:
        t = k * dt
        rows.append(f"{t!r},{t!r}")
        k += 1
    return write(tmp_path / name, "\n".join(rows) + "\n")


def creep_csv(tmp_path, name="creep.csv"):
    rows = ["t,stress,strain"]
    for t in (0.5, 1.0, 2.0, 4.0):
        for S in (1.0, 3.0):
            rows.append(f"{t!r},{S!r},{S * t**0.5 / 2.0!r}")
    return write(tmp_path / name, "\n".join(rows) + "\n")


# -------------------------------------------------------------- evaluation

def test_ml_prints_bare_number(capsys):
    assert run(["ml", "--alpha", "1", "--beta", "1", "--z", "1"]) == 0
    assert capsys.readouterr().out == "2.71828182845905\n"


def test_ml_json_document(capsys):
    assert run(["ml", "--alpha", "1", "--z", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "params", "result", "diagnostics"}
    assert doc["command"] == "ml"
    assert doc["result"]["value"] == pytest.approx(math.e, rel=1e-14)


_ML_WITHOUT_MPMATH = """\
import runpy, sys
import frheo.cli
print("mpmath" in sys.modules, file=sys.stderr)
sys.argv = ["frheo", "ml", "--alpha", "0.5", "--z", "-1"]
try:
    runpy.run_module("frheo", run_name="__main__")
except SystemExit as e:
    print(e.code, "mpmath" in sys.modules, file=sys.stderr)
"""


def test_mpmath_is_not_imported_unless_the_fallback_runs():
    # importing mpmath takes about a fifth of a CLI start-up, and only
    # the last Mittag-Leffler route needs it
    done = subprocess.run([sys.executable, "-c", _ML_WITHOUT_MPMATH],
                          capture_output=True, text=True)
    assert done.stdout == "0.427583576155807\n"
    assert done.stderr.splitlines() == ["False", "0 False"]


def test_respond_single_point_bytes(capsys):
    code = run(["respond", "--model", "springpot", "--kappa", "1",
                "--alpha", "0.5", "--function", "relaxation",
                "--tmin", "1", "--tmax", "1", "--points", "1"])
    assert code == 0
    assert capsys.readouterr().out == "t,value\n1,0.564189583547756\n"


def test_table_bytes_are_the_per_cell_format():
    cols = ([0.0, -0.0, 5e-324, 1e16, 123456789.123456789, math.inf],
            [math.nan, -math.inf, 1 / 3, -2.5e-7, 1.7976931348623157e308, 2.0])
    want = "a,b\n" + "".join(f"{cli._fmt(x)},{cli._fmt(y)}\n" for x, y in zip(*cols))
    assert cli._table(("a", "b"), cols) == want
    assert cli._table(("t", "value"), ([], [])) == "t,value\n"


def _per_cell_table(names, cols):
    return ",".join(names) + "\n" + "".join(
        ",".join(cli._fmt(x) for x in row) + "\n" for row in zip(*cols))


def _hard_cells(seed=14):
    """About 200k doubles where a 15-digit writer can go wrong."""
    rng = np.random.default_rng(seed)
    sign = lambda k: rng.choice([-1.0, 1.0], k)  # noqa: E731
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = np.array([1e-5, 1e-4, 1e14, 1e15, 999999999999999.5, 999999999999999.4,
                      2.0**53, 2.0**53 - 1])
    return np.concatenate([
        sign(60000) * np.ldexp(1.0 + rng.random(60000), rng.integers(-1074, 1024, 60000)),
        sign(10000) * rng.integers(1, 2**52, 10000) * 5e-324,  # subnormals
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), -edges,
        sign(40000) * rng.integers(0, 2**53, 40000, endpoint=True),
        sign(60000) * rng.integers(1, 2**40, 60000) / 2.0**rng.integers(0, 64, 60000),
        sign(20000) * rng.standard_normal(20000) * 10.0**rng.integers(-6, 17, 20000),
        [0.0, -0.0, math.nan, math.inf, -math.inf] * 20,
    ])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bulk_table_is_the_per_cell_format(m):
    cells = _hard_cells()
    cells = cells[np.random.default_rng(m).permutation(cells.size)][:cells.size // m * m]
    cols = tuple(cells.reshape(-1, m).T)
    names = tuple("abc"[:m])
    assert cli._table(names, cols) == _per_cell_table(names, cols)


@pytest.mark.parametrize("m, rows", [
    (1, cli._BULK_MIN_CELLS - 1), (1, cli._BULK_MIN_CELLS), (1, cli._BULK_MIN_CELLS + 1),
    (2, cli._CHUNK_CELLS // 2 - 1), (2, cli._CHUNK_CELLS // 2), (2, cli._CHUNK_CELLS // 2 + 1),
    (3, 2 * (cli._CHUNK_CELLS // 3) - 1), (3, 2 * (cli._CHUNK_CELLS // 3) + 1),
])
def test_table_bytes_at_the_cutover_and_chunk_edges(m, rows):
    cells = _hard_cells(seed=rows)
    cols = tuple(np.random.default_rng(rows).choice(cells, (m, rows)))
    names = tuple("xyz"[:m])
    assert cli._table(names, cols) == _per_cell_table(names, cols)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(xs=st.lists(st.floats(), min_size=1, max_size=80), extra=st.integers(0, 300))
def test_bulk_table_property(xs, extra):
    # any floats, repeated to a table above the cutover
    cells = np.resize(np.array(xs), cli._BULK_MIN_CELLS + extra)
    assert cli._table(("v",), (cells,)) == _per_cell_table(("v",), (cells,))


def test_every_model_has_exactly_one_cli_name():
    catalog = sorted(c.__name__ for c in vars(models).values()
                     if dataclasses.is_dataclass(c) and isinstance(c, type)
                     and c.__module__ == models.__name__)
    assert len(catalog) == 8
    assert sorted(c.__name__ for c in cli._MODEL_SPECS.values()) == catalog


def test_respond_complex_header(capsys):
    code = run(["respond", "--model", "cmaxwell", "--E", "1", "--tau", "1",
                "--function", "complex", "--tmin", "0.1", "--tmax", "10",
                "--points", "5"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "omega,storage,loss"
    assert len(out) == 6


def test_respond_json_schema(capsys):
    code = run(["respond", "--model", "fzener", "--a1", "1", "--b0", "0.5",
                "--b1", "2", "--alpha", "0.5", "--function", "relaxation",
                "--tmin", "0.1", "--tmax", "10", "--points", "7",
                "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "params", "result", "diagnostics"}
    assert doc["params"]["model"] == "fzener"
    assert doc["params"]["points"] == 7
    assert len(doc["result"]["t"]) == len(doc["result"]["value"]) == 7


# --------------------------------------------------------------- ingestion

def test_ingest_creep_records(tmp_path):
    records = ingest_csv(creep_csv(tmp_path))
    assert len(records) == 8
    assert isinstance(records, CreepColumns)
    assert records.t[0] == 0.5 and records.stress[0] == 1.0


def test_ingest_tolerates_case_and_column_order(tmp_path):
    path = write(tmp_path / "odd.csv",
                 "Strain,T,STRESS\n0.5,1.0,2.0\n0.7,2.0,2.0\n0.9,4.0,2.0\n")
    records = ingest_csv(path)
    assert records.strain.tolist() == [0.5, 0.7, 0.9]
    path = write(tmp_path / "sig.csv", "value,t\n0.1,1\n0.2,2\n0.3,3\n")
    series = ingest_csv(path)
    assert isinstance(series, SignalSeries)
    assert series.t0 == 1.0 and series.dt == 1.0
    assert list(series.values) == [0.1, 0.2, 0.3]


def test_ingest_diagnostics_name_the_line(tmp_path):
    path = write(tmp_path / "bad.csv", "t,value\n0,0\n0.001,1\n0.002,2\n0.0031,3\n")
    with pytest.raises(Exception) as exc:
        ingest_csv(path)
    assert "line 5" in str(exc.value) and "uniform" in str(exc.value)
    path = write(tmp_path / "nan.csv", "t,value\n0,0\n1,oops\n")
    with pytest.raises(Exception, match="line 3.*non-numeric|non-numeric"):
        ingest_csv(path)


@pytest.mark.parametrize("text,line", [
    ("t,stress,strain\n1,inf,0.5\n2,1,0.7\n", 2),
    ("t,stress,strain\n1,1,0.5\n2,1,nan\n", 3),
    ("t,value\nnan,0\n1,1\n", 2),
    ("t,value\n0,0\ninf,0\ninf,1\n", 3),
    ("t,value\n-1e308,0\n1e308,1\n", 3),  # a first step that overflows
], ids=["inf stress", "nan strain", "nan first time", "inf second time", "inf first step"])
def test_non_finite_cells_name_the_line(tmp_path, capsys, text, line):
    path = write(tmp_path / "bad.csv", text)
    assert run(["quasi", "--stress", "1", "--mu", "0.5", "--input", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"E_FORMAT: {path} line {line}: ")
    assert err.count("\n") == 1


def test_ingest_rejects_malformed_files(tmp_path):
    with pytest.raises(Exception, match="not found"):
        ingest_csv(tmp_path / "missing.csv")
    short = write(tmp_path / "short.csv", "t,value\n1,1\n")
    with pytest.raises(Exception, match="at least 2"):
        ingest_csv(short)
    bad_header = write(tmp_path / "head.csv", "a,b\n1,2\n3,4\n")
    with pytest.raises(Exception, match="header"):
        ingest_csv(bad_header)
    negative = write(tmp_path / "neg.csv",
                     "t,stress,strain\n1,-2,0.5\n2,1,0.7\n3,1,0.9\n")
    with pytest.raises(Exception, match="positive"):
        ingest_csv(negative)
    missing_cell = write(tmp_path / "cell.csv", "t,value\n1,0.1\n2\n")
    with pytest.raises(Exception, match="missing value cell"):
        ingest_csv(missing_cell)


@pytest.mark.parametrize("command", [["quasi", "--stress", "1", "--mu", "0.5"],
                                     ["fit", "nutting"]], ids=["quasi", "fit"])
@pytest.mark.parametrize("data", [b"t,value\n0,0\n1,\xff\n2,2\n",
                                  b"t,stress,strain\n1,1,0.5\n2,1,0.7\n3,1,0.9\xe9\n",
                                  "t,value\n0,0\n1,1\n2,2\n".encode("utf-16")],
                         ids=["xff", "xe9", "utf16"])
def test_non_utf8_input_is_one_format_line(tmp_path, capsys, command, data):
    path = tmp_path / "enc.csv"
    path.write_bytes(data)
    assert run(command + ["--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("E_FORMAT") and "not UTF-8" in err
    assert err.count("\n") == 1


# (times, accepted): one verdict from every entry point that takes a grid
GRID_VERDICTS = {
    "uniform": ([1.0, 1.25, 1.5, 1.75, 2.0], True),
    "jitter 1e-12 dt": ([1.0, 1.25, 1.5, 1.75 + 0.25e-12, 2.0], True),
    "jitter 1e-7 near 1e3": ([1000.0, 1001.0, 1002.0 + 1e-7, 1003.0], False),
    "nan in the middle": ([1.0, 2.0, math.nan, 4.0, 5.0], False),
    "inf at the end": ([1.0, 2.0, 3.0, math.inf], False),
    "infinite step": ([1.0, math.inf, math.inf], False),
    "decreasing": ([4.0, 3.0, 2.0, 1.0], False),
    "negative and decreasing": ([-1.0, -2.0, -3.0], False),
}


def _accepts(entry):
    try:
        entry()
    except FrheoError:
        return False
    return True


@pytest.mark.parametrize("name", GRID_VERDICTS)
def test_every_entry_point_gives_one_grid_verdict(tmp_path, name):
    t, accepted = GRID_VERDICTS[name]
    path = write(tmp_path / "grid.csv",
                 "t,value\n" + "".join(f"{tk!r},{k}\n" for k, tk in enumerate(t)))
    entries = {"ingest_csv": lambda: ingest_csv(path),
               "nutting_strain": lambda: models.nutting_strain(1.0, 1.0, 0.5, 1.0, t),
               "nutting_general_series":
                   lambda: nutting_general_series(1.0, 1.0, 0.5, [1.0], t)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = {k: _accepts(entry) for k, entry in entries.items()}
    assert verdicts == dict.fromkeys(entries, accepted)
    if name == "negative and decreasing":  # negative times are out of the laws' domain
        for k in ("nutting_strain", "nutting_general_series"):
            with pytest.raises(DomainError):
                entries[k]()


def ingest_outcome(path):
    """What ingest_csv makes of a file: the parsed data, down to the bits,
    or the class and text of the frheo error it raises."""
    try:
        got = ingest_csv(path)
    except FrheoError as e:
        return type(e).__name__, str(e)
    if isinstance(got, SignalSeries):
        return "signal", got.t0, got.dt, got.values.tobytes()
    return "records", got.t.tobytes(), got.stress.tobytes(), got.strain.tobytes()


def row_scan_outcome(path):
    with mock.patch.object(cli, "_bulk_ingest", lambda data, path: None):
        return ingest_outcome(path)


def bulk_tokens(path):
    """What the bulk reader makes of a file: None, when it leaves the file to
    the row scan, or its column names, the shape of its cells and the line
    numbers of its first and last rows."""
    tokens = cli._bulk_ingest(Path(path).read_bytes(), path)
    if tokens is not None:
        names, x, line_of = tokens
        return names, x.shape, line_of(0), line_of(x.shape[1] - 1)
    return None


def test_ingest_plain_signal_takes_the_bulk_path(tmp_path):
    path = ramp_csv(tmp_path, dt=0.001)
    assert bulk_tokens(path) == (("t", "value"), (2, 1001), 2, 1002)
    assert ingest_outcome(path) == row_scan_outcome(path)


@pytest.mark.parametrize("text,bulk", [("t,value\n0,1\n1,2\n\n", True),
                                       ("t,value\n\n0,1\n\n\n1,2", False),
                                       ("t,value\n0,1\n1,2\n  \n", True),
                                       ("t,value\n0,1\n\t\n1,2\n", False)],
                         ids=["trailing", "leading and inner", "trailing spaces", "inner tab"])
def test_bulk_ingest_skips_empty_lines_as_the_row_scan_does(tmp_path, text, bulk):
    # blank lines at the end are dropped before the kernel reads; an inner
    # empty line or line of spaces leaves the file to the row scan
    path = write(tmp_path / "blank.csv", text)
    assert (bulk_tokens(path) is not None) == bulk
    assert ingest_outcome(path) == row_scan_outcome(path)


ODD_CELLS = ("oops", "", "  ", "1_0", "nan", "inf", "-Infinity", "0x10", "1e400",
             " 2.5 ", "+3", "١", "1\x0c", "1 2", "#4", "2.5#4")


@st.composite
def signal_files(draw):
    """Text of a t,value file with one of the faults people's files have,
    or none, in any of the layouts ingest_csv accepts."""
    n = draw(st.integers(0, 8))
    dt = draw(st.sampled_from([0.1, 0.25, 1e-3, 3.0]))
    t0 = draw(st.sampled_from([0.0, 0.5, 2.0]))
    vals = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    rows = [[repr(t0 + k * dt), repr(v)] for k, v in enumerate(vals)]
    k, c = draw(st.integers(0, max(n - 1, 0))), draw(st.integers(0, 1))
    fault = draw(st.sampled_from(["none", "step", "cell", "cell", "quote", "short"]))
    if not rows:
        pass
    elif fault == "step":  # a step off the uniform grid
        rows[k][0] = repr(float(rows[k][0])
                          + draw(st.sampled_from([0.3, -0.3, 3e-9, 1e-12])) * dt)
    elif fault == "cell":
        rows[k][c] = draw(st.sampled_from(ODD_CELLS))
    elif fault == "quote":
        rows[k][c] = f'"{rows[k][c]}"'
    elif fault == "short":
        rows[k].pop()
    header = draw(st.sampled_from([["t", "value"], ["T", " Value "], ["t", "value", "note"],
                                   ["t", "value"], ["t", "stress", "strain"], ["a", "b"]]))
    if len(header) == 3:
        rows = [r + ["x"] for r in rows]
    if draw(st.booleans()):  # columns the other way round
        header, rows = header[::-1], [r[::-1] for r in rows]
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # blank lines, the header's too
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", ","])))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + end.join(lines) + (end if draw(st.booleans()) else "")


@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=signal_files())
@example(text="t,value\n0,1\n0.1,2\n0.2000000003,3\n")  # off the grid by 3e-9
@example(text="t,value\n0,1\n1,2.5#4\n")  # no comment syntax
@example(text="t,value\n1,1\n0,2\n-1,3\n")  # uniform but decreasing
@example(text='note,x,t,value\n"a,b",0,1,5\n"a,b",1,2,6\n')  # a quoted comma
def test_bulk_ingest_matches_the_row_scan(tmp_path, text):
    # the bulk parse returns the row scan's arrays bit for bit or leaves
    # the file to it, so every diagnostic stays the same; no traceback
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    assert ingest_outcome(str(path)) == row_scan_outcome(str(path))



@pytest.mark.parametrize("text,message", [
    ("t,value\n0,1\n1,oops\n0.5,3\nbad,4\n", "line 3: non-numeric value value 'oops'"),
    ("t,value\n0,1\n1,2\n0.5,3\nbad,4\n", "line 5: non-numeric t value 'bad'"),
    ("t,value\n0,1\n1,2\n0.5,3\n2,4\n", "line 4: grid step -0.5 breaks uniform spacing 1"),
    ("t,stress,strain\n1,-1,0.5\n2,1,0\n3,abc,0.7\n", "line 4: non-numeric stress value 'abc'"),
    ("t,stress,strain\n1,-1,0.5\n2,1,0\n3,1,0.7\n",
     "line 2: stress must be a positive real, got -1"),
], ids=["signal value before t", "signal t after a break", "signal break", "creep unreadable",
        "creep non-positive"])
def test_unreadable_cells_are_named_before_rule_breaks(tmp_path, text, message):
    # the first unreadable cell in file order, else the first rule break,
    # from either reader
    path = write(tmp_path / "faults.csv", text)
    assert ingest_outcome(path) == ("FormatError", f"{path} {message}") == row_scan_outcome(path)


def creep_file(rng, rows):
    """Text of a seeded plain t,stress,strain file: columns in any order and
    case, beside a note column, in one of the number styles people write."""
    t = np.sort(rng.uniform(0.01, 1e3, rows))
    stress = rng.choice([0.5, 1.0, 2.5, 4.0], rows)
    strain = stress**1.2 * t**0.35 / rng.uniform(1.0, 10.0) * rng.lognormal(0.0, 0.01, rows)
    style = str(rng.choice(["{!r}", "{:.15g}", "{:.6e}", " {:.9f} "]))
    names = [str(n) for n in rng.permutation(["t", "Stress", " STRAIN ", "note"])]
    cols = {"t": t.tolist(), "stress": stress.tolist(), "strain": strain.tolist()}
    lines = [",".join(names)] + [
        ",".join("x" if n == "note" else style.format(cols[n.strip().lower()][k])
                 for n in names) for k in range(rows)]
    bom = "\ufeff" if rng.random() < 0.5 else ""
    return bom + "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")


@pytest.mark.parametrize("seed", range(12))
def test_bulk_creep_ingest_matches_the_row_scan(tmp_path, seed):
    rng = np.random.default_rng([15, seed])
    path = write(tmp_path / "creep.csv", creep_file(rng, int(rng.integers(1, 2000))))
    assert bulk_tokens(path)[0] == ("t", "stress", "strain")
    assert ingest_outcome(path) == row_scan_outcome(path)


@pytest.mark.parametrize("data,message", [
    (b't,stress,strain\n1,1,0.5\n2,"1,5",0.7\n', "line 3: non-numeric stress value '1,5'"),
    (b"t,stress,strain\r\n1,1,0.5\r\n2,-1,0.7\r\n",
     "line 3: stress must be a positive real, got -1"),
    (b"t,stress,strain\n1,1,0.5\n2,abc,0.7\n3,1,0.9\n", "line 3: non-numeric stress value 'abc'"),
    (b"t,stress,strain\n1,1,0.5\n2,1,0\n", "line 3: strain must be a positive real, got 0"),
    (b"t,stress,strain\n1,1,0.5\n2,1\n", "line 3: missing strain cell"),
    (b't,stress,strain\n1,1,0.5\n2,1,"' + b"x" * 140_000 + b'"\n',
     "line 3: field larger than field limit (131072)"),
    (b"t,stress,strain,note\n1,1,0.5,x\n2,abc,0.7," + b"x" * 140_000 + b"\n",
     "line 3: field larger than field limit (131072)"),
], ids=["quoted cell", "CR line ends", "non-numeric cell", "non-positive cell", "missing cell",
        "oversized cell", "oversized plain cell"])
def test_malformed_creep_file_is_one_format_line(tmp_path, capsys, data, message):
    path = tmp_path / "creep.csv"
    path.write_bytes(data)
    assert run(["fit", "nutting", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"E_FORMAT: {path} {message}\n"

# --------------------------------------------------------- bulk decimal reader

def read_columns(data):
    """What _read_columns makes of one column past the header "x": its
    cells, or None if it leaves them to the row scan."""
    return cli._read_columns(data, 2, 1, [0])


def read_cells(cells):
    """_read_columns and float() on one column of cell texts, as bits."""
    got = read_columns(("x\n" + "\n".join(cells) + "\n").encode())
    want = np.array([float(c) for c in cells])
    return got[0].view(np.int64).tolist(), want.view(np.int64).tolist()


STYLES = (repr, "%.17g".__mod__, "%.6e".__mod__, " {:.9f} ".format)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(STYLES)), min_size=1, max_size=40))
def test_reader_matches_float_bit_for_bit(cells):
    got, want = read_cells([style(x) for x, style in cells])
    assert got == want


def _midpoints(rng, count):
    # x + ulp/2 for doubles x in [2**53, 2**63), integers of 16 to 19
    # digits, written plain, in e-notation and one off the tie; and in
    # [2**50, 2**53), where the tie has one or two decimals
    out = []
    for v in rng.integers(2**53, 2**63, count, dtype=np.uint64).tolist():
        lo = int(float(v))
        mid = (lo + int(np.nextafter(float(lo), math.inf))) // 2
        digits = str(mid)
        out += [digits, f"{digits[0]}.{digits[1:]}e+{len(digits) - 1}", str(mid + 1),
                f"-{mid - 1}", f"{digits}e-0"]
    for v in rng.integers(2**50, 2**53, count).tolist():
        mid = Decimal(v) + Decimal(2.0 ** (v.bit_length() - 54))
        out += [str(mid), f"-{mid}"]
    return out


def _long_mantissas(rng, count):
    out = []
    for _ in range(count):
        digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(19, 26)))))
        point = int(rng.integers(0, len(digits) + 1))
        exp = f"e{int(rng.integers(-330, 310))}" if rng.random() < 0.5 else ""
        out.append(digits[:point] + "." + digits[point:] + exp)
        out.append("0" * int(rng.integers(1, 8)) + digits[:12])  # leading zeros
    return out


EDGE_CELLS = ["-0.0", "-0", "0e0", "0.000", "+0", "4.9e-324", "5e-324", "2.4e-324", "2.5e-324",
              "1e-325", "2.2250738585072011e-308", "2.2250738585072014e-308",
              "1.7976931348623157e308", "1.7976931348623158e+308", "1e308", "9.9e307",
              "1e-308", "1e-300", "1e-280", "1.0000000000000001e-280", "9.99999999999e279",
              "1e280", "123.456e-3", ".5", "5.", "+.5e+2", "1E5", "007", "9007199254740993"]


@pytest.mark.parametrize("stratum", ["midpoints", "long mantissas", "subnormals", "edges",
                                     "big integers"])
def test_reader_hard_strata_match_float(stratum):
    rng = np.random.default_rng([16, len(stratum)])
    if stratum == "midpoints":
        cells = _midpoints(rng, 400)
    elif stratum == "long mantissas":
        cells = _long_mantissas(rng, 1000)
    elif stratum == "subnormals":
        x = rng.uniform(0.0, 2.2250738585072014e-308, 1000) * 10.0**-rng.uniform(0, 16, 1000)
        cells = [repr(v) for v in np.where(rng.random(1000) < 0.5, -x, x).tolist()]
    elif stratum == "edges":
        cells = EDGE_CELLS
    else:
        ints = [int(v) << int(s) for v, s in zip(rng.integers(2**53, 2**63, 1000, dtype=np.uint64)
                                                 .tolist(), rng.integers(0, 12, 1000).tolist())]
        cells = [str(v) if k % 2 else f"-{v}.0" for k, v in enumerate(ints)]
    got, want = read_cells(cells)
    assert got == want


@pytest.mark.parametrize("cell", [".", "-", "+", "e5", ".e5", "-.e5", "1e", "1e+", "1e-+5",
                                  "+-1", "--1", "1.2.3", "1..2", "1.5e5.", "1e5e5", "1e5.5",
                                  "1e+1.5", "12e", "0x10", "1 2", "nan1", "1f"])
def test_reader_leaves_what_float_rejects_to_the_row_scan(cell):
    with pytest.raises(ValueError):
        float(cell)
    for cells in ([cell], ["1.5", cell, "2"], ["1.5"] * 3 + [cell]):
        assert read_columns(("x\n" + "\n".join(cells)).encode()) is None


def test_reader_kernel_settles_every_repr_cell(tmp_path, monkeypatch):
    # the float() fallbacks of a seeded repr file, counted at the kernel
    left = []
    kernel = cli._decimals

    def counted(*args):
        x, ok = kernel(*args)
        left.append(int(np.count_nonzero(~ok)))
        return x, ok

    rng = np.random.default_rng(16)
    rows = 9000
    v = rng.choice([-1.0, 1.0, 0.0], rows) * 10.0**rng.uniform(-250, 250, rows)
    path = tmp_path / "sig.csv"
    path.write_text("t,value\n" + "".join(f"{0.004 * k!r},{x!r}\n"
                                          for k, x in enumerate(v.tolist())))
    monkeypatch.setattr(cli, "_decimals", counted)
    series = ingest_csv(str(path))
    assert len(left) >= 2 and not any(left)  # over several chunks, none left
    assert series.values.tobytes() == v.tobytes()
    assert bulk_tokens(path) is not None  # and the file not left to the row scan


def late_blank_lines(fault=None):
    """A 15 000-row signal file with an empty line in its first chunk, a
    U+3000 line and a line of spaces in its second and fault, if any, in
    place of the row t = 12 000 of its third."""
    rows = [f"{k},{k * 1e-3!r}" for k in range(15000)]
    if fault:
        rows[12000] = fault
    rows[7000:7000] = ["\u3000", "   "]
    rows[3000:3000] = [""]
    return "t,value\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("text", [
    "t,value,note\n0,1,{long}\n1,2,y\n2,3,z",  # a line longer than a chunk
    "t,value\n" + "".join(f"{k},{k * 1e-3!r}\n" for k in range(9000)) + "9000,1_0\n",
    "t,value\n" + "".join(f"{k}, {k}.5 \n" for k in range(9000)),
    "t,value\n" + "".join(f"{k},{k}\n" for k in range(9000)) + "9000,1,2\n",
    "t,value,note\n" + "".join(f"{k},{k},é\n" for k in range(9000)),
    late_blank_lines("11999.5,1"),
    late_blank_lines("12000,oops"),
    late_blank_lines(),
], ids=["long line", "late odd cell", "spaced cells", "late extra cell", "non-ascii note",
        "late blanks then a break", "late blanks then a bad cell", "late blanks only"])
def test_bulk_ingest_across_chunks_matches_the_row_scan(tmp_path, text):
    path = tmp_path / "big.csv"
    path.write_bytes(text.replace("{long}", "x" * 131_070).encode("utf-8"))
    assert ingest_outcome(str(path)) == row_scan_outcome(str(path))


@pytest.mark.parametrize("fault,message", [
    ("11999.5,1", "line 12005: grid step 0.5 breaks uniform spacing 1"),
    ("12000,oops", "line 12005: non-numeric value value 'oops'"),
])
def test_late_fault_after_blank_lines_names_its_line(tmp_path, fault, message):
    # three blank lines, in the two chunks before the fault's, push body
    # row 12 000 from line 12 002 to line 12 005
    path = write(tmp_path / "late.csv", late_blank_lines(fault))
    assert ingest_outcome(path) == ("FormatError", f"{path} {message}")


def inner_empty_lines(fault=None):
    """A 15 000-row signal file (four chunks) with empty lines before body
    rows 0, 3000, 7000 and 11 000, and fault, if any, in place of the row
    t = 12 000."""
    rows = [f"{k},{k * 1e-3!r}" for k in range(15000)]
    if fault:
        rows[12000] = fault
    for k in (11000, 7000, 3000, 0):
        rows[k:k] = [""]
    return "t,value\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("fault", [None, "11999.5,1"], ids=["empty lines only", "then a break"])
def test_bulk_ingest_reads_past_inner_empty_lines(tmp_path, fault):
    # inner empty lines leave the file to the row scan, which reads past them
    path = write(tmp_path / "empty.csv", inner_empty_lines(fault))
    assert bulk_tokens(path) is None
    assert ingest_outcome(path) == row_scan_outcome(path)


@pytest.mark.parametrize("fault,message", [
    ("11999.5,1", "line 12006: grid step 0.5 breaks uniform spacing 1"),
    ("12000,oops", "line 12006: non-numeric value value 'oops'"),
])
def test_fault_after_inner_empty_lines_names_its_line(tmp_path, fault, message):
    # four empty lines push body row 12 000 from line 12 002 to line 12 006
    path = write(tmp_path / "empty.csv", inner_empty_lines(fault))
    assert ingest_outcome(path) == ("FormatError", f"{path} {message}")


# -------------------------------------------------------------- round trips

def test_respond_output_reingests_losslessly(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["respond", "--model", "springpot", "--kappa", "1.3",
                "--alpha", "0.45", "--function", "creep",
                "--tmin", "0.5", "--tmax", "5", "--points", "10",
                "--spacing", "linear", "--output", str(out)])
    assert code == 0
    series = ingest_csv(str(out))
    assert isinstance(series, SignalSeries)
    assert len(series) == 10
    # re-rendering the parsed numbers reproduces the file byte for byte
    lines = out.read_text().splitlines()
    rendered = ["t,value"] + [
        f"{t:.15g},{v:.15g}" for t, v in zip(series.times(), series.values)]
    assert lines == rendered


def test_runs_are_deterministic(tmp_path):
    args = ["respond", "--model", "fzener", "--a1", "1", "--b0", "0.5",
            "--b1", "2", "--alpha", "0.5", "--function", "relaxation",
            "--tmin", "0.01", "--tmax", "100", "--points", "30"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--output", str(f1)]) == 0
    assert run(args + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes().endswith(b"\n")


# ---------------------------------------------------------------- commands

def test_simulate_end_to_end(tmp_path, capsys):
    path = ramp_csv(tmp_path)
    code = run(["simulate", "--model", "springpot", "--kappa", "1",
                "--alpha", "0.5", "--input", path])
    assert code == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0, rel=1e-12)
    assert float(last[1]) == pytest.approx(1.0 / gamma(1.5), rel=2e-2)


def _json_matches_csv(argv, capsys, command, names=("t", "value")):
    assert run(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines]
    assert run(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "params", "result", "diagnostics"}
    assert doc["command"] == command and doc["diagnostics"] == {}
    assert header.split(",") == list(names) == list(doc["result"])
    assert [list(r) for r in zip(*doc["result"].values())] == rows
    return doc


POYNTING = ["--model", "poynting", "--E", "2", "--E0", "1.5", "--lambda", "0.8",
            "--alpha", "0.5", "--beta", "0.7", "--gamma", "0.2"]


@pytest.mark.parametrize("function,names", [("relaxation", ["t", "value"]),
                                            ("complex", ["omega", "storage", "loss"])])
def test_respond_json_matches_csv(capsys, function, names):
    doc = _json_matches_csv(["respond", *POYNTING, "--function", function, "--tmin", "0.1",
                             "--tmax", "10", "--points", "7"], capsys, "respond", names)
    assert doc["params"] == {"model": "poynting", "E": 2.0, "E0": 1.5, "lambda": 0.8,
                             "alpha": 0.5, "beta": 0.7, "gamma": 0.2, "function": function,
                             "tmin": 0.1, "tmax": 10.0, "points": 7, "spacing": "log"}


def test_ml_json_matches_csv(capsys):
    argv = ["ml", "--alpha", "0.5", "--beta", "0.9", "--z", "-2.5"]
    assert run(argv) == 0
    value = float(capsys.readouterr().out)
    assert run(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"alpha": 0.5, "beta": 0.9, "z": -2.5}
    assert doc["result"] == {"value": value} and doc["diagnostics"] == {}


@pytest.mark.parametrize("fixed", [False, True], ids=["stress varies", "beta fixed"])
def test_fit_json_matches_csv(tmp_path, capsys, fixed):
    path = creep_csv(tmp_path) if not fixed else write(
        tmp_path / "fixed.csv", "t,stress,strain\n0.5,2,0.3\n1,2,0.4\n2,2,0.55\n")
    assert run(["fit", "nutting", "--input", path]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert run(["fit", "nutting", "--input", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"law": "nutting", "input": path}
    fields = {**doc["result"], **doc["diagnostics"]}
    assert header.split(",") == list(fields)
    cells = [json.loads(c) for c in row.split(",")]
    assert cells == list(fields.values())
    assert [type(c) for c in cells[4:]] == [int, bool, bool]
    assert doc["diagnostics"]["beta_fixed"] is fixed


def test_simulate_json_matches_csv(tmp_path, capsys):
    path = ramp_csv(tmp_path, dt=0.1)
    doc = _json_matches_csv(["simulate", "--model", "fzener", "--a1", "1", "--b0", "0.5",
                             "--b1", "2", "--alpha", "0.5", "--input", path],
                            capsys, "simulate")
    assert doc["params"] == {"model": "fzener", "a1": 1.0, "b0": 0.5, "b1": 2.0,
                             "alpha": 0.5, "input": path}


def test_quasi_json_matches_csv(tmp_path, capsys):
    path = ramp_csv(tmp_path, dt=0.1)
    doc = _json_matches_csv(["quasi", "--input", path, "--stress", "3", "--mu", "0.4"],
                            capsys, "quasi")
    assert doc["params"] == {"stress": 3.0, "mu": 0.4, "input": path}


def test_large_simulate_json_matches_csv(tmp_path, capsys):
    # 16000 rows: both formats take the bulk writer's cells
    rows = "".join(f"{k * 1e-3!r},{k * 2e-3!r}\n" for k in range(16000))
    path = write(tmp_path / "long.csv", "t,value\n" + rows)
    doc = _json_matches_csv(["simulate", "--model", "springpot", "--kappa", "1.5",
                             "--alpha", "0.4", "--input", path], capsys, "simulate")
    assert len(doc["result"]["value"]) == 16000


def test_fit_json_end_to_end(tmp_path, capsys):
    path = creep_csv(tmp_path)
    assert run(["fit", "nutting", "--input", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["psi"] == pytest.approx(2.0, abs=1e-10)
    assert doc["result"]["alpha"] == pytest.approx(0.5, abs=1e-10)
    assert doc["result"]["beta_exp"] == pytest.approx(1.0, abs=1e-10)
    assert doc["diagnostics"]["n_points"] == 8
    assert doc["diagnostics"]["beta_fixed"] is False


def test_fit_csv_header(tmp_path, capsys):
    assert run(["fit", "nutting", "--input", creep_csv(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("psi,alpha,beta_exp,rms_log_residual,n_points,"
                        "beta_fixed,alpha_range_violation")
    fields = lines[1].split(",")
    assert float(fields[0]) == pytest.approx(2.0, abs=1e-10)
    assert fields[5] == "false"


def test_quasi_constant_output(tmp_path, capsys):
    path = ramp_csv(tmp_path, dt=0.1, tmax=1.0)
    code = run(["quasi", "--input", path, "--stress", "3", "--mu", "1"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert all(row.split(",")[1] == "3" for row in rows)


# -------------------------------------------------------------- exit codes

def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["respond", "--function", "relaxation",
                "--tmin", "1", "--tmax", "2"]) == 2
    assert "frheo: --model is required" in capsys.readouterr().err
    assert run(["respond", "--model", "springpot", "--kappa", "-1",
                "--alpha", "0.5", "--function", "relaxation",
                "--tmin", "1", "--tmax", "2"]) == 2
    assert "E_DOMAIN" in capsys.readouterr().err
    assert run(["respond", "--model", "springpot", "--kappa", "1",
                "--alpha", "0.5", "--function", "relaxation",
                "--tmin", "1", "--tmax", "2", "--points", "1"]) == 2
    assert run(["nonsense"]) == 2


SPRINGPOT = ["respond", "--model", "springpot", "--kappa", "1", "--alpha", "0.5",
             "--function", "relaxation"]


@pytest.mark.parametrize("argv,code,line", [
    (SPRINGPOT + ["--tmax", "2"], 2, "frheo: need --tmin"),
    (SPRINGPOT + ["--tmin", "1", "--tmax", "2", "--points", "0"], 2,
     "frheo: --points must be at least 1, got 0"),
    (SPRINGPOT + ["--tmin", "2", "--tmax", "1"], 2, "frheo: need --tmin < --tmax, got 2.0 and 1.0"),
    (SPRINGPOT + ["--tmin", "0", "--tmax", "1"], 2, "frheo: log spacing needs a positive --tmin"),
    (["ml", "--alpha", "-1", "--z", "1"], 2,
     "frheo: E_DOMAIN: ml alpha must be positive and finite, got -1.0"),
    (["simulate", "--model", "springpot", "--kappa", "1", "--alpha", "0.5", "--input", "{creep}"],
     1, "E_FORMAT: {creep}: simulate expects a t,value signal file"),
    (["quasi", "--stress", "1", "--mu", "0.5", "--input", "{creep}"], 1,
     "E_FORMAT: {creep}: quasi expects a t,value signal file"),
    (["fit", "nutting", "--input", "{signal}"], 1,
     "E_FORMAT: {signal}: fit expects a t,stress,strain file"),
    (["quasi", "--stress", "1", "--mu", "0.5", "--input", "{empty}"], 1,
     "E_FORMAT: {empty}: no header row"),
    (SPRINGPOT + ["--tmin", "1", "--tmax", "inf"], 1,
     "E_DOMAIN: time grid must be non-empty and finite"),
    (SPRINGPOT + ["--tmin=-inf", "--tmax", "1", "--spacing", "linear"], 1,
     "E_DOMAIN: time grid must be non-empty and finite"),
    (SPRINGPOT + ["--tmin=-1e308", "--tmax", "1e308", "--spacing", "linear"], 1,
     "E_DOMAIN: time grid must be non-empty and finite"),
    (["ml", "--alpha=0.5", "--z=1", "--output="], 1, "E_IO: : No such file or directory"),
], ids=["no tmin", "no points", "tmin above tmax", "log from zero", "ml alpha",
        "simulate creep file", "quasi creep file", "fit signal file", "empty lines only",
        "infinite tmax", "infinite tmin", "overflowing span", "empty output path"])
def test_refusals_are_one_exact_line(tmp_path, capsys, argv, code, line):
    paths = {"creep": creep_csv(tmp_path), "signal": ramp_csv(tmp_path),
             "empty": write(tmp_path / "empty.csv", "\n\n\n")}
    assert run([a.format(**paths) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == "" and err == line.format(**paths) + "\n"


def test_evaluation_errors_exit_one(tmp_path, capsys):
    assert run(["ml", "--alpha", "1", "--z", "800"]) == 1
    assert "E_OVERFLOW" in capsys.readouterr().err
    missing = str(tmp_path / "nope.csv")
    assert run(["simulate", "--model", "springpot", "--kappa", "1",
                "--alpha", "0.5", "--input", missing]) == 1
    assert "E_FORMAT" in capsys.readouterr().err


def test_ml_out_of_double_range_exits_one(capsys):
    assert run(["ml", "--alpha", "0.5", "--beta", "-300", "--z", "-10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("E_OVERFLOW")


def test_ml_tiny_alpha_overflow_names_double_range(capsys):
    assert run(["ml", "--alpha", "0.001", "--z", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("E_OVERFLOW") and "exceeds double range" in err


@pytest.mark.parametrize("function", ["relaxation", "creep"])
def test_respond_refuses_non_finite_inversion(function, capsys):
    # E / E0 = 1e600 overflows the operator coefficients to inf
    assert run(["respond", "--model", "poynting", "--E", "1e300", "--E0", "1e-300",
                "--lambda", "1", "--alpha", "0.5", "--beta", "0.7", "--gamma", "0.2",
                "--function", function, "--tmin", "1", "--tmax", "10",
                "--points", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("E_CONVERGENCE")


@pytest.mark.parametrize("argv", [
    ["--model", "cmaxwell", "--E", "1e-320", "--tau", "1e-320", "--function", "creep",
     "--tmin", "1", "--tmax", "10"],
    ["--model", "springpot", "--kappa", "1e308", "--alpha", "0.5", "--function", "complex",
     "--tmin", "1e300", "--tmax", "1e305"],
], ids=["maxwell creep inf", "springpot complex nan"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_respond_refuses_non_finite_values(capsys, argv, fmt):
    assert run(["respond", *argv, "--points", "3", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("E_OVERFLOW: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, scale", [
    (["quasi", "--stress", "1e308", "--mu", "0.1"], 1e-300),
    (["simulate", "--model", "fmaxwell", "--E", "1e308", "--lambda", "1e10",
      "--alpha", "0.5", "--beta", "0.9"], 1.0),
], ids=["quasi", "simulate"])
def test_signal_out_of_double_range_is_one_overflow_line(tmp_path, argv, scale):
    # a 0..4 ramp, its samples near 1e-300 for quasi; no numpy warning
    # may escape before the refusal
    rows = "".join(f"{k * 0.1!r},{scale * k * 0.1!r}\n" for k in range(41))
    src = write(tmp_path / "in.csv", "t,value\n" + rows)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "frheo",
                           *argv, "--input", src], capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("E_OVERFLOW: "), done.stderr


@pytest.mark.parametrize("argv", [
    ["quasi", "--stress", "1", "--mu", "1"],
    ["simulate", "--model", "springpot", "--kappa", "1", "--alpha", "1"],
], ids=["quasi", "simulate"])
def test_derivative_out_of_double_range_is_one_overflow_line(tmp_path, argv):
    # dt = 1e-300 and steps of 1e10: the first difference quotient is 1e310
    rows = "".join(f"{k * 1e-300!r},{k * 1e10!r}\n" for k in range(4))
    src = write(tmp_path / "in.csv", "t,value\n" + rows)
    done = subprocess.run([sys.executable, "-m", "frheo", *argv, "--input", src],
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "E_OVERFLOW: fractional derivative at 1e-300 exceeds double range\n")


@pytest.mark.parametrize("argv, dt, cause", [
    (["--model", "fmaxwell", "--E", "1e308", "--lambda", "1e10", "--alpha", "0.5",
      "--beta", "0.9"], 1.0, "E_OVERFLOW: strain-side coefficient of D^0.9 exceeds double range"),
    (["--model", "maxwell3", "--a1", "1e300", "--b0", "1e308", "--alpha", "0.5"], 1.0,
     "E_OVERFLOW: strain-side sum at 2 exceeds double range"),
    (["--model", "maxwell3", "--a1", "1e308", "--b0", "1", "--alpha", "1"], 0.5,
     "E_STABILITY: stress-side coefficient of D^1 over grid step 0.5 is inf: "
     "the implicit update is unusable"),
], ids=["fmaxwell coefficient", "maxwell3 strain sum", "maxwell3 stress coefficient"])
def test_simulate_refusal_names_its_cause(tmp_path, argv, dt, cause):
    # a five-row ramp from 0: the refusal names what left double range, not t = 0
    rows = "".join(f"{k * dt!r},{k * dt!r}\n" for k in range(5))
    src = write(tmp_path / "ramp.csv", "t,value\n" + rows)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "frheo",
                           "simulate", *argv, "--input", src], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", cause + "\n")


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_output_is_one_io_line(tmp_path, capsys, where):
    target = str(tmp_path / "no" / "x.csv" if where == "missing directory" else tmp_path)
    assert run(["ml", "--alpha", "0.5", "--z", "-1", "--output", target]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"E_IO: {target}: ") and err.count("\n") == 1


def test_unreadable_input_is_one_format_line(tmp_path, capsys, monkeypatch):
    # the suite may run as root, which reads any file: refuse the read instead
    def refuse(self):
        raise PermissionError(13, "Permission denied", str(self))

    path = ramp_csv(tmp_path)
    monkeypatch.setattr(Path, "read_bytes", refuse)
    assert run(["quasi", "--input", path, "--stress", "1", "--mu", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"E_FORMAT: {path}: cannot be read (Permission denied)\n"


# the child limits its own address space, so an oversized grid fails at once
_LIMITED_RUN = """
import resource, sys
limit = 1 << 31
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from frheo.cli import main
main()
"""


def test_out_of_memory_is_one_memory_line():
    argv = ["respond", "--model", "springpot", "--kappa", "1", "--alpha", "0.5",
            "--function", "relaxation", "--tmin", "1", "--tmax", "2",
            "--points", "1000000000000"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _LIMITED_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "E_MEMORY: not enough memory for this request\n"


# the child runs every argv through cli.run under a 2 GiB address space,
# with every warning shown, and prints (exit code, stderr) per argv as JSON
_FUZZ_RUN = """
import io, json, resource, sys, traceback, warnings
limit = 1 << 31
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
warnings.simplefilter("always")
from frheo.cli import run
results = []
for argv in json.load(sys.stdin):
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = run(argv)
    except Exception:
        code = None
        traceback.print_exc()
    results.append((code, sys.stderr.getvalue()))
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
json.dump(results, sys.stdout)
"""

_EXTREMES = (0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-10, 1.0, 1e10, 1e300,
             1.7976931348623157e308)


def _extreme(rng, positive=False):
    """A finite double: an extreme magnitude or a random one, either sign
    unless positive."""
    if rng.random() < 0.5:
        x = rng.choice(_EXTREMES[1:] if positive else _EXTREMES)
    else:
        x = 10.0 ** rng.uniform(-320, 308)
    return float(x if positive or rng.random() < 0.8 else -x)


def _fuzz_model(rng):
    """--model and its flags, orders in [0, 1] with both ends likely."""
    name = str(rng.choice(sorted(cli._MODEL_SPECS)))
    flags = {}
    for f in dataclasses.fields(cli._MODEL_SPECS[name]):
        if f.name in ("alpha", "beta", "gamma"):
            flags[f.name] = float(rng.choice([0.0, 1.0, rng.random()]))
        else:
            flags[f.name] = float(10.0 ** rng.uniform(-30, 30))
    if name == "poynting":  # gamma <= alpha <= beta
        flags["gamma"], flags["alpha"], flags["beta"] = sorted(
            (flags["gamma"], flags["alpha"], flags["beta"]))
    elif name == "fmaxwell":
        flags["alpha"], flags["beta"] = sorted((flags["alpha"], flags["beta"]))
    elif name == "fzener":  # admissible, so that no warning is due
        flags["b1"] = 2.0 * flags["a1"] * flags["b0"] + 1.0
    argv = ["--model", name]
    for f, v in flags.items():
        argv.append(f"{cli._flag(f)}={v!r}")
    return argv


def _fuzz_case(rng, tmp_path, k):
    """One file command and its input: a 2-50 row file of extreme cells."""
    rows = int(rng.integers(2, 51))
    command = str(rng.choice(["simulate", "quasi", "fit"]))
    path = tmp_path / f"fuzz{k}.csv"
    if command == "fit":
        cells = [[_extreme(rng, positive=True) for _ in range(3)] for _ in range(rows)]
        if rng.random() < 0.1:  # one cell a record refuses
            cells[rng.integers(rows)][rng.integers(3)] = _extreme(rng)
        write(path, "t,stress,strain\n" + "".join(f"{t!r},{s!r},{e!r}\n" for t, s, e in cells))
        return ["fit", "nutting", "--input", str(path)]
    t0 = 0.0 if rng.random() < 0.8 else _extreme(rng, positive=True)
    dt = _extreme(rng, positive=True)
    values = [_extreme(rng) for _ in range(rows)]
    if rng.random() < 0.5:  # a history that rises
        values.sort(key=abs)
        values = [abs(v) for v in values]
    if rng.random() < 0.8:
        values[0] = 0.0
    write(path, "t,value\n" + "".join(f"{t0 + j * dt!r},{v!r}\n" for j, v in enumerate(values)))
    if command == "quasi":
        return ["quasi", "--input", str(path), f"--stress={_extreme(rng)!r}",
                f"--mu={float(rng.choice([0.0, 1.0, rng.random(), 1.5]))!r}"]
    return ["simulate", *_fuzz_model(rng), "--input", str(path)]


def test_file_commands_fuzz_is_refused_in_one_line(tmp_path):
    # seeded argvs of the file commands: each ends with exit 0, 1 or 2 and
    # at most one stderr line, never a traceback or a warning
    rng = np.random.default_rng(25)
    corpus = [_fuzz_case(rng, tmp_path, k) for k in range(300)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FUZZ_RUN], input=json.dumps(corpus), env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    bad = [(argv, code, err) for argv, (code, err) in zip(corpus, results)
           if code not in (0, 1, 2) or err.count("\n") > 1
           or "Traceback" in err or "Warning" in err]
    assert not bad, bad[:3]
    assert {code for code, _ in results} >= {0, 1}


def test_ml_negative_axis_overflow_exits_one(capsys):
    assert run(["ml", "--alpha=2.5", "--z=-1e300"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "E_OVERFLOW: E_(2.5,1.0)(-1e+300) exceeds double range\n"


# ----------------------------------------------------------- parser reuse

def _fresh_process(argv, columns):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS=columns,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "frheo", *argv], capture_output=True,
                          text=True, env=env)
    return done.stdout, done.stderr, done.returncode


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # one process runs every command in turn on the one cached parser;
    # each step's bytes and exit code equal those of a fresh process,
    # help and usage included, at whatever terminal width each step sees
    signal, creep = ramp_csv(tmp_path, dt=0.1), creep_csv(tmp_path)
    respond = ["respond", "--model", "fzener", "--a1", "1", "--b0", "0.5", "--b1", "2",
               "--alpha", "0.5", "--function", "creep", "--tmin", "0.1", "--tmax", "10",
               "--points", "7"]
    steps = [
        (["ml", "--alpha", "0.5", "--z", "-1"], "80"),
        (["respond", "--function", "bogus"], "80"),
        (["--help"], "80"),
        (["--help"], "40"),
        (["simulate", "--model", "springpot", "--alpha", "0.5", "--input", signal], "80"),
        (respond, "80"),
        (respond + ["--format", "json"], "80"),
        (["simulate", "--model", "springpot", "--kappa", "1", "--alpha", "0.5",
          "--input", signal], "80"),
        (["quasi", "--input", signal, "--stress", "3", "--mu", "0.4"], "80"),
        (["fit", "nutting", "--input", creep], "80"),
        (["ml", "--alpha", "0.5", "--z", "-1"], "80"),
    ]
    codes = []
    for argv, columns in steps:
        monkeypatch.setenv("COLUMNS", columns)
        code = run(argv)
        out, err = capsys.readouterr()
        assert (out, err, code) == _fresh_process(argv, columns), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for k in range(10):
        assert run(["ml", "--alpha", "0.5", "--z", str(-k)]) == 0
        assert run(["respond", "--model", "springpot", "--kappa", "1", "--alpha", "0.5",
                    "--function", "creep", "--tmin", "1", "--tmax", "2",
                    "--points", str(k + 2)]) == 0
    capsys.readouterr()
    assert len(built) == 6  # the parser and its 5 subparsers


# ------------------------------------------------------------- flag table

_CORPUS_MODELS = {"springpot": {"kappa": ("1.5", "0.8"), "alpha": ("0.3", "0.6")},
                  "fkelvinvoigt": {"b0": ("1", "2"), "b1": ("0.5",), "alpha": ("0.4", "0.7")},
                  "cmaxwell": {"E": ("2", "0.5"), "tau": ("0.3", "4")}}
_REQUIRED = {"ml": ("--alpha", "--z"), "respond": ("--function",), "simulate": ("--input",),
             "fit": ("--input",), "quasi": ("--input", "--stress", "--mu")}
_CHOICES = {"--function": "creeps", "--spacing": "cubic", "--model": "springpots",
            "--format": "xml"}


def _pairs(rng, command, paths):
    """A valid (flag, value) list of command, shuffled; some values negative."""
    one = rng.choice
    if command == "ml":
        pairs = [("--alpha", one(["0.5", "0.7", "1.5"])), ("--z", one(["-1", "0.3", "-2.5"]))]
        pairs += [("--beta", one(["1", "0.5", "2"]))] * (rng.random() < 0.5)
    elif command in ("respond", "simulate"):
        model = one(sorted(_CORPUS_MODELS))
        pairs = [("--model", model)] + [(f"--{f}", one(v)) for f, v in _CORPUS_MODELS[model].items()]
        if command == "simulate":
            pairs.append(("--input", one([paths["signal"], paths["eq"]])))
        elif rng.random() < 0.5:
            pairs += [("--function", one(["relaxation", "creep", "complex"])),
                      ("--tmin", one(["0.1", "1"])), ("--tmax", one(["2", "10"])),
                      ("--points", str(rng.randint(2, 6))), ("--spacing", one(["log", "linear"]))]
        else:  # a linear grid from a negative time: the models refuse it
            pairs += [("--function", "creep"), ("--tmin", "-1"), ("--tmax", "1"),
                      ("--points", "3"), ("--spacing", "linear")]
    elif command == "quasi":
        pairs = [("--input", one([paths["signal"], paths["eq"]])),
                 ("--stress", one(["1", "-3"])), ("--mu", one(["0.2", "0.5"]))]
    else:
        pairs = [("--input", paths["creep"])]
    pairs += [("--format", "json")] * (rng.random() < 0.3)
    pairs += [("--output", paths["out"])] * (rng.random() < 0.3)
    rng.shuffle(pairs)
    return pairs


def _spell(rng, pairs):
    # --name=value or --name value at random; a value led by "-" takes "="
    out = []
    for f, v in pairs:
        out += [f"{f}={v}"] if v.startswith("-") or rng.random() < 0.5 else [f, v]
    return out


def _mutant(rng, kind, command, paths):
    """(argv, table): an argv of this kind and whether the flag table must
    parse it (True), must leave it to argparse (False), or either (None)."""
    pairs = _pairs(rng, command, paths)
    head = [command] + ["nutting"] * (command == "fit")
    well_formed = command != "fit"  # a positional always goes to argparse
    f, v = rng.choice(pairs)
    at = rng.randrange(len(pairs) + 1)
    if kind == "spelled":
        return head + _spell(rng, pairs), well_formed
    if kind == "repeated":  # the last value wins
        first = v if f in _CHOICES else "7"
        return head + _spell(rng, pairs[:at] + [(f, first)] + pairs[at:] + [(f, v)]), well_formed
    if kind == "negative spaced":
        return head + _spell(rng, pairs[:at]) + [f, "-" + v] + _spell(rng, pairs[at:]), False
    if kind == "negative equals":
        return head + [f"{f}=-{v.lstrip('-')}"] + _spell(rng, pairs), None
    if kind == "empty":
        return head + _spell(rng, pairs) + [f"{f}="], None
    if kind == "equals inside":
        return head + _spell(rng, pairs) + [f"{f}={v}={v}"], None
    if kind == "abbreviated":
        return head + _spell(rng, pairs[:at] + [(f[:-1], v)] + pairs[at:]), False
    if kind == "unknown":
        if rng.random() < 0.5:
            return [command + "s"] + head[1:] + _spell(rng, pairs), False
        return head + _spell(rng, pairs[:at] + [("--bogus", v)] + pairs[at:]), False
    if kind in ("help", "separator"):
        argv = _spell(rng, pairs)
        token = rng.choice(["-h", "--help"]) if kind == "help" else "--"
        return head + argv[:at] + [token] + argv[at:], False
    if kind == "missing value":
        return head + _spell(rng, pairs[:at]) + [f] + _spell(rng, pairs[at:]), False
    if kind == "missing required":
        drop = rng.choice(_REQUIRED[command])
        return head + _spell(rng, [p for p in pairs if p[0] != drop]), False
    if kind == "bad number":
        flag = rng.choice([p for p, _ in pairs if p not in ("--input", "--output", "--model", "--format")]
                          or ["--points"])
        bad = rng.choice(["abc", "1.2.3", "0x1p3", ""] + ["2.5"] * (flag == "--points"))
        return head + _spell(rng, pairs + [(flag, bad)]), False
    if kind == "bad choice":
        flag = rng.choice([p for p, _ in pairs if p in _CHOICES] or ["--format"])
        return head + _spell(rng, pairs + [(flag, _CHOICES[flag])]), False
    assert kind == "positional"
    return head + _spell(rng, pairs[:at]) + ["extra"] + _spell(rng, pairs[at:]), False


_KINDS = ("spelled", "repeated", "negative spaced", "negative equals", "empty", "equals inside",
          "abbreviated", "unknown", "help", "separator", "missing value", "missing required",
          "bad number", "bad choice", "positional")


def test_flag_table_matches_argparse_byte_for_byte(tmp_path, capsys, monkeypatch):
    # every corpus argv gives the same stdout, stderr, exit code and
    # --output bytes with the flag table as with argparse alone
    paths = {"signal": ramp_csv(tmp_path, dt=0.1), "creep": creep_csv(tmp_path),
             "eq": ramp_csv(tmp_path, dt=0.25, name="a=b.csv"), "out": str(tmp_path / "out.csv")}
    rng = random.Random(22)
    corpus = [_mutant(rng, kind, command, paths)
              for kind in _KINDS for command in _REQUIRED for _ in range(4)]
    assert len(corpus) >= 300
    commands = cli._build_parser()[1]
    routes = [cli._parse_flags(commands, argv) is not None for argv, _ in corpus]
    for (argv, table), route in zip(corpus, routes):
        assert table is None or route == table, argv
    monkeypatch.setenv("COLUMNS", "80")
    out = Path(paths["out"])

    def once(argv):
        code = run(argv)
        got = (code, *capsys.readouterr(), out.read_bytes() if out.exists() else None)
        out.unlink(missing_ok=True)
        return got

    shipped = [once(argv) for argv, _ in corpus]
    monkeypatch.setattr(cli, "_parse_flags", lambda commands, argv: None)
    for (argv, _), got in zip(corpus, shipped):
        assert once(argv) == got, argv
    assert {code for code, *_ in shipped} == {0, 1, 2}
