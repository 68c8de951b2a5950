"""Command-line interface: formatting, ingestion, exit codes, round trips."""

import dataclasses
import json
import math

import pytest

from frheo import cli, models
from frheo.cli import ingest_csv, run
from frheo.fracops import SignalSeries
from frheo.nutting import CreepRecord
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


def test_respond_single_point_bytes(capsys):
    code = run(["respond", "--model", "springpot", "--kappa", "1",
                "--alpha", "0.5", "--function", "relaxation",
                "--tmin", "1", "--tmax", "1", "--points", "1"])
    assert code == 0
    assert capsys.readouterr().out == "t,value\n1,0.564189583547756\n"


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
    assert isinstance(records[0], CreepRecord)
    assert records[0].t == 0.5 and records[0].stress == 1.0


def test_ingest_tolerates_case_and_column_order(tmp_path):
    path = write(tmp_path / "odd.csv",
                 "Strain,T,STRESS\n0.5,1.0,2.0\n0.7,2.0,2.0\n0.9,4.0,2.0\n")
    records = ingest_csv(path)
    assert [r.strain for r in records] == [0.5, 0.7, 0.9]
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


def test_evaluation_errors_exit_one(tmp_path, capsys):
    assert run(["ml", "--alpha", "1", "--z", "800"]) == 1
    assert "E_OVERFLOW" in capsys.readouterr().err
    missing = str(tmp_path / "nope.csv")
    assert run(["simulate", "--model", "springpot", "--kappa", "1",
                "--alpha", "0.5", "--input", missing]) == 1
    assert "E_FORMAT" in capsys.readouterr().err
