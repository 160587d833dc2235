import csv
import json
import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cutoffcal
from cutoffcal import (apply_map, cutoff_error, fit_isotonic,
                       grouped_from_arrays, load_columns)
from cutoffcal.cli import main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("cutoffcal").joinpath(
        "schemas/report.schema.json").read_text()
    return json.loads(text)


def validate(obj, schema):
    jsonschema.validate(obj, schema,
                        format_checker=jsonschema.FormatChecker())


def write_csv(path, rows, oracle=False):
    header = "forecast,outcome,oracle_mean" if oracle else "forecast,outcome"
    path.write_text(header + "\n" +
                    "\n".join(",".join(str(v) for v in r) for r in rows) + "\n")


@pytest.fixture()
def empirical_csv(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.random(200)
    y = (rng.random(200) < t).astype(int)
    p = tmp_path / "data.csv"
    write_csv(p, list(zip(t, y)))
    return p


@pytest.fixture()
def oracle_csv(tmp_path):
    rng = np.random.default_rng(2)
    t = rng.random(100)
    mu = np.clip(t + rng.normal(0, 0.05, 100), 0, 1)
    y = (rng.random(100) < mu).astype(int)
    p = tmp_path / "oracle.csv"
    write_csv(p, list(zip(t, y, mu)), oracle=True)
    return p


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_audit_schema_and_metrics(empirical_csv, tmp_path, schema):
    code, obj = run_json(["audit", str(empirical_csv), "--bins", "5"],
                         tmp_path)
    assert code == 0
    validate(obj, schema)
    names = [r["metric_name"] for r in obj["reports"]]
    assert names == ["cutoff", "binned_ece", "lipschitz_wce"]
    cutoff = obj["reports"][0]
    assert cutoff["params"]["delta"] == 0.05
    assert cutoff["params"]["radius"] > 0
    assert 0 <= obj["reports"][2]["params"]["certificate"] < 1e-12


def test_audit_tiny_delta_reports_finite_radius(empirical_csv, tmp_path,
                                               schema):
    # 1/delta overflows at this delta; the radius needs only ln(1/delta)
    code, obj = run_json(["audit", str(empirical_csv), "--delta", "1e-310"],
                         tmp_path)
    assert code == 0
    validate(obj, schema)
    radius = obj["reports"][0]["params"]["radius"]
    assert math.isfinite(radius) and radius > 0


def test_audit_oracle_mode(oracle_csv, tmp_path, schema):
    code, obj = run_json(["audit", str(oracle_csv), "--oracle"], tmp_path)
    assert code == 0
    validate(obj, schema)
    by_name = {r["metric_name"]: r for r in obj["reports"]}
    assert {"oracle_ece", "oracle_cutoff",
            "oracle_lipschitz_wce"} <= set(by_name)
    for name in ("lipschitz_wce", "oracle_lipschitz_wce"):
        assert 0 <= by_name[name]["params"]["certificate"] < 1e-12


def test_audit_missing_file_exit_2(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_malformed_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("forecast,outcome\n0.5,2.0\n")
    assert main(["audit", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_calibrate_each_method(empirical_csv, tmp_path, schema):
    for method in ("isotonic", "platt", "modified-platt"):
        code, obj = run_json(["calibrate", str(empirical_csv),
                              "--method", method,
                              "--test-input", str(empirical_csv)],
                             tmp_path, name=f"{method}.json")
        assert code == 0
        validate(obj, schema)
        assert obj["evaluation"]["pre_cutoff"] >= 0
        assert obj["evaluation"]["n_test"] == 200


def test_certify_accept_and_schema(tmp_path, schema):
    # delta may be 1, the top of (0, 1], in the program and the schema
    p = tmp_path / "cal.csv"
    write_csv(p, [(0.5, i % 2) for i in range(2000)])
    for extra in ([], ["--delta", "1"]):
        code, obj = run_json(["certify", str(p), "--c", "0.8", *extra],
                             tmp_path)
        assert code == 0
        validate(obj, schema)
        assert obj["accepted"] is True


def test_certify_bad_c_exit_2(tmp_path, capsys):
    p = tmp_path / "cal.csv"
    write_csv(p, [(0.5, i % 2) for i in range(100)])
    assert main(["certify", str(p), "--c", "0.0001"]) == 2
    assert "floor" in capsys.readouterr().err


def test_certify_shuffle_deterministic(tmp_path):
    p = tmp_path / "cal.csv"
    write_csv(p, [(0.5, 0)] * 200 + [(0.5, 1)] * 200)
    _, a = run_json(["certify", str(p), "--c", "2.0", "--shuffle-seed", "4"],
                    tmp_path, "a.json")
    _, b = run_json(["certify", str(p), "--c", "2.0", "--shuffle-seed", "4"],
                    tmp_path, "b.json")
    assert a == b


def test_decide_schema_and_gaps(oracle_csv, tmp_path, schema):
    code, obj = run_json(["decide", str(oracle_csv), "--tau", "0.35",
                          "--ystar", "0.5"], tmp_path)
    assert code == 0
    validate(obj, schema)
    assert obj["gap"] >= -1e-12
    assert obj["monotone_gap"] >= -1e-12
    assert "sign_testing_risk" in obj


def test_decide_gaps_nonnegative_on_small_oracle_csv(tmp_path):
    # priced from cumsum differences, the plug-in rule costs
    # 0.11875000000000001 here, one ulp above its direct price 0.11875
    p = tmp_path / "oracle.csv"
    write_csv(p, [(0.2, 0, 0.25), (0.4, 1, 0.35), (0.7, 1, 0.8),
                  (0.9, 0, 0.85)], oracle=True)
    code, obj = run_json(["decide", str(p), "--tau", "0.5"], tmp_path)
    assert code == 0
    assert obj["gap"] >= 0.0 and obj["monotone_gap"] >= 0.0
    assert obj["monotone_risk"] <= obj["risk"]


@pytest.mark.parametrize("args", [
    pytest.param(["decide", "{csv}", "--tau", "0.35"], id="decide"),
    pytest.param(["audit", "{csv}", "--oracle"], id="audit --oracle"),
])
def test_decide_requires_oracle_column(args, empirical_csv, capsys):
    assert main([a.format(csv=empirical_csv) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle_mean" in captured.err


@pytest.mark.parametrize("args", [
    ["--tau", "2"],
    ["--tau", "-0.1"],
    ["--tau", "nan"],
    ["--tau", "inf"],
    ["--tau", "0.35", "--ystar", "nan"],
    ["--tau", "0.35", "--ystar", "1.5"],
])
def test_decide_bad_threshold_exit_2(args, oracle_csv, capsys):
    assert main(["decide", str(oracle_csv)] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite and in [0, 1]" in captured.err


def test_decide_empty_input_exit_2(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("forecast,outcome,oracle_mean\n")
    assert main(["decide", str(p), "--tau", "0.35"]) == 2
    assert "error:" in capsys.readouterr().err


def test_nan_never_reaches_output(oracle_csv, monkeypatch, capsys):
    monkeypatch.setattr("cutoffcal.decision.risks",
                        lambda t, mu, tau: (float("nan"), 0.0, 0.0))
    assert main(["decide", str(oracle_csv), "--tau", "0.35"]) == 3
    captured = capsys.readouterr()
    assert "NaN" not in captured.out
    assert "not JSON compliant" in captured.err


def test_runtime_imports_no_scipy():
    code = ("import sys, cutoffcal, cutoffcal.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = str(Path(cutoffcal.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_simulate_csv_deterministic(tmp_path):
    args = ["simulate", "--runs", "2", "--n-train", "100", "--n-eval", "200",
            "--seed", "11"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["gap"]) >= -1e-12


@pytest.mark.parametrize("args", [
    ["simulate", "--runs", "1", "--n-eval", "10", "--seed", "-1"],
    ["certify", None, "--c", "4", "--shuffle-seed", "-3"],
])
def test_negative_seed_exit_2(args, empirical_csv, capsys):
    args = [str(empirical_csv) if a is None else a for a in args]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an integer >= 0" in captured.err
    assert "Traceback" not in captured.err


def test_simulate_file_and_stdout_bytes_agree(tmp_path, capsysbinary):
    args = ["simulate", "--runs", "2", "--n-train", "100", "--n-eval", "200"]
    assert main(args + ["--out", str(tmp_path / "s.csv")]) == 0
    assert main(args) == 0
    assert (tmp_path / "s.csv").read_bytes() == capsysbinary.readouterr().out


def test_isotonic_stdout_is_one_line_with_exact_breakpoints(empirical_csv,
                                                             capsysbinary):
    assert main(["calibrate", str(empirical_csv), "--method", "isotonic"]) == 0
    out = capsysbinary.readouterr().out
    assert out.endswith(b"\n") and out.count(b"\n") == 1
    got = np.array(json.loads(out)["calibrator"]["breakpoints"])
    t, y, _ = load_columns(empirical_csv)
    want = fit_isotonic(t, y).breakpoints
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_isotonic_signed_zero_forecasts_do_not_depend_on_row_order(
        tmp_path, capsysbinary):
    outs = []
    for rows in (["-0.0,0", "0.0,0"], ["0.0,0", "-0.0,0"]):
        path = tmp_path / "zeros.csv"
        path.write_text("forecast,outcome\n" + "\n".join(rows + ["0.5,1"]))
        assert main(["calibrate", str(path), "--method", "isotonic"]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["calibrator"]["breakpoints"] == [[0.0, 0.0],
                                                                [0.5, 1.0]]
    assert b"-0.0" not in outs[0]


@pytest.mark.parametrize("grid", [False, True])
def test_isotonic_report_is_json_dumps_of_the_map(grid, tmp_path,
                                                  capsysbinary):
    rng = np.random.default_rng(31)
    paths = []
    for name, n in [("train.csv", 3000), ("test.csv", 500)]:
        t = rng.random(n)
        t = np.round(t, 2) if grid else t
        paths.append(tmp_path / name)
        write_csv(paths[-1], list(zip(t.tolist(), (rng.random(n) < t) * 1)))
    assert main(["calibrate", str(paths[0]), "--method", "isotonic",
                 "--test-input", str(paths[1])]) == 0
    out = capsysbinary.readouterr().out
    cmap = fit_isotonic(*load_columns(paths[0])[:2])
    t, y, _ = load_columns(paths[1])
    evaluation = {
        "pre_cutoff": cutoff_error(grouped_from_arrays(t, y)).value,
        "post_cutoff": cutoff_error(
            grouped_from_arrays(apply_map(cmap, t), y)).value,
        "n_test": len(t)}
    want = json.dumps({"calibrator": cmap.to_dict(),
                       "evaluation": evaluation}, allow_nan=False)
    assert out == (want + "\n").encode()
    assert len(cmap.breakpoints) == (101 if grid else 3000)


@pytest.mark.parametrize("args", [
    ["audit", "{oracle}", "--oracle"],
    ["calibrate", "{empirical}", "--method", "isotonic",
     "--test-input", "{empirical}"],
    ["certify", "{empirical}", "--c", "4", "--shuffle-seed", "2"],
    ["decide", "{oracle}", "--tau", "0.35", "--ystar", "0.5"],
    ["counterexample-platt"],
])
def test_json_file_and_stdout_bytes_agree(args, empirical_csv, oracle_csv,
                                          tmp_path, capsysbinary):
    args = [a.format(oracle=oracle_csv, empirical=empirical_csv) for a in args]
    assert main(args + ["--out", str(tmp_path / "r.json")]) == 0
    assert main(args) == 0
    assert (tmp_path / "r.json").read_bytes() == capsysbinary.readouterr().out


@pytest.mark.parametrize("args", [
    ["audit", "{empirical}"],
    ["calibrate", "{empirical}", "--method", "platt"],
    ["certify", "{empirical}", "--c", "4"],
    ["decide", "{oracle}", "--tau", "0.35"],
    ["simulate", "--runs", "1", "--n-train", "100", "--n-eval", "200"],
    ["counterexample-platt"],
], ids=lambda args: args[0])
def test_out_into_missing_directory_exit_2(args, empirical_csv, oracle_csv,
                                           tmp_path, capsys):
    args = [a.format(oracle=oracle_csv, empirical=empirical_csv) for a in args]
    out = tmp_path / "missing" / "r.out"
    assert main(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert not out.parent.exists()


def test_simulate_too_small_n_train_exit_2(capsys):
    assert main(["simulate", "--runs", "3", "--n-train", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-train" in captured.err and "Traceback" not in captured.err


def test_counterexample_schema_and_certificate(tmp_path, schema):
    code, obj = run_json(["counterexample-platt"], tmp_path)
    assert code == 0
    validate(obj, schema)
    assert obj["certified_wce"] > 0.01
    assert obj["implied_dce_lower_bound"] == pytest.approx(
        obj["certified_wce"] / 2)


def test_stdout_emission(empirical_csv, capsys):
    assert main(["audit", str(empirical_csv)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "reports" in obj


@pytest.mark.parametrize("args", [
    ["audit", "{csv}", "--bins", "0"],
    ["audit", "{csv}", "--delta", "1.5"],
    ["certify", "{csv}", "--c", "0.8", "--delta", "0"],
    ["certify", "{csv}", "--c", "nan"],
    ["certify", "{csv}", "--c", "inf"],
    ["calibrate", "{csv}", "--method", "modified-platt", "--epsilon", "-1"],
    ["calibrate", "{csv}", "--method", "platt", "--epsilon", "0.1"],
    ["simulate", "--runs", "0"],
    ["simulate", "--tau", "2"],
])
def test_bad_arguments_exit_2(args, empirical_csv, capsys):
    assert main([a.format(csv=empirical_csv) for a in args]) == 2
    assert "error:" in capsys.readouterr().err


def test_byte_order_mark_header(empirical_csv, tmp_path, capsysbinary):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + empirical_csv.read_bytes())
    outs = []
    for path in (empirical_csv, bom):
        assert main(["audit", str(path)]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1]


def test_non_utf8_input_exit_2(tmp_path, capsys):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"forecast,outcome\n0.5,1\xe9\n")
    assert main(["audit", str(p)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_unexpected_value_error_exit_3(empirical_csv, monkeypatch, capsys):
    def broken(data):
        raise ValueError("bug")

    monkeypatch.setattr("cutoffcal.metrics.cutoff_error", broken)
    assert main(["audit", str(empirical_csv)]) == 3
    assert "internal error: bug" in capsys.readouterr().err
