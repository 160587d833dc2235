"""The output checker accepts the program's outputs and flags corrupted ones."""

import csv
import io
import json

import numpy as np
import pytest

import check
from cutoffcal.cli import main


def run_cli(capsys, argv) -> bytes:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


def write_csv(path, *columns, header="forecast,outcome"):
    rows = zip(*(c.tolist() for c in columns))
    path.write_text(header + "\n" + "".join(",".join(map(repr, r)) + "\n"
                                            for r in rows))


@pytest.fixture
def data():
    rng = np.random.default_rng(5)
    t = rng.uniform(size=400)
    y = (rng.uniform(size=400) < t).astype(float)
    return t, y


def test_audit_checker_flags_shifted_cutoff(tmp_path, capsys, data):
    t, y = data
    path = tmp_path / "a.csv"
    write_csv(path, t, y)
    ref = check.AuditReference(t, y, bins=10, delta=0.05)
    out = run_cli(capsys, ["audit", str(path)])
    assert ref.check(out) == []

    report = json.loads(out)
    cutoff = next(r for r in report["reports"] if r["metric_name"] == "cutoff")
    cutoff["value"] += 1e-6
    problems = ref.check(json.dumps(report).encode())
    assert any(p.startswith("cutoff:") for p in problems)


def test_audit_checker_flags_interval_and_lipschitz(tmp_path, capsys, data):
    t, y = data
    path = tmp_path / "a.csv"
    write_csv(path, t, y)
    ref = check.AuditReference(t, y, bins=10, delta=0.05)
    report = json.loads(run_cli(capsys, ["audit", str(path)]))
    by_name = {r["metric_name"]: r for r in report["reports"]}
    lo, hi = by_name["cutoff"]["argmax_interval"]
    by_name["cutoff"]["argmax_interval"] = [lo, hi + 1 if hi + 1 < 400
                                            else hi - 1]
    by_name["lipschitz_wce"]["value"] += 1e-8
    problems = ref.check(json.dumps(report).encode())
    assert any("argmax interval" in p for p in problems)
    assert any(p.startswith("lipschitz_wce:") for p in problems)


def test_audit_oracle_checker(tmp_path, capsys):
    rng = np.random.default_rng(6)
    t = rng.integers(0, 11, size=300) / 10.0
    mu = np.clip(t + rng.uniform(-0.1, 0.1, size=300), 0, 1)
    y = (rng.uniform(size=300) < mu).astype(float)
    path = tmp_path / "o.csv"
    write_csv(path, t, y, mu, header="forecast,outcome,oracle_mean")
    ref = check.AuditReference(t, y, bins=10, delta=0.05, oracle=mu)
    out = run_cli(capsys, ["audit", str(path), "--oracle"])
    assert ref.check(out) == []
    report = json.loads(out)
    report["reports"] = [r for r in report["reports"]
                         if r["metric_name"] != "oracle_ece"]
    assert ref.check(json.dumps(report).encode())


def test_isotonic_checker_flags_non_monotone_breakpoint(tmp_path, capsys,
                                                        data):
    t, y = data
    t_test, y_test = t[:100] * 0.9, y[:100]
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_csv(train, t, y)
    write_csv(test, t_test, y_test)
    ref = check.IsotonicReference(t, y, t_test, y_test)
    out = run_cli(capsys, ["calibrate", str(train), "--method", "isotonic",
                           "--test-input", str(test)])
    assert ref.check(out) == []

    obj = json.loads(out)
    bps = obj["calibrator"]["breakpoints"]
    k = next(i for i in range(1, len(bps)) if bps[i][1] > bps[i - 1][1])
    bps[k][1] = bps[k - 1][1] - 0.01
    problems = ref.check(json.dumps(obj).encode())
    assert f"non-monotone breakpoint at index {k}" in problems


def test_simulate_checker_flags_wce_above_ece(capsys):
    argv = ["simulate", "--runs", "2", "--n-train", "200", "--n-eval", "300",
            "--seed", "3"]
    out = run_cli(capsys, argv)
    ref = check.SimulateReference(runs=2)
    assert ref.check(out) == []
    assert ref.check(run_cli(capsys, argv)) == []

    rows = list(csv.reader(io.StringIO(out.decode())))
    col = rows[0].index("lipschitz_wce")
    rows[1][col] = repr(float(rows[1][rows[0].index("ece")]) + 1e-6)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    corrupted = buf.getvalue().encode()
    problems = check.SimulateReference(runs=2).check(corrupted)
    assert problems == ["record 0: violates 0 <= lipschitz_wce <= ece"]
    assert "output differs from an earlier run of this seed" in \
        ref.check(corrupted)


def test_simulate_lipschitz_slack_is_the_lp_tolerance():
    record = dict(alpha=0.5, cutoff=0.01, ece=0.05, lipschitz_wce=0.05,
                  risk=0.2, bayes_risk=0.1, monotone_risk=0.15, gap=0.1,
                  monotone_gap=0.05, seed=0.0, refits=0.0)
    assert check._record_problems(dict(record, lipschitz_wce=0.05 + 2e-12),
                                  0) == []
    assert check._record_problems(dict(record, lipschitz_wce=0.05 + 2e-9),
                                  0) == ["violates 0 <= lipschitz_wce <= ece"]


def test_exact_scan_matches_brute_force():
    rng = np.random.default_rng(7)
    t = rng.integers(0, 20, size=60) / 19.0
    y = (rng.uniform(size=60) < 0.5).astype(float)
    groups = check.ExactGroups(t, y)
    best = max(groups.range_mean(i, j) for i in range(len(groups))
               for j in range(i, len(groups)))
    assert groups.scan() == best
