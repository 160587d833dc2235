"""Child processes and per-invocation verdicts."""

import sys

import run
from workloads import Instance


def test_run_child_reports_exit_code_and_rusage(tmp_path):
    code, wall, usage = run.run_child(
        [sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"],
        run.child_env(), tmp_path, tmp_path / "out.txt")
    assert code == 3
    assert wall > 0 and usage.ru_maxrss > 0
    assert (tmp_path / "out.txt").read_text() == "hi\n"


def test_run_child_kills_a_child_past_its_timeout(tmp_path):
    code, wall, _ = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        run.child_env(), tmp_path, timeout=0.5)
    assert code == -9
    assert wall < 10


def test_child_env_pins_threads_and_source_tree(monkeypatch):
    monkeypatch.setenv("CALIB_THREADS", "4")
    env = run.child_env()
    assert "CALIB_THREADS" not in env
    assert env["PYTHONPATH"] == str(run.SRC)
    assert all(env[k] == "1" for k in run.PINNED)


def test_verify_counts_exit_codes_and_checker_errors(tmp_path):
    (tmp_path / "stderr.txt").write_text("error: bad row\n")
    out = tmp_path / "out.txt"
    out.write_bytes(b"{}")

    def broken_check(output):
        raise KeyError("reports")

    instance = Instance([], 1, {}, broken_check)
    assert run.verify(instance, 2, out, tmp_path) == \
        ["exit code 2: error: bad row"]
    assert run.verify(instance, 0, out, tmp_path)[0].startswith(
        "checker failed on the output")
    ok = Instance([], 1, {}, lambda output: [])
    assert run.verify(ok, 0, out, tmp_path) == []
