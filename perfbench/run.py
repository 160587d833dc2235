"""cutoffcal benchmark: end-to-end CLI timings, or a per-layer traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file. The
program is used straight from its source tree (PYTHONPATH=src), with BLAS
and OpenMP pinned to one thread and CALIB_THREADS cleared.

--trace 0 drives the CLI as a closed loop with one client: one child
process at a time, each a fresh `cutoffcal` invocation, for S seconds. It
reports the median wall time, rows per second, CPU time and peak RSS of
the children. Before each invocation it also times a fresh interpreter
importing cutoffcal.cli and building its parser, and reports the median
of those as setup_s.

--trace 1 runs the same argv in process (traced.py), alternating traced
and untraced calls for S seconds, and reports the per-layer metrics.

Every output is checked against references the benchmark computes itself
(check.py). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a report
with sample counts, input hashes and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
import traced as tr

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Inputs per run, invoked in turn and made when first needed. The LP's run
# time differs by 10-30% between inputs of the same size, so a run spreads
# its samples over several inputs to keep its median steady across seeds.
# simulate repeats its seeds so that repeat runs can be compared bitwise.
INPUTS_PER_RUN = {"simulate": 3}
DEFAULT_INPUTS_PER_RUN = 6
CHILD_TIMEOUT_S = 120.0
MAIN = "import sys; from cutoffcal.cli import main; sys.exit(main())"
SETUP = "from cutoffcal.cli import build_parser; build_parser()"
WHERE = "import cutoffcal.cli; print(cutoffcal.cli.__file__)"

END_TO_END = {"wall_s": "s", "rows_per_s": "rows/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CALIB_THREADS", "PYTHONPATH", "PYTHONHOME")}
    env.update(PINNED, PYTHONPATH=str(SRC))
    return env


def run_child(cmd, env, cwd, stdout_path=None, timeout=CHILD_TIMEOUT_S):
    """Run cmd to completion; return (exit code, wall s, rusage).

    stderr goes to cwd/stderr.txt. The child is reaped with os.wait4 for
    its own rusage. A watchdog kills it after `timeout`; it only signals a
    child that has not exited.
    """
    with open(stdout_path or os.devnull, "wb") as out, \
            open(Path(cwd) / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        lock, exited = threading.Lock(), []

        def kill():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            # wait without reaping, so the watchdog never signals a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                exited.append(True)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def failure(code, workdir) -> list:
    tail = (workdir / "stderr.txt").read_text(errors="replace").strip()
    return [f"exit code {code}: {tail[-300:]}"]


def verify(instance, code, output: Path, workdir) -> list:
    """Problems with one invocation: its exit code, then its output."""
    if code != 0:
        return failure(code, workdir)
    try:
        return instance.check(output.read_bytes())
    except Exception as e:  # output malformed in a way no check foresaw
        return [f"checker failed on the output: {e!r}"]


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "cutoffcal").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "pinned": {k: v for k, v in child_env().items()
                   if k.endswith("_NUM_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from its own .git only ('unknown' if
    the checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(instance, seconds, env, workdir):
    """Closed loop of CLI children; invocation i runs instance(i). Runs
    until the children have taken `seconds`; returns (samples, attempted,
    failed, problems)."""
    code, _, _ = run_child([sys.executable, "-c", WHERE], env, workdir,
                           workdir / "where.txt")
    where = Path((workdir / "where.txt").read_text().strip())
    if code != 0 or SRC not in where.parents:
        raise RuntimeError(f"cutoffcal.cli does not import from {SRC}")
    samples = {name: [] for name in END_TO_END}
    attempted, failed, problems = 0, 0, []
    measured = 0.0
    while attempted == 0 or measured < seconds:
        # one set-up sample per invocation, so that both see the same
        # machine conditions over the run
        code, wall, _ = run_child([sys.executable, "-c", SETUP], env,
                                  workdir)
        if code != 0:
            raise RuntimeError(f"setup child failed: {failure(code, workdir)}")
        samples["setup_s"].append(wall)
        measured += wall
        current = instance(attempted)
        cmd = [sys.executable, "-c", MAIN, *current.argv]
        out = workdir / "out.txt"
        code, wall, usage = run_child(cmd, env, workdir, out)
        measured += wall
        attempted += 1
        found = verify(current, code, out, workdir)
        if found:
            failed += 1
            problems += found[:3]
        samples["wall_s"].append(wall)
        samples["rows_per_s"].append(current.rows / wall)
        samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
        samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
    return samples, attempted, failed, problems


def traced(instance, seconds, env, workdir):
    """In-process traced run of instance(0) in one child; returns (samples,
    attempted, failed, problems)."""
    current = instance(0)
    cmd = [sys.executable, str(HERE / "traced.py"), "--seconds",
           str(seconds), "--outdir", str(workdir), "--", *current.argv]
    code, _, _ = run_child(cmd, env, workdir, timeout=3 * seconds + 60)
    if code != 0:
        raise RuntimeError(f"traced run failed: {failure(code, workdir)}")
    result = json.loads((workdir / "trace.json").read_text())
    attempted, failed, problems = 0, 0, []
    for call in result["calls"]:
        attempted += 1
        found = verify(current, call["exit"], workdir / call["output"],
                       workdir)
        if found:
            failed += 1
            problems += found[:3]
    samples = {name: [m[name] for m in result["metrics"]]
               for name in tr.PER_LAYER if name != "trace.overhead_frac"}
    walls = {flag: stats.summarize([c["wall_s"] for c in result["calls"]
                                    if c["traced"] is flag
                                    and not c["warmup"]])["median"]
             for flag in (True, False)}
    samples["trace.overhead_frac"] = [walls[True] / walls[False] - 1.0]
    spans_path = WORK / "results" / f"{workdir.name}-spans.json"
    spans_path.write_text(json.dumps({k: result[k]
                                      for k in ("spans", "counts")}))
    return samples, attempted, failed, problems


def main(argv=None) -> int:
    # pin this process too, before numpy loads, so that no idle BLAS thread
    # competes with the child being timed
    os.environ.update(PINNED)
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="cutoffcal benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "cutoffcal" / "cli.py").is_file():
        print(f"error: no cutoffcal source tree at {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = WORK / tag
    workdir.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    try:
        make = WORKLOADS[args.workload]
        per_run = INPUTS_PER_RUN.get(args.workload, DEFAULT_INPUTS_PER_RUN)
        made = {}

        def instance(invocation):
            index = invocation % per_run
            if index not in made:
                made[index] = make(args.seed, index, workdir)
            return made[index]

        measure = traced if args.trace else end_to_end
        samples, attempted, failed, problems = measure(
            instance, args.seconds, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = tr.PER_LAYER if args.trace else END_TO_END
    summary = {name: stats.summarize(samples[name]) for name in units}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "argv": [["cutoffcal", *i.argv] for i in made.values()],
        "rows": made[0].rows,
        "inputs_sha256": {k: v for i in made.values()
                          for k, v in i.inputs.items()},
        "metrics": {name: dict(summary[name], unit=units[name])
                    for name in units},
        "samples": {name: samples[name] for name in units},
        "problems": problems[:20],
        "environment": environment(),
    }
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(report,
                                                             indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": summary[name]["median"],
                           "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
