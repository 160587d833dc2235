"""The benchmark's workloads: seeded inputs, the CLI argv and the checker.

Each workload turns (seed, index) into input files in a work directory and
returns an Instance; a run of the benchmark uses a few indices per seed.
The program receives only those files and the argv; the reference the
checker compares against is computed here, once per input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check


@dataclass
class Instance:
    argv: list                          # arguments after `cutoffcal`
    rows: int                           # input rows the invocation processes
    inputs: dict                        # file name -> sha256 of its bytes
    check: Callable[[bytes], list]      # output -> problems (empty if correct)


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def _outcome_mean(t):
    """A mildly miscalibrated conditional mean; stays in [0, 1] on [0, 1]."""
    return t + 0.05 * np.sin(2.0 * np.pi * t)


def _bernoulli(rng, mean):
    return (rng.uniform(size=len(mean)) < mean).astype(float)


def _distinct_uniform(rng, n):
    t = rng.uniform(size=n)
    if len(np.unique(t)) != n:
        raise RuntimeError("seeded forecasts are not all distinct")
    return t


def _write_csv(path: Path, header: str, *columns) -> str:
    """Write columns with shortest round-trip reprs; return the sha256."""
    lines = (",".join(map(repr, row)) for row in zip(*(c.tolist()
                                                       for c in columns)))
    data = (header + "\n" + "\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def audit_distinct(seed: int, index: int, workdir: Path) -> Instance:
    n = 20_000
    rng = _rng(seed, index, 1)
    t = _distinct_uniform(rng, n)
    y = _bernoulli(rng, _outcome_mean(t))
    path = workdir / f"audit-distinct-{index}.csv"
    sha = _write_csv(path, "forecast,outcome", t, y)
    ref = check.AuditReference(t, y, bins=10, delta=0.05)
    return Instance(["audit", str(path), "--delta", "0.05", "--bins", "10"],
                    n, {path.name: sha}, ref.check)


def audit_ties(seed: int, index: int, workdir: Path) -> Instance:
    n = 500_000
    rng = _rng(seed, index, 2)
    t = rng.integers(0, 101, size=n) / 100.0
    mu = np.clip(_outcome_mean(t) + rng.uniform(-0.05, 0.05, size=n), 0, 1)
    y = _bernoulli(rng, mu)
    path = workdir / f"audit-ties-{index}.csv"
    sha = _write_csv(path, "forecast,outcome,oracle_mean", t, y, mu)
    ref = check.AuditReference(t, y, bins=10, delta=0.05, oracle=mu)
    return Instance(["audit", str(path), "--oracle", "--delta", "0.05",
                     "--bins", "10"], n, {path.name: sha}, ref.check)


def calibrate_isotonic(seed: int, index: int, workdir: Path) -> Instance:
    n_train, n_test = 80_000, 20_000
    rng = _rng(seed, index, 3)
    t = _distinct_uniform(rng, n_train)
    y = _bernoulli(rng, _outcome_mean(t))
    t_test = rng.uniform(size=n_test)
    y_test = _bernoulli(rng, _outcome_mean(t_test))
    train = workdir / f"train-{index}.csv"
    test = workdir / f"holdout-{index}.csv"
    inputs = {train.name: _write_csv(train, "forecast,outcome", t, y),
              test.name: _write_csv(test, "forecast,outcome", t_test, y_test)}
    ref = check.IsotonicReference(t, y, t_test, y_test)
    return Instance(["calibrate", str(train), "--method", "isotonic",
                     "--test-input", str(test)], n_train + n_test, inputs,
                    ref.check)


def simulate(seed: int, index: int, workdir: Path) -> Instance:
    # Each run draws its own misspecification, and the LP's time follows
    # it: 4 runs of n_eval=10k varied by 27% (IQR/median) between seeds,
    # 16 runs of 2.5k by 7%.
    runs, n_train, n_eval = 16, 500, 2_500
    # the program's own seed is its only input
    program_seed = 1000 * seed + index
    ref = check.SimulateReference(runs)
    return Instance(["simulate", "--runs", str(runs), "--n-train",
                     str(n_train), "--n-eval", str(n_eval), "--seed",
                     str(program_seed)],
                    runs * (n_train + n_eval), {}, ref.check)


WORKLOADS = {
    "audit-distinct": audit_distinct,
    "audit-ties": audit_ties,
    "calibrate-isotonic": calibrate_isotonic,
    "simulate": simulate,
}
