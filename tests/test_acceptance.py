"""Acceptance suite: one test per release criterion, each printing a
single PASS line with its measured quantities (visible with pytest -v -s
or in captured output on failure)."""

import math
import time

import numpy as np
import pytest

from cutoffcal import (GroupedDataset, SeededRng, certify, cutoff_error,
                       fit_isotonic, grouped_from_arrays, lipschitz_wce,
                       oracle_ece, platt_counterexample, risks,
                       run_simulation, SimulationConfig, apply_map)
from cutoffcal.calibrate import _sigmoid, population_platt
from cutoffcal.experiments import _certified_wce
from cutoffcal.metrics import concentration_radius
from oracles import (brute_force_cutoff, exhaustive_monotone_lsq,
                     grid_search_wce)
from paper import (bv_wce, make_perturbed_constant, make_separation_example,
                   make_staircase)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------- 1


def test_criterion_01_scan_equals_enumeration():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        t = np.round(rng.random(n), 2)
        y = (rng.random(n) < rng.random(n)).astype(float)
        data = grouped_from_arrays(t, y)
        assert cutoff_error(data).value == brute_force_cutoff(data)
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0,
           f"1000 instances scan == enumeration bitwise, {elapsed:.2f}s < 5s")


# ---------------------------------------------------------------- 2


def test_criterion_02_analytic_goldens():
    worst = 0.0
    for N in (1, 2, 4, 8):
        data = GroupedDataset.from_atoms(make_staircase(N))
        worst = max(worst, abs(cutoff_error(data).value - 1 / (8 * N * N)))

    degenerate = GroupedDataset.from_atoms([(1.0, 0.0, 1.0)])
    worst = max(worst, abs(cutoff_error(degenerate).value - 1.0))

    for b in (0.1, 0.5, 1.0):
        data = GroupedDataset.from_atoms(make_separation_example(b))
        worst = max(worst, abs(oracle_ece(data) - 0.5 * (1 + b)))
    report(2, worst <= 1e-12,
           f"staircase/degenerate/separation goldens, worst error {worst:.2e}")


# ---------------------------------------------------------------- 3


def test_criterion_03_concentration_coverage():
    # population: staircase N=4, true interval-supremum error 1/128
    atoms = make_staircase(4)
    true_delta = 1 / 128
    t_atoms = np.array([a[0] for a in atoms])
    mu_atoms = np.array([a[1] for a in atoms])
    radius = concentration_radius(1000, 0.05)

    gen = SeededRng(3003).generator()
    start = time.perf_counter()
    hits = 0
    for _ in range(500):
        idx = gen.integers(0, len(atoms), size=1000)
        t = t_atoms[idx]
        y = (gen.random(1000) < mu_atoms[idx]).astype(float)
        est = cutoff_error(grouped_from_arrays(t, y)).value
        hits += abs(est - true_delta) <= radius
    elapsed = time.perf_counter() - start
    freq = hits / 500
    report(3, freq >= 0.95 and elapsed < 120,
           f"coverage {freq:.3f} >= 0.95 at radius {radius:.3f}, "
           f"{elapsed:.1f}s < 120s")


# ---------------------------------------------------------------- 4


def test_criterion_04_metric_sandwich():
    gen = np.random.default_rng(4004)
    ok = True
    for _ in range(200):
        m = int(gen.integers(1, 60))
        t = np.unique(np.round(gen.random(m), 3))
        mu = gen.random(len(t))
        w = gen.random(len(t)) + 0.05
        data = GroupedDataset.from_atoms(list(zip(t, mu, w / w.sum())))
        cut = cutoff_error(data).value
        ok &= cut <= oracle_ece(data) + 1e-9
        ok &= lipschitz_wce(data).objective ** 2 / 36 <= cut + 1e-9
    report(4, ok, "cutoff <= ECE and wce^2/36 <= cutoff on 200 atom draws")


# ---------------------------------------------------------------- 5


def test_criterion_05_bv_sandwich():
    gen = np.random.default_rng(5005)
    ok = True
    for _ in range(100):
        m = int(gen.integers(1, 40))
        t = np.unique(np.round(gen.random(m), 3))
        data = grouped_from_arrays(t, gen.random(len(t)))
        cut = cutoff_error(data).value
        for M in (2.0, 4.0):
            ok &= cut - 1e-9 <= bv_wce(data, M) <= (M + 2) * cut + 1e-9
    report(5, ok, "cutoff <= exact BV error <= (M+2)*cutoff, M in {2,4}")


# ---------------------------------------------------------------- 6


def test_criterion_06_simulation_inequalities():
    start = time.perf_counter()
    records = run_simulation(SimulationConfig(runs=100, master_seed=2026))
    elapsed = time.perf_counter() - start
    ok = all(r.gap <= r.ece + 0.02 for r in records)
    ok &= all(r.monotone_gap <= 2 * r.cutoff + 0.02 for r in records)

    # exact perturbed-constant risk gap at tau = 0.75
    atoms = make_perturbed_constant(0.01)
    risk, bayes, _ = risks(np.array([a[0] for a in atoms]),
                           np.array([a[1] for a in atoms]), 0.75,
                           weights=np.array([a[2] for a in atoms]))
    gap = risk - bayes
    ok &= gap == 0.375
    ok &= elapsed < 180
    report(6, ok,
           f"100 runs: gap <= ece+0.02 and monotone_gap <= 2*cutoff+0.02; "
           f"analytic gap 3/8 exact; {elapsed:.1f}s < 180s")


# ---------------------------------------------------------------- 7


def test_criterion_07_certification_guarantee():
    c, delta, n = 0.75, 0.05, 2000
    grid = np.linspace(0.0, 1.0, 100001)[1:-1]  # oracle holdout support

    def true_delta(model, mu_of_x):
        f = np.broadcast_to(np.asarray(model(grid), dtype=float),
                            grid.shape)
        data = grouped_from_arrays(f, mu_of_x(grid))
        return cutoff_error(data).value

    def adversarial(train_cov, train_y):
        return lambda x: np.full_like(x, 1.0)

    def truthful(train_cov, train_y):
        return lambda x: x

    scenarios = [
        ("adversarial", adversarial, lambda x: np.full_like(x, 0.3),
         lambda x: 0.3),
        ("truthful", truthful, lambda x: x, lambda x: x),
    ]
    gen = SeededRng(7007).generator()
    start = time.perf_counter()
    ok = True
    freqs = []
    for name, trainer, mu_of_x, mu_scalar in scenarios:
        hits = 0
        for _ in range(500):
            x = gen.random(n)
            y = (gen.random(n) < mu_of_x(x)).astype(float)
            verdict = certify(x.tolist(), y, trainer, c=c, delta=delta)
            if verdict.accepted:
                model = verdict.returned_model
            else:
                q = verdict.fallback_mean
                model = lambda z, q=q: q
            hits += true_delta(model, mu_of_x) <= c
        freq = hits / 500
        freqs.append((name, freq))
        ok &= freq >= 1 - 2 * delta - 0.03
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300
    report(7, ok,
           f"P(final error <= c) per trainer {freqs} >= {1-2*delta-0.03:.2f}, "
           f"{elapsed:.1f}s < 300s")


# ---------------------------------------------------------------- 8


def test_criterion_08_isotonic_holdout():
    n, delta = 400, 0.1
    bound = (30 + 2 * math.sqrt(2 * math.log(20))) / 20
    gen = SeededRng(8008).generator()
    start = time.perf_counter()
    hits = 0
    for _ in range(500):
        t = gen.random(2 * n)
        mu = 0.2 + 0.6 * t ** 2
        y = (gen.random(2 * n) < mu).astype(float)
        cal = fit_isotonic(t[:n], y[:n])
        z = apply_map(cal, t[n:])
        est = cutoff_error(grouped_from_arrays(z, y[n:])).value
        hits += est <= bound
    elapsed = time.perf_counter() - start
    freq = hits / 500
    report(8, freq >= 0.9 and elapsed < 180,
           f"holdout error <= {bound:.3f} in {freq:.3f} of 500 reps, "
           f"{elapsed:.1f}s < 180s")


# ---------------------------------------------------------------- 9


def test_criterion_09_isotonic_oracle():
    gen = np.random.default_rng(9009)
    worst = 0.0
    for _ in range(200):
        n = int(gen.integers(1, 9))
        t, y = gen.random(n), gen.random(n)
        cal = fit_isotonic(t, y)
        fitted = apply_map(cal, np.sort(t))
        worst = max(worst,
                    float(np.max(np.abs(fitted - exhaustive_monotone_lsq(t, y)))))

    # block identity: per fitted level, sum of fits equals sum of outcomes
    block_worst = 0.0
    for _ in range(50):
        n = int(gen.integers(2, 40))
        t = np.round(gen.random(n), 1)
        y = gen.random(n)
        cal = fit_isotonic(t, y)
        fitted = apply_map(cal, t)
        for v in np.unique(fitted):
            sel = fitted == v
            block_worst = max(block_worst,
                              abs(math.fsum(fitted[sel]) - math.fsum(y[sel])))
    report(9, worst <= 1e-9 and block_worst <= 1e-10,
           f"PAVA vs exhaustive oracle worst {worst:.2e} <= 1e-9, "
           f"block identity worst {block_worst:.2e} <= 1e-10")


# ---------------------------------------------------------------- 10


def test_criterion_10_counterexample_certificate():
    _, _, wce = platt_counterexample()

    # negative control: logistic-realizable conditional means are fixed
    forecasts = [0.0, 0.25, 0.5, 1.0]
    q = _sigmoid(2.0 * np.array(forecasts) - 0.5).tolist()
    a, b = population_platt(forecasts, q, [0.25] * 4)
    control = _certified_wce(list(zip(forecasts, q, [0.25] * 4)), a, b)
    report(10, wce > 0.01 and control < 1e-3,
           f"certified wce {wce:.4f} > 0.01; realizable control {control:.2e}"
           f" < 1e-3")


# ---------------------------------------------------------------- 11


def test_criterion_11_lp_certified():
    gen = np.random.default_rng(11011)
    ok = True
    worst_gap, worst_kkt = 0.0, 0.0
    for _ in range(100):
        m = int(gen.integers(1, 7))
        t = np.unique(np.round(gen.random(m), 3))
        data = grouped_from_arrays(t, gen.random(len(t)))
        lw = lipschitz_wce(data)
        grid = grid_search_wce(data)
        ok &= grid - 1e-9 <= lw.objective <= grid + 0.025
        ok &= lw.kkt_residual < 1e-9
        worst_gap = max(worst_gap, abs(lw.objective - grid))
        worst_kkt = max(worst_kkt, lw.kkt_residual)
    report(11, ok,
           f"LP within +0.025/-1e-9 of 41-point grid (worst {worst_gap:.4f}),"
           f" KKT residual max {worst_kkt:.2e} < 1e-9")
