"""Simulation harness and the logistic-rescaling counterexample.

Covers the misspecified-logistic simulation (risk gaps vs calibration
metrics) and the population logistic-rescaling counterexample with a
Lipschitz weighted-error certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .calibrate import PlattDivergence, _logistic_fit, _sigmoid, population_platt
from .core import (GroupedDataset, SeededRng, ValidationError, _check_int,
                   _check_number, grouped_from_arrays)
from .decision import risks
from .metrics import cutoff_error, lipschitz_wce, oracle_ece

__all__ = [
    "SimulationConfig",
    "SimulationRunRecord",
    "run_simulation",
    "platt_counterexample",
]


@dataclass(frozen=True)
class SimulationConfig:
    runs: int = 100
    n_train: int = 500
    n_eval: int = 10000
    tau: float = 0.35
    master_seed: int = 0

    def __post_init__(self):
        for name in ("runs", "n_train", "n_eval"):  # longest list or array
            _check_int(name, getattr(self, name), 1, np.iinfo(np.intp).max)
        _check_number("tau", self.tau, "[0, 1]")


@dataclass(frozen=True)
class SimulationRunRecord:
    alpha: float
    cutoff: float
    ece: float
    lipschitz_wce: float
    risk: float
    bayes_risk: float
    monotone_risk: float
    gap: float
    monotone_gap: float
    seed: int
    refits: int = 0


def _conditional_mean(x: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination of a parabola symmetric about 0.5 and the identity."""
    return alpha * (1.0 - 2.0 * x) ** 2 + (1.0 - alpha) * x


def _one_run(config: SimulationConfig,
             run_index: int) -> SimulationRunRecord:
    rng = SeededRng(config.master_seed, run_index).generator()
    alpha = float(rng.uniform())
    refits = 0
    while True:
        x = rng.uniform(size=config.n_train)
        y = (rng.uniform(size=config.n_train)
             < _conditional_mean(x, alpha)).astype(float)
        try:
            # forecast model: plain logistic MLE on (X, Y), no target
            # smoothing; each row is a group of mass 1
            theta = _logistic_fit(x, y, np.ones_like(x))
            break
        except PlattDivergence:
            refits += 1
            if refits > 10:
                raise ValidationError(
                    f"n_train={config.n_train}: no logistic fit in "
                    f"{refits} training draws (a separable sample has "
                    "none); use a larger --n-train") from None

    x_eval = rng.uniform(size=config.n_eval)
    mu = _conditional_mean(x_eval, alpha)
    f = _sigmoid(theta[0] * x_eval + theta[1])

    data = grouped_from_arrays(f, mu)
    cutoff = cutoff_error(data).value
    ece = oracle_ece(data)
    wce = lipschitz_wce(data).objective

    risk, bayes, mono = risks(f, mu, config.tau)
    return SimulationRunRecord(alpha, cutoff, ece, wce, risk, bayes, mono,
                               risk - bayes, risk - mono, run_index, refits)


def run_simulation(config: SimulationConfig) -> List[SimulationRunRecord]:
    """Run the full simulation; records are deterministic per master_seed.

    Each run derives its own seed stream from (master_seed, run_index), so
    record i does not depend on how many runs are requested.
    """
    return [_one_run(config, i) for i in range(config.runs)]


def _rescaled_atoms(atoms, a: float, b: float) -> GroupedDataset:
    """(v, mean, mass) atoms moved to sigmoid(a*v + b); equal images pooled."""
    v, q, w = np.array(atoms, dtype=float).T
    z = _sigmoid(a * v + b)
    return GroupedDataset.from_atoms(np.column_stack((z, q, w)))


def _certified_wce(atoms, a: float, b: float) -> float:
    """Lipschitz weighted error of the atoms rescaled by sigmoid(a*v + b)."""
    return lipschitz_wce(_rescaled_atoms(atoms, a, b)).objective


# the largest scan error of 200 SeededRng(20240915) draws with wCE > 0.01
_COUNTEREXAMPLE_MEANS = (0.05154470985927151, 0.7979676247807702,
                         0.8157047182944249, 0.8263232207585449)


def platt_counterexample():
    """A 4-atom distribution the population logistic rescaler cannot fix.

    Forecasts are {0, 0.25, 0.5, 1} with equal masses and the conditional
    means above. The exact population logistic-loss minimizer (a, b)
    leaves the rescaled forecasts with Lipschitz weighted error above
    0.01, which certifies a strictly positive distance from the nearest
    calibrated forecast (wCE <= 2 * dCE, so dCE > 0.005). The rescaled
    atoms' interval-supremum error is also large, so the failure is
    visible to the scan at realistic sample sizes.

    Returns (atoms, (a, b), certified_wce).
    """
    atoms = [(t, q, 0.25)
             for t, q in zip((0.0, 0.25, 0.5, 1.0), _COUNTEREXAMPLE_MEANS)]
    a, b = population_platt(*zip(*atoms))
    return atoms, (a, b), _certified_wce(atoms, a, b)
