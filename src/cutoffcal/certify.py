"""Two-stage split-and-test certification with a distribution-free guarantee.

Train an arbitrary model on the first half of the data, estimate its
interval-supremum calibration error on the second half, and accept it only
if the estimate clears a concentration-corrected threshold; otherwise fall
back to the constant predictor at the second-half outcome mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .calibrate import CalibratorMap
from .core import SeededRng, ValidationError, _check_unit, grouped_from_arrays
from .metrics import concentration_radius, cutoff_error

__all__ = ["CertificationVerdict", "certify", "min_admissible_c"]


@dataclass(frozen=True)
class CertificationVerdict:
    """Accept/fallback decision with the quantities behind it.

    accepted iff estimate <= threshold = c - radius(delta, floor(n/2)).
    When rejected, returned_model is the constant map at the second-half
    outcome mean.
    """

    accepted: bool
    estimate: float
    threshold: float
    c: float
    delta: float
    returned_model: object
    fallback_mean: float
    n: int

    def to_dict(self) -> dict:
        """Fields in order, returned_model last: its dict or trained:<type>."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        model = d.pop("returned_model")
        d["returned_model"] = (model.to_dict()
                               if isinstance(model, CalibratorMap)
                               else f"trained:{type(model).__name__}")
        return d


def min_admissible_c(n: int, delta: float) -> float:
    """Smallest threshold c for which the 1 - 2*delta guarantee applies."""
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta must be in (0, 1], got {delta!r}")
    if not n >= 2:
        raise ValidationError(f"need n >= 2 samples, got {n!r}")
    return math.sqrt(-math.log(delta) / (2.0 * (n // 2)))


def certify(covariates, outcomes,
            trainer: Callable[[np.ndarray, np.ndarray], Callable],
            c: float, delta: float,
            split_seed: Optional[SeededRng] = None) -> CertificationVerdict:
    """Run the two-stage procedure and return the verdict.

    covariates: rows along the first axis as np.asarray sees them, one per
    outcome (an object array carries opaque handles). trainer gets the first
    ceil(n/2) rows and outcomes and returns a model, called once on the
    other rows, that must return one forecast in [0, 1] per row. The split
    is in input order; split_seed permutes the rows first (for sorted files).
    """
    x = np.asarray(covariates)
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.ndim != 1 or x.shape[:1] != outcomes.shape:
        raise ValidationError(
            f"need one covariate row per outcome, got covariates of shape "
            f"{x.shape} and outcomes of shape {outcomes.shape}")
    _check_unit("outcomes", outcomes)
    n = len(outcomes)
    if n < 4:
        raise ValidationError("need at least 4 samples")
    if not math.isfinite(c):
        raise ValidationError(f"c must be finite, got {c!r}")
    floor = min_admissible_c(n, delta)
    if c < floor:
        raise ValidationError(
            f"c={c} below the admissible floor sqrt(ln(1/delta)/(2*floor(n/2)))"
            f" = {floor:.6g}")

    idx = np.arange(n)
    if split_seed is not None:
        idx = split_seed.generator().permutation(n)
    k = -(-n // 2)  # ceil(n/2)
    train_idx, test_idx = idx[:k], idx[k:]

    model = trainer(x[train_idx], outcomes[train_idx])
    test_y = outcomes[test_idx]
    forecasts = np.asarray(model(x[test_idx]), dtype=float)
    if forecasts.shape != test_y.shape:
        name = getattr(model, "__qualname__", type(model).__name__)
        raise ValidationError(
            f"model {name} must return one forecast per held-out row: "
            f"expected shape {test_y.shape}, got {forecasts.shape}")

    est = cutoff_error(grouped_from_arrays(forecasts, test_y))
    threshold = c - concentration_radius(n // 2, delta)
    fallback_mean = float(np.mean(test_y))
    accepted = est.value <= threshold
    returned = model if accepted else CalibratorMap(
        "constant", constant_value=fallback_mean)
    return CertificationVerdict(accepted, est.value, threshold, c, delta,
                                returned, fallback_mean, n)
