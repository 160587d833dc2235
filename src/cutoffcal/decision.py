"""Plug-in, Bayes and best-monotone risks of cost-sensitive binary
decisions, and the sign-testing risk.

Evaluation follows the oracle plug-in convention: conditional means stand
in for outcomes, so risks are exact functionals of the evaluation atoms
rather than Monte Carlo draws.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .core import _check_number, _check_rows, _check_weights
from .metrics import _prefix_sums

__all__ = ["risks", "risk_st"]


def _normalised_weights(weights, shape) -> np.ndarray:
    """Uniform 1/n weights when weights is None; else the checked weights
    divided by their sum."""
    if weights is None:
        return np.full(shape, 1.0 / shape[0])
    w = _check_weights("weights", weights, shape)
    return w / np.sum(w)


def risks(forecasts, means, tau: float,
          weights=None) -> Tuple[float, float, float]:
    """(plug-in, Bayes, best monotone) risks, the one risk pricer.

    weights defaults to uniform; fractional weights let analytic atom
    constructions be evaluated exactly. ValidationError unless tau is one
    number in [0, 1], the forecasts and the means are finite values in
    [0, 1], the rows are non-empty 1-D arrays of equal length, and the
    weights are finite, non-negative, one per row and not all zero.

    Acting costs tau (1 - mean) and passing (1 - tau) mean, exactly
    mean - tau more. Plug-in acts on 1{t >= tau}; Bayes (the best wrapper
    for injective t) takes the cheaper action per row. Both are pairwise
    sums of one length (a BLAS dot's order would follow the thread count),
    so Bayes <= plug-in in floating point. Monotone rules are
    1{t >= tau'} and 1{t <= tau'}, tau' in {0, forecasts..., 1}. Sort rows
    by forecast; let P[k] be the prefix sums of w (mean - tau), A the cost
    of acting on all rows (both compensated) and K = A + P[n] that of
    passing. Acting on all but the k lowest forecasts costs A + P[k],
    acting on only those k costs K - P[k], k at the boundaries between
    runs of tied forecasts. 1{t >= tau'} acts on t = 1, so k = n is
    dropped when max t = 1; 1{t <= tau'} acts on t = 0, so k = 0 is
    dropped when min t = 0. The exact minimum lies between Bayes and
    plug-in and is clamped there.
    """
    _check_number("tau", tau, "[0, 1]")
    t, mu = _check_rows(forecasts, means=means)
    w = _normalised_weights(weights, t.shape)
    act, skip = tau * (1.0 - mu), (1.0 - tau) * mu
    plug_in = float(np.sum(w * np.where(t >= tau, act, skip)))
    bayes = float(np.sum(w * np.minimum(act, skip)))
    order = np.argsort(t, kind="stable")
    t = t[order]
    prefix = _prefix_sums((w * (mu - tau))[order])
    k = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1], [True])))
    ge = k[:-1] if t[-1] == 1.0 else k
    le = k[1:] if t[0] == 0.0 else k
    acting = _prefix_sums(w * act)[-1]
    best = acting + min(prefix[ge].min(), prefix[-1] - prefix[le].max())
    monotone = min(max(float(best), bayes), plug_in)
    return plug_in, bayes, monotone


def risk_st(forecasts, outcomes, ystar: float, weights=None) -> float:
    """Sign-testing risk: penalty |y - ystar| when the forecast sits on the
    wrong side of ystar. ystar must be one number in [0, 1], forecasts
    and outcomes non-empty 1-D arrays of equal length with values in
    [0, 1]."""
    _check_number("ystar", ystar, "[0, 1]")
    t, y = _check_rows(forecasts, outcomes=outcomes)
    w = _normalised_weights(weights, t.shape)
    over = (y - ystar) * (t <= ystar) * (y > ystar)
    under = (ystar - y) * (t > ystar) * (y <= ystar)
    return float(np.sum(w * (over + under)))

