"""Independent oracles that several test modules check the library against:
exhaustive interval enumeration, exhaustive monotone least squares, a
grid search for the Lipschitz weighted error and the threshold loss that
prices each decision."""

import itertools

import numpy as np

from cutoffcal.metrics import _prefix_sums


def brute_force_cutoff(data):
    """O(m^2) enumeration over all contiguous group ranges plus the empty one.

    Differences are taken of the scan's own prefix sums, so the result is
    bitwise the scan's when both find the same range."""
    prefix = _prefix_sums(data.residual_sums)
    best = 0.0
    for i in range(len(prefix)):
        for j in range(i + 1, len(prefix)):
            best = max(best, abs(float(prefix[j] - prefix[i])))
    return best / data.n


def exhaustive_monotone_lsq(t, y):
    """Oracle: minimize sum (v_i - y_i)^2 over non-decreasing v, n <= 8.

    Enumerates all contiguous-block partitions of the sorted points; within
    a block the optimal value is the block mean, and a partition is optimal
    iff its block means are attained (clipping handled by comparing SSE
    over all partitions with means forced non-decreasing via isotonic
    ordering check).
    """
    order = np.argsort(t, kind="stable")
    y = np.asarray(y, dtype=float)[order]
    n = len(y)
    best_sse, best_fit = np.inf, None
    for mask in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, m in enumerate(mask) if m] + [n]
        means = [y[a:b].mean() for a, b in zip(bounds, bounds[1:])]
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fit = np.concatenate([np.full(b - a, m)
                              for (a, b), m in zip(zip(bounds, bounds[1:]),
                                                   means)])
        sse = float(np.sum((fit - y) ** 2))
        if sse < best_sse - 1e-15:
            best_sse, best_fit = sse, fit
    return best_fit


def grid_search_wce(data, points=41):
    """Exact maximum over a uniform 41-point grid per weight, respecting the
    adjacent Lipschitz constraints. The chain structure lets the exhaustive
    maximum be computed by dynamic programming over grid states; the result
    is identical to enumerating all points^m feasible combinations."""
    grid = np.linspace(-1.0, 1.0, points)
    r = data.residual_sums / data.n
    dt = np.diff(data.forecasts)
    value = grid * r[0]
    for j in range(1, len(r)):
        feasible = np.abs(grid[None, :] - grid[:, None]) <= dt[j - 1] + 1e-12
        carried = np.where(feasible, value[:, None], -np.inf).max(axis=0)
        value = carried + grid * r[j]
    return float(value.max())


def loss_bd(y, yhat, tau):
    """Threshold loss: tau for a false positive, (1-tau) scaled by y for a
    miss. y and yhat are scalars or array-likes; scalars give a float."""
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    loss = tau * (1.0 - y) * yhat + (1.0 - tau) * y * (1 - yhat)
    return float(loss) if loss.ndim == 0 else loss
