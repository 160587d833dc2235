"""The paper's comparison exhibits, which no command of the package needs:
the bounded-variation weighted error, the effective support size,
mixtures of threshold losses and three analytic atom sets. The tests and
the acceptance criteria check them, and check the package against them.
They take the fixed arguments the tests pass and check none of them.

Atom sets are (forecast, conditional_mean, mass) triples, ready for
GroupedDataset.from_atoms; a mixture is a sequence of (tau, weight)
pairs with weights summing to 1.
"""

import math

import numpy as np

from cutoffcal.metrics import _prefix_sums
from oracles import loss_bd


def bv_wce(data, total_variation):
    """Exact bounded-variation weighted error V(M): the maximum of
    sum_j w_j r_j / n over |w_j| <= 1 and sum_j |w_{j+1} - w_j| <= M,
    for M = total_variation >= 2 (inf allowed).

    At a vertex of this LP every maximal run of equal w sits at +-1 but
    at most one, whose value a the tight budget row pins. An interior run
    has equal neighbours (else the TV would not depend on a), so TV =
    (even) + 2 |L - a|; an end run gives TV = (even) + |L - a|. So a is an
    integer for even M, and V(k) = phi(k) there, phi(k) being the best
    r.w over w in {-1, 0, 1}^m with TV(w) <= k; at odd k a may be a half,
    V(k) = max(phi(k), (phi(k-1) + phi(k+1)) / 2), and V is linear in
    between (the concave envelope of phi, as Lagrangian duality gives for
    the totally unimodular LP without the budget row).

    phi(0..B) is a DP over budget layers b and levels l in {-1, 0, 1}:
    the best value of w_0..w_j with w_j = l and TV <= b is F[l][j] =
    l P[j+1] + max_{i <= j} (G[i] - l P[i]), a run at l over groups i..j
    after the best entry G[i] into l at i (from layer b - |l - l'|, or 0
    at i = 0), with P the scan's prefix sums. Intervals are priced as in
    the scan, so bv_wce(data, 2) >= cutoff_error(data).value holds
    bitwise. B = 2 ceil(M/2), capped at the TV of sign(r) (at least 2),
    where phi reaches sum |r|; the cost is O(m B).
    """
    signs = np.sign(data.residual_sums[data.residual_sums != 0.0])
    top = max(2, 2 * int(np.count_nonzero(signs[1:] != signs[:-1])))
    B = (top if total_variation >= top
         else 2 * math.ceil(total_variation / 2.0))
    P = _prefix_sums(data.residual_sums)
    V = np.empty(B + 1)   # phi(b), then V(b)
    below = np.full((3, len(P) - 1), -np.inf)   # the layers under b = 0
    layers = [below, below, below]              # layer k at index k % 3
    for b in range(B + 1):
        F = np.empty_like(below)
        for a, level in enumerate((-1, 0, 1)):
            prev = [layers[(b - abs(a - c)) % 3][c, :-1]
                    for c in range(3) if c != a]
            G = np.concatenate(([0.0], np.maximum(*prev)))
            F[a] = level * P[1:] + np.maximum.accumulate(G - level * P[:-1])
        layers[b % 3] = np.maximum(F, layers[(b - 1) % 3])
        V[b] = layers[b % 3][:, -1].max()
    V[1::2] = np.maximum(V[1::2], (V[:-1:2] + V[2::2]) / 2.0)
    return float(np.interp(total_variation, np.arange(B + 1), V)) / data.n


def effective_support_size(data, gamma):
    """Smallest k with the k heaviest forecast atoms covering mass 1-gamma,
    for gamma in [0, 1)."""
    masses = np.sort(data.counts)[::-1]
    target = (1.0 - gamma - 1e-12) * data.n
    cum = np.cumsum(masses)
    # all m atoms cover the whole mass even where cum[-1] rounds below n
    return min(int(np.searchsorted(cum, target) + 1), len(masses))


def schervish_loss(mixture, y, p):
    """Proper scoring rule assembled as a mixture of threshold losses."""
    return math.fsum(weight * loss_bd(y, int(p >= tau), tau)
                     for tau, weight in mixture)


def make_staircase(N):
    """Uniform forecasts with a piecewise-constant conditional mean.

    On each band ((i-1)/N, i/N] the conditional mean is (i-0.5)/N. Each
    band is split at its midpoint into two half-band atoms placed at their
    mass centroids, which reproduces every interval integral of the
    continuous construction exactly; the scan supremum is 1/(8 N^2).
    """
    atoms = []
    for i in range(1, N + 1):
        mean = (i - 0.5) / N
        lower_centroid = (i - 1) / N + 1.0 / (4 * N)
        upper_centroid = (i - 0.5) / N + 1.0 / (4 * N)
        atoms.append((lower_centroid, mean, 1.0 / (2 * N)))
        atoms.append((upper_centroid, mean, 1.0 / (2 * N)))
    return atoms


def make_separation_example(b):
    """Two atoms separated by b in (0, 1] with crossed conditional means.

    Forecast 0.5(1-b) has conditional mean 1; forecast 0.5(1+b) has mean 0;
    masses are 1/2 each. Exact values: ECE = 0.5(1+b) and the L1 distance
    to the nearest calibrated forecast is 0.5 b.
    """
    return [(0.5 * (1.0 - b), 1.0, 0.5), (0.5 * (1.0 + b), 0.0, 0.5)]


def make_perturbed_constant(epsilon):
    """Near-constant forecast around 0.75 with a sign-flipped slope.

    X ~ Bernoulli(0.75) with Y = X and forecast 0.75 + eps - 2*eps*x gives
    atoms (0.75-eps, mean 1, mass 0.75) and (0.75+eps, mean 0, mass 0.25),
    for eps in (0, 0.25). Exact ECE = 3/8 + eps while the Lipschitz
    weighted error is <= 2*eps.
    """
    return [(0.75 - epsilon, 1.0, 0.75), (0.75 + epsilon, 0.0, 0.25)]
