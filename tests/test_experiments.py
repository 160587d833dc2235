import math
from dataclasses import astuple

import numpy as np
import pytest

from cutoffcal import (GroupedDataset, SeededRng, SimulationConfig,
                       ValidationError, binned_ece, cutoff_error,
                       lipschitz_wce, oracle_ece, platt_counterexample,
                       run_simulation)
from cutoffcal.calibrate import _sigmoid, population_platt
from cutoffcal.experiments import _conditional_mean, _rescaled_atoms
from paper import (make_perturbed_constant, make_separation_example,
                   make_staircase)


def test_staircase_masses_and_golden_cutoff():
    for N in (1, 2, 4, 8):
        atoms = make_staircase(N)
        assert math.fsum(m for _, _, m in atoms) == pytest.approx(1.0)
        data = GroupedDataset.from_atoms(atoms)
        assert cutoff_error(data).value == pytest.approx(1 / (8 * N * N),
                                                         abs=1e-15)
        # bins aligned with the steps are blind to the within-step error
        assert binned_ece(data, N) == pytest.approx(0.0, abs=1e-15)


def test_separation_example_exact_values():
    for b in (0.1, 0.5, 1.0):
        data = GroupedDataset.from_atoms(make_separation_example(b))
        assert oracle_ece(data) == pytest.approx(0.5 * (1 + b), abs=1e-15)
        # moving each atom's forecast to its conditional mean costs 0.5*b
        # per unit of b on each side; the scan sees at least the single
        # worst atom, |1 - 0.5(1-b)|/2 = (1+b)/4
        assert cutoff_error(data).value == pytest.approx((1 + b) / 4,
                                                         abs=1e-15)


def test_perturbed_constant_exact_values():
    data = GroupedDataset.from_atoms(make_perturbed_constant(0.01))
    assert oracle_ece(data) == pytest.approx(0.385, abs=1e-15)
    assert lipschitz_wce(data).objective <= 2 * 0.01 + 1e-9


def test_conditional_mean_shape():
    x = np.linspace(0, 1, 5)
    assert np.allclose(_conditional_mean(x, 0.0), x)
    assert np.allclose(_conditional_mean(x, 1.0), (1 - 2 * x) ** 2)


def test_simulation_deterministic_and_bounded():
    config = SimulationConfig(runs=3, n_train=200, n_eval=500, master_seed=7)
    a = run_simulation(config)
    b = run_simulation(config)
    assert a == b
    for rec in a:
        assert 0.0 <= rec.alpha <= 1.0
        assert rec.gap >= -1e-12
        assert rec.monotone_gap >= -1e-12
        assert rec.cutoff <= rec.ece + 1e-12
        assert rec.monotone_gap <= rec.gap + 1e-12


def test_simulation_records_independent_of_run_count():
    # repr of a float round-trips its bits, so equal reprs mean equal bits
    def bits(config):
        return [repr(astuple(rec)) for rec in run_simulation(config)]

    four = SimulationConfig(runs=4, n_train=100, n_eval=200, master_seed=3)
    two = SimulationConfig(runs=2, n_train=100, n_eval=200, master_seed=3)
    first = bits(four)
    assert bits(four) == first
    assert bits(two) == first[:2]


def test_simulation_lipschitz_below_ece_at_tight_seed():
    # run 8 of this seed has lipschitz_wce equal to ece up to rounding;
    # an LP solver at its default tolerance overshot ece by 1.5e-12 there
    config = SimulationConfig(runs=16, n_train=500, n_eval=2500,
                              master_seed=306000)
    for rec in run_simulation(config):
        assert 0.0 <= rec.lipschitz_wce <= rec.ece + 1e-12


def test_simulation_seed_changes_records():
    c7 = SimulationConfig(runs=1, n_train=100, n_eval=200, master_seed=7)
    c8 = SimulationConfig(runs=1, n_train=100, n_eval=200, master_seed=8)
    assert run_simulation(c7) != run_simulation(c8)


def test_counterexample_self_validates():
    atoms, (a, b), wce = platt_counterexample()
    assert wce > 0.01
    assert [t for t, _, _ in atoms] == [0.0, 0.25, 0.5, 1.0]
    assert [m for _, _, m in atoms] == [0.25] * 4

    # recompute the certificate from the returned pieces
    z = _sigmoid(a * np.array([t for t, _, _ in atoms]) + b)
    rescaled = GroupedDataset.from_atoms(
        [(float(zv), q, m) for zv, (_, q, m) in zip(z, atoms)])
    assert lipschitz_wce(rescaled).objective == pytest.approx(wce, abs=1e-9)

    # (a, b) is the population logistic optimum: weighted score equations
    q = np.array([qv for _, qv, _ in atoms])
    assert float(np.sum(q - z)) == pytest.approx(0.0, abs=1e-7)
    t = np.array([tv for tv, _, _ in atoms])
    assert float(np.sum(t * (q - z))) == pytest.approx(0.0, abs=1e-7)


# The population logistic minimiser on the counterexample atoms, from
# mpmath.findroot on the two score equations at 50 significant digits
COUNTEREXAMPLE_MINIMISER = (3.589257553645144, -0.8208030699072837)


def test_counterexample_values_pinned():
    # the construction is deterministic; pin its output to 1e-15
    atoms, (a, b), wce = platt_counterexample()
    expected = [(0.0, 0.05154470985927151, 0.25),
                (0.25, 0.7979676247807702, 0.25),
                (0.5, 0.8157047182944249, 0.25),
                (1.0, 0.8263232207585449, 0.25)]
    assert np.max(np.abs(np.subtract(atoms, expected))) <= 1e-15
    assert abs(a - COUNTEREXAMPLE_MINIMISER[0]) <= 1e-15
    assert abs(b - COUNTEREXAMPLE_MINIMISER[1]) <= 1e-15
    assert abs(wce - 0.02100632887391212) <= 1e-15


@pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e8, 1e300, 1e307])
def test_population_platt_converges_at_large_mass(scale):
    # scaling every mass leaves the minimiser in place; an absolute
    # gradient tolerance could not be met once the sums reach 1e8, and
    # fitted unscaled, the gradient's squared norm underflows to 0 at
    # 1e-300 and overflows at 1e300
    t, q, w = map(np.array, zip(*platt_counterexample()[0]))
    a, b = population_platt(t, q, w * scale)
    assert abs(a - COUNTEREXAMPLE_MINIMISER[0]) <= 1e-15
    assert abs(b - COUNTEREXAMPLE_MINIMISER[1]) <= 1e-15


def test_rescaled_atoms_pool_coincident_images():
    # sigmoid(a*v + b) saturates to exactly 1.0 for the upper three atoms
    q = [0.1, 0.2, 0.4, 0.9]
    atoms = [(v, m, 0.25) for v, m in zip([0.0, 0.25, 0.5, 1.0], q)]
    data = _rescaled_atoms(atoms, 400.0, -50.0)
    assert data.forecasts[-1] == 1.0 and len(data) == 2
    assert data.counts.tolist() == [0.25, 0.75]
    assert data.n == 1.0
    assert data.target_sums[-1] == pytest.approx(0.25 * (0.2 + 0.4 + 0.9),
                                                 abs=1e-15)
    assert data.residual_sums[-1] == pytest.approx(
        0.25 * (0.2 + 0.4 + 0.9) - 0.75, abs=1e-15)


def test_counterexample_deterministic():
    a1 = platt_counterexample()
    a2 = platt_counterexample()
    assert a1[0] == a2[0] and a1[1] == a2[1] and a1[2] == a2[2]


def separable(x, y):
    lo, hi = x[~y], x[y]
    return (lo.size == 0 or hi.size == 0 or lo.max() <= hi.min()
            or hi.max() <= lo.min())


def test_refits_count_the_separable_training_draws():
    # replay each run's stream: refits is the number of separable samples
    # drawn before the first one with a finite logistic fit
    config = SimulationConfig(runs=50, n_train=10, n_eval=200)
    records = run_simulation(config)
    for rec in records:
        rng = SeededRng(config.master_seed, rec.seed).generator()
        alpha = float(rng.uniform())
        draws = 0
        while True:
            x = rng.uniform(size=config.n_train)
            if not separable(x, rng.uniform(size=config.n_train)
                             < _conditional_mean(x, alpha)):
                break
            draws += 1
        assert (rec.alpha, rec.refits) == (alpha, draws)
    assert any(rec.refits > 0 for rec in records)


def test_simulation_with_only_separable_draws_is_a_validation_error():
    # two rows are always separable
    with pytest.raises(ValidationError, match="--n-train"):
        run_simulation(SimulationConfig(runs=1, n_train=2, n_eval=10))


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(runs=0)
    with pytest.raises(ValueError):
        SimulationConfig(tau=1.5)
    for bad in (dict(runs=2.5), dict(n_train=0), dict(n_eval=1e3),
                dict(tau=math.nan)):
        with pytest.raises(ValidationError):
            SimulationConfig(**bad)
    # sizes no list or array can have, refused before numpy allocates
    for name in ("runs", "n_train", "n_eval"):
        for size in (np.iinfo(np.intp).max + 1, 10 ** 30):
            with pytest.raises(ValidationError, match=f"^{name} must be"):
                SimulationConfig(**{name: size})
    with pytest.raises(ValidationError):
        run_simulation(SimulationConfig(runs=1, n_eval=10, master_seed=-1))
