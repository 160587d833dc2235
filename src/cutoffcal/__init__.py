"""Calibration-audit toolkit: interval-supremum calibration error, post-hoc
calibrators with distribution-free guarantees, two-stage certification, and
decision-theoretic risk-gap evaluation."""

from .core import (Columns, GroupedDataset, SeededRng, ValidationError,
                   grouped_from_arrays, load_columns)
from .metrics import (CutoffEstimate, LipschitzWeights, binned_ece, bv_wce,
                      concentration_radius, cutoff_error,
                      effective_support_size, lipschitz_wce, oracle_ece)
from .calibrate import (CalibratorMap, PlattDivergence, apply_map,
                        default_epsilon, fit_isotonic, fit_modified_platt,
                        fit_platt)
from .decision import (DecisionEvalSet, DiscreteMixture, loss_bd, risk_st,
                       risks, schervish_loss)
from .certify import CertificationVerdict, certify, min_admissible_c
from .experiments import (SimulationConfig, SimulationRunRecord,
                          make_perturbed_constant, make_separation_example,
                          make_staircase, platt_counterexample, run_simulation)

__version__ = "0.1.0"
