"""Calibration-audit toolkit: interval-supremum calibration error, post-hoc
calibrators with distribution-free guarantees, certification, and
decision-theoretic risk-gap evaluation."""

from .core import *
from .metrics import *
from .calibrate import *
from .decision import *
from .experiments import *

__version__ = "0.1.0"
