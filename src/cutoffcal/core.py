"""Data model and CSV ingestion shared by all metrics and calibrators.

Samples are (forecast, outcome[, oracle_mean]) records with every value in
[0, 1]. Grouping pools samples with bitwise-equal forecasts, since an
interval of forecast values either contains all copies of a value or none.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "ForecastSample",
    "Columns",
    "GroupedDataset",
    "SeededRng",
    "load_columns",
    "load_samples",
    "serialize_samples",
    "group_by_forecast",
]


class ValidationError(ValueError):
    """Malformed or out-of-range input data. CLI maps this to exit code 2."""


@dataclass(frozen=True)
class ForecastSample:
    """One (forecast, outcome) record, optionally carrying E[Y|X]."""

    forecast: float
    outcome: float
    oracle_mean: Optional[float] = None

    def __post_init__(self):
        for name in ("forecast", "outcome", "oracle_mean"):
            v = getattr(self, name)
            if v is None:
                continue
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} out of [0,1]: {v!r}")


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random stream identified by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical streams across runs
    and platforms (numpy PCG64 via SeedSequence).
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    def child(self, stream_id: int) -> "SeededRng":
        return SeededRng(self.seed, stream_id)


class GroupedDataset:
    """Samples pooled by bitwise-equal forecast value, sorted ascending.

    Per group we keep the forecast value, the (compensated) residual sum
    over members, the total weight, and the outcome sum. Weights are sample
    counts for empirical data but may be fractional masses for analytic
    atom constructions.
    """

    __slots__ = ("forecasts", "residual_sums", "counts", "outcome_sums", "n",
                 "residual_mode")

    def __init__(self, forecasts, residual_sums, counts, outcome_sums, n,
                 residual_mode="outcome"):
        self.forecasts = np.asarray(forecasts, dtype=float)
        self.residual_sums = np.asarray(residual_sums, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.outcome_sums = np.asarray(outcome_sums, dtype=float)
        self.n = n
        self.residual_mode = residual_mode
        if len(self.forecasts) == 0:
            raise ValidationError("empty dataset")
        if np.any(np.diff(self.forecasts) <= 0):
            raise ValidationError("group forecasts must be strictly increasing")

    def __len__(self) -> int:
        return len(self.forecasts)

    @property
    def groups(self):
        """List of (forecast_value, residual_sum, count, outcome_sum) tuples."""
        return list(zip(self.forecasts.tolist(), self.residual_sums.tolist(),
                        self.counts.tolist(), self.outcome_sums.tolist()))

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple]) -> "GroupedDataset":
        """Build from (forecast, conditional_mean, mass) triples.

        Total mass plays the role of n; residuals are mean - forecast.
        """
        atoms = sorted(atoms)
        t = np.array([a[0] for a in atoms], dtype=float)
        mu = np.array([a[1] for a in atoms], dtype=float)
        w = np.array([a[2] for a in atoms], dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValidationError("atom forecasts must be distinct")
        return cls(t, (mu - t) * w, w, mu * w, n=math.fsum(w),
                   residual_mode="oracle")


class Columns(NamedTuple):
    """Per-row values as float arrays; oracle_means is None when absent."""

    forecasts: np.ndarray
    outcomes: np.ndarray
    oracle_means: Optional[np.ndarray] = None

    @classmethod
    def of(cls, samples) -> "Columns":
        """samples itself if it is a Columns, else its per-row values."""
        if isinstance(samples, Columns):
            return samples
        if not samples:
            raise ValidationError("empty sample list")
        means = [s.oracle_mean for s in samples]
        return cls(np.array([s.forecast for s in samples], dtype=float),
                   np.array([s.outcome for s in samples], dtype=float),
                   None if None in means else np.array(means, dtype=float))

    def grouped(self, residual_mode: str = "outcome") -> GroupedDataset:
        """Pool by forecast; "oracle" takes residuals from oracle_means."""
        if residual_mode == "outcome":
            return grouped_from_arrays(self.forecasts, self.outcomes)
        if residual_mode != "oracle":
            raise ValueError(f"unknown residual_mode: {residual_mode!r}")
        if self.oracle_means is None:
            raise ValidationError("missing oracle_mean in oracle mode")
        return grouped_from_arrays(self.forecasts, self.oracle_means,
                                   "oracle", outcomes=self.outcomes)


def _parse_header(line: str, mode: str) -> bool:
    cols = [c.strip() for c in line.strip().split(",")]
    if cols[:2] != ["forecast", "outcome"]:
        raise ValidationError(f"bad CSV header: {line.strip()!r}")
    has_oracle = len(cols) >= 3 and cols[2] == "oracle_mean"
    if mode == "oracle" and not has_oracle:
        raise ValidationError("oracle mode requested but oracle_mean column absent")
    return has_oracle


def _parse_lines(lines: list, width: int) -> np.ndarray:
    """Parse data lines one by one (the header is line 1); raise
    ValidationError naming the first malformed or out-of-range line."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValidationError(f"malformed row at line {lineno}: {line!r}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValidationError(f"malformed row at line {lineno}: {line!r}")
        # NaN fails the comparison; infinities are out of range
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise ValidationError(f"value out of [0,1] at line {lineno}")
        rows.append(vals)
    if not rows:
        raise ValidationError("no data rows")
    return np.array(rows, dtype=float)


def load_columns(source, mode: str = "empirical") -> Columns:
    """Parse a CSV byte stream (or bytes/str) into float columns.

    Header must be ``forecast,outcome[,oracle_mean]``. The data lines are
    parsed in one vectorised pass and checked as a whole; only when that
    check fails are they parsed again line by line, to raise
    ValidationError with the offending line number. Blank lines are
    skipped and row order is preserved.
    """
    raw = source.read() if hasattr(source, "read") else source
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as e:
        raise ValidationError(f"input is not UTF-8: {e}") from None
    lines = text.splitlines()
    if not lines:
        raise ValidationError("empty input")
    has_oracle = _parse_header(lines[0], mode)
    width = 3 if has_oracle else 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on zero rows
            table = np.loadtxt(lines[1:], delimiter=",", comments=None,
                               ndmin=2)
    except ValueError:  # numpy's parser is stricter than float()
        table = np.empty((0, width))
    if (len(table) == 0 or table.shape[1] != width
            or not np.all((table >= 0.0) & (table <= 1.0))):
        table = _parse_lines(lines[1:], width)
    return Columns(*np.ascontiguousarray(table.T))


def load_samples(source, mode: str = "empirical") -> list[ForecastSample]:
    """load_columns as one ForecastSample per row (a convenience adapter)."""
    cols = load_columns(source, mode)
    rows = zip(*(c.tolist() for c in cols if c is not None))
    return [ForecastSample(*row) for row in rows]


def serialize_samples(samples: Sequence[ForecastSample]) -> str:
    """Inverse of load_samples, exact to float round-trip precision."""
    has_oracle = samples[0].oracle_mean is not None
    header = "forecast,outcome,oracle_mean" if has_oracle else "forecast,outcome"
    rows = [header]
    for s in samples:
        cells = [f"{s.forecast:.17g}", f"{s.outcome:.17g}"]
        if has_oracle:
            cells.append(f"{s.oracle_mean:.17g}")
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def group_by_forecast(samples: Sequence[ForecastSample],
                      residual_mode: str = "outcome") -> GroupedDataset:
    """Pool samples by bitwise-equal forecast (adapter for Columns.grouped)."""
    return Columns.of(samples).grouped(residual_mode)


def grouped_from_arrays(forecasts, targets, residual_mode="outcome",
                        outcomes=None) -> GroupedDataset:
    """Pool rows by bitwise-equal forecast: the one tie-pooling routine.

    Residuals are targets - forecasts (targets are outcomes, or conditional
    means in oracle mode); outcome sums default to target sums. All values
    must be finite and in [0, 1]. Rows are sorted by (forecast, target,
    outcome) first, so sums do not depend on input order; np.add.reduceat
    sums each group pairwise, keeping its error O(eps log n).
    """
    t = np.asarray(forecasts, dtype=float)
    v = np.asarray(targets, dtype=float)
    y = v if outcomes is None else np.asarray(outcomes, dtype=float)
    for name, a in (("forecasts", t), ("targets", v), ("outcomes", y)):
        if a.ndim != 1 or a.shape != t.shape:
            raise ValidationError(f"{name} must be 1-D and as long as forecasts")
        if not np.all((a >= 0.0) & (a <= 1.0)):
            raise ValidationError(f"{name} must be finite and in [0, 1]")
    if t.size == 0:
        raise ValidationError("empty dataset")
    order = np.lexsort((v, t) if outcomes is None else (y, v, t))
    t, v = t[order], v[order]
    y = v if outcomes is None else y[order]
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    counts = np.diff(np.append(start, t.size)).astype(float)
    return GroupedDataset(t[start], np.add.reduceat(v - t, start), counts,
                          np.add.reduceat(y, start), n=int(t.size),
                          residual_mode=residual_mode)
