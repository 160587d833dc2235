"""Data model and CSV ingestion shared by all metrics and calibrators.

Per-row data is float arrays: forecast, outcome and, when the file has
the column, the conditional mean, every value in [0, 1]; `load_columns`
returns them as a `Columns`. Pooling merges rows, or weighted atoms,
with bitwise-equal forecasts, since an interval of forecast values
either contains all copies of a value or none.
"""

from __future__ import annotations

import codecs
import math
import os
import stat
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "Columns",
    "GroupedDataset",
    "SeededRng",
    "load_columns",
    "grouped_from_arrays",
]


class ValidationError(ValueError):
    """Malformed or out-of-range input data. CLI maps this to exit code 2."""


def _check_unit(name: str, values) -> None:
    """Raise ValidationError unless every value is in [0, 1] (NaN is not)."""
    values = np.asarray(values)
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValidationError(f"{name} must be finite and in [0, 1]")


def _check_int(name: str, value, low: int) -> None:
    """Raise ValidationError unless value is a (numpy) integer >= low."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValidationError(f"{name} must be an integer >= {low}, "
                              f"got {value!r}")


def _check_rows(forecasts, **columns) -> list:
    """forecasts and the named per-row columns as float arrays;
    ValidationError unless they are 1-D, equally long, non-empty and in
    [0, 1]."""
    arrays = [np.asarray(a, dtype=float)
              for a in (forecasts, *columns.values())]
    for name, a in zip(("forecasts", *columns), arrays):
        if a.ndim != 1 or a.shape != arrays[0].shape:
            raise ValidationError(f"{name} must be 1-D and as long as forecasts")
        _check_unit(name, a)
    if arrays[0].size == 0:
        raise ValidationError("empty dataset")
    return arrays


def _check_weights(name: str, values, shape) -> np.ndarray:
    """values as a float array; ValidationError unless they are finite,
    non-negative, one per row of the given shape, with a sum in (0, inf)."""
    w = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        if (w.shape != shape or not np.all(np.isfinite(w)) or np.any(w < 0.0)
                or not 0.0 < np.sum(w) < math.inf):
            raise ValidationError(f"{name} must be finite, non-negative, one "
                                  "per forecast, with a finite positive sum")
    return w


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random stream identified by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical streams across runs
    and platforms (numpy PCG64 via SeedSequence). Both must be integers
    >= 0, else ValidationError.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        _check_int("seed", self.seed, 0)
        _check_int("stream_id", self.stream_id, 0)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )


class GroupedDataset:
    """Samples pooled by bitwise-equal forecast value, sorted ascending.

    Per group we keep the forecast value and, over its members, the sums
    of w * (target - forecast), of the masses w and of w * target. Targets
    are outcomes or conditional means; masses are sample counts for rows
    but may be fractional for analytic atoms. n is the total mass.
    ValidationError unless the forecasts are 1-D, in [0, 1] and strictly
    increasing, the sums finite and one per forecast, and 0 < n < inf.
    """

    __slots__ = ("forecasts", "residual_sums", "counts", "target_sums", "n")

    def __init__(self, forecasts, residual_sums, counts, target_sums, n):
        (self.forecasts,) = _check_rows(forecasts)
        self.residual_sums = np.asarray(residual_sums, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.target_sums = np.asarray(target_sums, dtype=float)
        self.n = n
        for a in (self.residual_sums, self.counts, self.target_sums):
            if a.shape != self.forecasts.shape or not np.all(np.isfinite(a)):
                raise ValidationError("group sums must be finite, one per "
                                      "forecast")
        if not 0 < n < math.inf:
            raise ValidationError(f"total mass n ({n!r}) must be in (0, inf)")
        if np.any(np.diff(self.forecasts) <= 0):
            raise ValidationError("group forecasts must be strictly increasing")

    def __len__(self) -> int:
        return len(self.forecasts)

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple]) -> "GroupedDataset":
        """Pool (forecast, conditional_mean, mass) triples by forecast, with
        total mass as n and residuals mean - forecast. atoms must form a
        (k, 3) array; forecasts and means must be in [0, 1]; masses are
        checked like the weights of `risks`.
        """
        try:
            table = np.array(atoms, dtype=float)
        except (TypeError, ValueError):  # ragged or non-numeric
            table = None
        if table is None or table.ndim != 2 or table.shape[1] != 3:
            raise ValidationError("atoms must be (forecast, conditional_mean, "
                                  "mass) triples")
        t, mu, w = table.T
        w = _check_weights("masses", w, t.shape)
        return _pool(t, mu, w, math.fsum(w.tolist()))


class Columns(NamedTuple):
    """Per-row values as float arrays; oracle_means is None when absent."""

    forecasts: np.ndarray
    outcomes: np.ndarray
    oracle_means: Optional[np.ndarray] = None


def _parse_header(line: str) -> int:
    """The column count the header names; ValidationError unless it is
    forecast,outcome[,oracle_mean]."""
    cols = [c.strip() for c in line.strip().split(",")]
    if cols not in (["forecast", "outcome"],
                    ["forecast", "outcome", "oracle_mean"]):
        raise ValidationError(f"bad CSV header: {line.strip()!r}")
    return len(cols)


def _read_lines(path) -> list:
    r"""The file's lines as str, split at \n, \r\n or \r after at most one
    UTF-8 byte-order mark; ValidationError naming the first line that is
    not UTF-8."""
    with open(path, "rb") as fh:
        lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines()
    for i, line in enumerate(lines):
        try:
            lines[i] = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(f"input is not UTF-8 at line {i + 1}: "
                                  f"{e}") from None
    return lines


def _parse_lines(lines: list, width: int) -> np.ndarray:
    """Parse data lines one by one (the header is line 1); raise
    ValidationError naming the first malformed or out-of-range line.
    Fields are stripped of what str.isspace calls whitespace, as
    np.loadtxt's parser strips them."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValidationError(f"malformed row at line {lineno}: {line!r}")
        try:
            vals = [float(p.strip()) for p in parts]
        except ValueError:
            raise ValidationError(f"malformed row at line {lineno}: {line!r}")
        # NaN fails the comparison; infinities are out of range
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise ValidationError(f"value out of [0,1] at line {lineno}")
        rows.append(vals)
    if not rows:
        raise ValidationError("no data rows")
    return np.array(rows, dtype=float)


def load_columns(path) -> Columns:
    r"""Parse the CSV file at path (a str or os.PathLike) into float columns.

    The path must name a regular file: the header and the data are read
    by two opens, so a pipe or a directory raises ValidationError. Lines
    end at \n, \r\n or \r; other characters that str.splitlines breaks
    on, such as \f or \u2028, are whitespace within a line. The header must
    be ``forecast,outcome[,oracle_mean]``, after at most one UTF-8
    byte-order mark (as Excel writes it); oracle_means is None without the
    third column. The data lines are parsed by np.loadtxt's chunked file
    reader and checked as a whole. When that parse or check fails, the
    file is read again and parsed line by line with float(), which
    decides: it raises ValidationError with the offending line number
    (also for a line that is not UTF-8), or accepts what float() accepts
    and np.loadtxt does not, such as underscore digits and whitespace-only
    lines. Blank lines are skipped and row order is preserved.
    """
    path = os.fspath(path)
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValidationError(f"{path} is not a regular file")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            width = _parse_header(fh.readline())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on zero rows
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                               skiprows=1, encoding="utf-8-sig")
    except ValueError:  # a bad header or byte, or a row numpy rejects
        table = None
    if (table is None or len(table) == 0 or table.shape[1] != width
            or not np.all((table >= 0.0) & (table <= 1.0))):
        lines = _read_lines(path)
        if not lines:
            raise ValidationError("empty input")
        table = _parse_lines(lines[1:], _parse_header(lines[0]))
    return Columns(*np.ascontiguousarray(table.T))


def grouped_from_arrays(forecasts, targets) -> GroupedDataset:
    """Pool rows by bitwise-equal forecast; each row has mass 1 and n is
    the row count. Residuals are targets - forecasts, with targets the
    outcomes or the conditional means. All values must be finite and in
    [0, 1].
    """
    t = np.asarray(forecasts, dtype=float)
    return _pool(t, targets, None, int(t.size))


def _order(*keys) -> np.ndarray:
    """The permutation that sorts rows by keys[-1], then keys[-2], and so
    on to keys[0]; rows that tie on every key come in no set order.

    keys[0] is argsorted. Each later key then sorts the int64 key
    d * n + p, with d its dense rank (np.unique) and p a row's current
    position, so rows move to the order of d and ties keep their order.
    All sorts are numpy's default, unstable ones. With m distinct values,
    d * n + p < m * n <= n**2 < 2**63, which holds for n < 3 * 10**9 rows.
    """
    order = np.argsort(keys[0])
    n = np.int64(order.size)
    position = np.arange(n)
    for key in keys[1:]:
        dense = np.unique(key, return_inverse=True)[1]
        refined = dense.astype(np.int64, copy=False)[order] * n
        refined += position
        refined.sort()
        refined %= n
        order = order[refined]
    return order


def _pool(t, targets, w, n) -> GroupedDataset:
    """The one pooling routine: per forecast, the sums of the masses, of
    mass * (target - t) and of mass * target. w holds one mass per atom,
    or is None for rows of mass 1, whose counts are the group sizes.
    Rows are sorted by (forecast, target, mass) first and -0.0 is read as
    +0.0, so rows that tie on every key are bitwise equal and sums do not
    depend on input order; np.add.reduceat sums each group pairwise,
    keeping its error O(eps log n).
    """
    t, v = _check_rows(t, targets=targets)
    order = _order(v, t) if w is None else _order(w, v, t)
    t, v = t[order], v[order]
    # -0.0 + 0.0 is +0.0 and other values are kept; the sorts already
    # took -0.0 and +0.0 as equal
    t += 0.0
    v += 0.0
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    residuals = v - t
    if w is None:
        counts = np.diff(start, append=t.size)
    else:
        w = w[order] + 0.0
        counts = np.add.reduceat(w, start)
        residuals *= w
        v *= w
    return GroupedDataset(t[start], np.add.reduceat(residuals, start), counts,
                          np.add.reduceat(v, start), n=n)
