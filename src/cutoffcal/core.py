"""Data model, CSV ingestion and argument checks shared by all modules.

Per-row data is float arrays: forecast, outcome and, when the file has
the column, the conditional mean, every value in [0, 1]; `load_columns`
returns them as a `Columns`. Pooling merges rows, or weighted atoms,
with bitwise-equal forecasts, since an interval of forecast values
either contains all copies of a value or none.

Every argument check of the package is here, raising ValidationError:
`_check_number` and `_check_int` for scalars, `_floats` for arrays of
numbers, and `_check_unit`, `_check_rows` and `_check_weights` for rows.
"""

from __future__ import annotations

import codecs
import math
import numbers
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


def _floats(name: str, values) -> np.ndarray:
    """values as a float array; ValidationError unless they form a regular
    array of numbers or bools (read as 0 and 1), not strings or objects."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged
        a = None
    if a is None or a.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be numbers")
    return a.astype(float, copy=False)


def _check_unit(name: str, values) -> np.ndarray:
    """values as a float array (`_floats`); ValidationError unless every
    value is in [0, 1] (NaN is not)."""
    values = _floats(name, values)
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValidationError(f"{name} must be finite and in [0, 1]")
    return values


def _check_int(name: str, value, low: int, high=math.inf) -> None:
    """Raise ValidationError unless value is a (numpy) integer >= low and
    <= high, a bound such as the largest float or array length."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValidationError(f"{name} must be an integer >= {low}, "
                              f"got {value!r}")
    if value > high:  # its repr may be too long to print
        raise ValidationError(f"{name} must be at most {high}")


def _check_number(name: str, value, interval: str = "") -> None:
    """Raise ValidationError unless value is one real (numpy) number, not a
    bool, a string, an array or an int too large for a float, in interval
    if one is given, written as in maths: "(0, 1]" or "[2, inf]". NaN lies
    in no interval."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be one number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # its repr may be too long to print
        raise ValidationError(f"{name} must be a number that a float can "
                              "hold") from None
    if interval:
        lo, hi = map(float, interval[1:-1].split(","))
        if not ((lo < value if interval[0] == "(" else lo <= value)
                and (value < hi if interval[-1] == ")" else value <= hi)):
            raise ValidationError(f"{name} must be in {interval}, "
                                  f"got {value!r}")


def _check_rows(forecasts, **columns) -> list:
    """forecasts and the named per-row columns as float arrays;
    ValidationError unless they are numbers, 1-D, equally long, non-empty
    and in [0, 1]."""
    names = ("forecasts", *columns)
    arrays = list(map(_floats, names, (forecasts, *columns.values())))
    if arrays[0].ndim != 1:
        raise ValidationError("forecasts must be 1-D")
    for name, a in zip(names, arrays):
        if a.shape != arrays[0].shape:
            raise ValidationError(f"{name} must be 1-D and as long as forecasts")
        _check_unit(name, a)
    if arrays[0].size == 0:
        raise ValidationError("empty dataset")
    return arrays


def _check_weights(name: str, values, shape) -> np.ndarray:
    """values as a float array; ValidationError unless they are finite,
    non-negative, one per row of the given shape, with a sum in (0, inf)."""
    w = _floats(name, values)
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
        sums = [_floats("group sums", a)
                for a in (residual_sums, counts, target_sums)]
        for a in sums:
            if a.shape != self.forecasts.shape or not np.all(np.isfinite(a)):
                raise ValidationError("group sums must be finite, one per "
                                      "forecast")
        self.residual_sums, self.counts, self.target_sums = sums
        _check_number("n", n, "(0, inf)")
        self.n = n
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
        table = _floats("atom triples", atoms)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValidationError("atoms must be (forecast, conditional_mean, "
                                  "mass) triples")
        t, mu, w = table.T
        return _pool(t, mu, _check_weights("masses", w, t.shape))


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
    return _pool(forecasts, targets)


def _pool(t, targets, w=None) -> GroupedDataset:
    """The one pooling routine: per forecast, the sums of the masses, of
    mass * (target - t) and of mass * target. w holds one mass per atom,
    or is None for rows of mass 1, whose counts are the group sizes; n is
    the exact sum of the masses, or the row count.

    Each group is summed in (target, mass) order, with -0.0 read as +0.0,
    so rows that tie on every key are bitwise equal and sums do not depend
    on input order; np.add.reduceat sums each group pairwise, keeping its
    error O(eps log n). Rows take one argsort of t, which gives the groups;
    the targets are gathered in its order, which is final when the
    forecasts are distinct, and each multi-row group's slice of them is
    then sorted in place. Atoms take np.lexsort((w, targets, t)).
    """
    t, v = _check_rows(t, targets=targets)
    n = t.size if w is None else math.fsum(w.tolist())
    order = np.argsort(t) if w is None else np.lexsort((w, v, t))
    t, v = t[order], v[order]
    t += 0.0
    v += 0.0
    start = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    if w is None:
        counts = np.diff(start, append=t.size)
        multi = counts > 1
        for s, e in zip(start[multi].tolist(),
                        (start + counts)[multi].tolist()):
            v[s:e].sort()
        residuals = v - t
    else:
        w = w[order] + 0.0
        counts = np.add.reduceat(w, start)
        residuals = (v - t) * w
        v *= w
    return GroupedDataset(t[start], np.add.reduceat(residuals, start), counts,
                          np.add.reduceat(v, start), n=n)
