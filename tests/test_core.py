import codecs
import importlib
import inspect
import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutoffcal
from cutoffcal import (Columns, GroupedDataset, SeededRng, ValidationError,
                       core, cutoff_error, grouped_from_arrays, load_columns)


def groups(data):
    """(forecast, residual_sum, count, target_sum) per group."""
    return list(zip(data.forecasts.tolist(), data.residual_sums.tolist(),
                    data.counts.tolist(), data.target_sums.tolist()))


def csv_file(directory, content):
    """content (str as UTF-8, newlines kept as written, or bytes) as a CSV
    file in directory; its path."""
    path = directory / "data.csv"
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    return path


def test_load_basic(tmp_path):
    cols = load_columns(csv_file(tmp_path, "forecast,outcome\n0.5,1\n0.2,0\n"))
    assert list(zip(cols.forecasts.tolist(), cols.outcomes.tolist())) == \
        [(0.5, 1.0), (0.2, 0.0)]
    assert cols.oracle_means is None


def test_load_out_of_range_reports_line(tmp_path):
    with pytest.raises(ValidationError, match="line 2"):
        load_columns(csv_file(tmp_path, "forecast,outcome\n1.5,0\n"))


def test_load_oracle_mode(tmp_path):
    cols = load_columns(csv_file(tmp_path,
                                 "forecast,outcome,oracle_mean\n0.3,0,0.25\n"))
    assert [c.tolist() for c in cols] == [[0.3], [0.0], [0.25]]
    path = csv_file(tmp_path, "forecast,outcome\n0.3,0\n")
    assert load_columns(path).oracle_means is None


def test_load_malformed_row(tmp_path):
    with pytest.raises(ValidationError, match="line 3"):
        load_columns(csv_file(tmp_path, "forecast,outcome\n0.5,1\n0.2\n"))


def test_load_accepts_path_object(tmp_path):
    path = csv_file(tmp_path, "forecast,outcome\n0.5,1\n")
    assert [c.tolist() for c in load_columns(path)[:2]] == \
        [c.tolist() for c in load_columns(str(path))[:2]] == [[0.5], [1.0]]


def test_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    table = rng.random((50, 3))
    text = "forecast,outcome,oracle_mean\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in table.tolist())
    again = load_columns(csv_file(tmp_path, text))
    assert np.column_stack(again).tobytes() == table.tobytes()


def test_group_pools_ties_and_sorts():
    data = grouped_from_arrays([0.5, 0.5, 0.2], [1.0, 0.0, 0.0])
    assert groups(data) == [(0.2, pytest.approx(-0.2), 1.0, 0.0),
                            (0.5, pytest.approx(0.0), 2.0, 1.0)]
    assert data.n == 3


def test_group_zero_residual():
    data = grouped_from_arrays([0.3], [0.3])
    assert groups(data) == [(0.3, 0.0, 1.0, 0.3)]


def test_group_oracle_residual(tmp_path):
    cols = load_columns(csv_file(tmp_path,
                                 "forecast,outcome,oracle_mean\n0.3,0,0.25\n"))
    data = grouped_from_arrays(cols.forecasts, cols.oracle_means)
    f, r, c, v = groups(data)[0]
    assert (f, c, v) == (0.3, 1.0, 0.25)
    assert r == pytest.approx(-0.05)


def test_group_empty_raises():
    with pytest.raises(ValidationError):
        grouped_from_arrays([], [])


def test_group_oracle_requires_means():
    cols = Columns(np.array([0.3]), np.array([0.0]))
    with pytest.raises(ValidationError, match="targets"):
        grouped_from_arrays(cols.forecasts, cols.oracle_means)


def same_bits(a, b):
    return (all(x.tobytes() == y.tobytes() for x, y in (
        (a.forecasts, b.forecasts), (a.residual_sums, b.residual_sums),
        (a.counts, b.counts), (a.target_sums, b.target_sums)))
        and repr(a.n) == repr(b.n))


FORECASTS = st.sampled_from([0.1, 0.25, 0.5, 0.9])


@given(st.lists(st.tuples(FORECASTS, st.floats(0, 1)), min_size=1,
                max_size=30),
       st.lists(st.tuples(FORECASTS, st.floats(0, 1),
                          st.sampled_from([0.25, 1.0]) | st.floats(1e-3, 10)),
                min_size=1, max_size=30),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_group_permutation_invariant(pairs, atoms, rnd):
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    a = grouped_from_arrays(*zip(*pairs))
    b = grouped_from_arrays(*zip(*shuffled))
    assert groups(a) == groups(b)
    assert a.n == b.n
    assert same_bits(a, b)
    shuffled = list(atoms)
    rnd.shuffle(shuffled)
    assert same_bits(GroupedDataset.from_atoms(atoms),
                     GroupedDataset.from_atoms(shuffled))


@given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False),
                          st.floats(0, 1, allow_nan=False)),
                min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_group_residual_totals_match_raw(pairs):
    data = grouped_from_arrays(*zip(*pairs))
    raw = math.fsum(y - t for t, y in pairs)
    assert math.fsum(data.residual_sums.tolist()) == pytest.approx(raw, abs=1e-12)
    assert float(np.sum(data.counts)) == len(pairs)


def test_from_atoms_pools_coincident_forecasts():
    data = GroupedDataset.from_atoms([(0.5, 0.2, 0.25), (0.1, 0.0, 1.0),
                                      (0.5, 0.6, 0.75)])
    assert groups(data) == [
        (0.1, pytest.approx(-0.1), 1.0, 0.0),
        (0.5, pytest.approx(0.25 * -0.3 + 0.75 * 0.1), 1.0,
         pytest.approx(0.25 * 0.2 + 0.75 * 0.6))]
    assert data.n == 2.0


@pytest.mark.parametrize("atom", [(0.5, 1.5, 1.0), (0.5, math.nan, 1.0),
                                  (0.5, 0.2, -1.0)],
                         ids=["mean 1.5", "nan mean", "negative mass"])
def test_from_atoms_rejects_bad_atoms(atom):
    with pytest.raises(ValidationError):
        GroupedDataset.from_atoms([(0.2, 0.3, 0.5), atom])


def test_from_atoms_rejects_masses_whose_sum_overflows():
    with pytest.raises(ValidationError, match="finite positive sum"):
        GroupedDataset.from_atoms([(0.2, 0.3, 1e308), (0.5, 0.2, 1e308)])


@pytest.mark.parametrize("atoms", [
    [(0.5, 0.5), (0.3, 0.2), (0.1, 0.9)],
    [(0.5, 0.5, 1.0, 1.0)],
    [(0.5, 0.5, 1.0), (0.2, 0.1)],
    [[(0.1, 0.2, 0.3)]],
    [],
], ids=["pairs", "4-tuple", "ragged", "nested", "empty"])
def test_from_atoms_requires_triples(atoms):
    with pytest.raises(ValidationError, match="triples"):
        GroupedDataset.from_atoms(atoms)


def reference_pool(t, v, w=None):
    """Pooling in the np.lexsort((w, v, t)) order of the rows, with unit
    masses spelled out for rows and -0.0 read as +0.0: the ordering the
    pooling routine must agree with bit for bit."""
    t, v = np.asarray(t, dtype=float) + 0.0, np.asarray(v, dtype=float) + 0.0
    n = int(t.size) if w is None else math.fsum(w)
    w = np.ones(t.shape) if w is None else np.asarray(w, dtype=float) + 0.0
    order = np.lexsort((w, v, t))
    t, v, w = t[order], v[order], w[order]
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    return GroupedDataset(t[start], np.add.reduceat((v - t) * w, start),
                          np.add.reduceat(w, start),
                          np.add.reduceat(v * w, start), n=n)


TIE_VALUES = st.sampled_from([-0.0, 0.0, 0.1, 0.5, 1.0])


@given(st.lists(st.tuples(TIE_VALUES, TIE_VALUES,
                          st.sampled_from([-0.0, 0.5, 1.0, 2.0])),
                min_size=1, max_size=40),
       st.lists(st.sampled_from([0.0, 0.5, 3.0]), max_size=40))
@settings(max_examples=300, deadline=None)
def test_pooling_matches_lexsort_reference(rows, masses):
    # duplicate (t, v) pairs that carry other masses
    rows += [(t, v, m) for (t, v, _), m in zip(rows, masses)]
    t, v, w = zip(*rows)
    assert same_bits(grouped_from_arrays(t, v), reference_pool(t, v))
    if sum(w) > 0:
        assert same_bits(GroupedDataset.from_atoms(rows),
                         reference_pool(t, v, w))


def test_pooling_large_ties_permutation_invariant():
    # audit --oracle shape: a 0.01 forecast grid, outcomes and noisy means
    rng = np.random.default_rng(10)
    n = 200_000
    t = rng.integers(0, 101, size=n) / 100.0
    mu = np.clip(t + 0.05 * np.sin(2 * np.pi * t)
                 + rng.uniform(-0.05, 0.05, size=n), 0, 1)
    y = (rng.uniform(size=n) < mu).astype(float)
    perm = rng.permutation(n)
    for v in (y, mu):
        data = grouped_from_arrays(t, v)
        assert len(data) == 101
        assert same_bits(data, grouped_from_arrays(t[perm], v[perm]))
        assert same_bits(data, reference_pool(t, v))


def line_parser(text):
    r"""The line-by-line reference the vectorised loader falls back to, on
    lines that end at \n, \r\n or \r."""
    lines = [line.decode() for line in text.encode().splitlines()]
    return core._parse_lines(lines[1:], core._parse_header(lines[0]))


# name -> (CSV text, whether the vectorised pass accepts it on its own)
EDGE_INPUTS = {
    "blank lines": ("forecast,outcome\n\n0.5,1\n\n0.2,0\n\n", True),
    "whitespace-only line": ("forecast,outcome\n0.5,1\n \t \n0.2,0\n", False),
    "crlf": ("forecast,outcome\r\n0.5,1\r\n0.2,0\r\n", True),
    "lone cr": ("forecast,outcome\r0.5,1\r0.2,0", True),
    "padded fields": ("forecast,outcome\n 0.5 , 1\t\n", True),
    "oracle column": ("forecast,outcome,oracle_mean\n0.5,1,0.4\n", True),
    "underscore digits": ("forecast,outcome\n0.2_5,1\n", False),
    "comment line": ("forecast,outcome\n0.5,1\n# note\n", False),
    "trailing comment": ("forecast,outcome\n0.5,1 # note\n", False),
    "nan": ("forecast,outcome\n0.5,1\nnan,0\n", False),
    "inf": ("forecast,outcome\n0.5,1\n0.2,inf\n", False),
    "negative": ("forecast,outcome\n0.5,-0.5\n", False),
    "header only": ("forecast,outcome\n", False),
    "header and blanks": ("forecast,outcome\n\n\n", False),
    "extra column": ("forecast,outcome\n0.5,1\n0.5,1,0.3\n", False),
    "missing column": ("forecast,outcome,oracle_mean\n0.5,1\n", False),
    "trailing comma": ("forecast,outcome\n0.5,1,\n", False),
    "empty field": ("forecast,outcome\n,1\n", False),
    "nul in row": ("forecast,outcome\n0.5\x00,1\n", False),
}
# Lines end only at \n, \r\n or \r. The other characters str.splitlines
# breaks on, and the unit separator, are whitespace: np.loadtxt strips them
# from a field, and skips no line that holds only them, which the line
# parser does
for name, char in [("vertical tab", "\v"), ("form feed", "\f"),
                   ("file separator", "\x1c"), ("group separator", "\x1d"),
                   ("record separator", "\x1e"), ("unit separator", "\x1f"),
                   ("next line", "\x85"), ("line separator", "\u2028"),
                   ("paragraph separator", "\u2029")]:
    EDGE_INPUTS[f"{name} in row"] = (f"forecast,outcome\n0.5{char},1\n", True)
    EDGE_INPUTS[f"{name} alone"] = (
        f"forecast,outcome\n0.5,1\n{char}\n0.2,0\n", False)


def load_and_count_fallbacks(path, monkeypatch):
    """load_columns(path) and how often it fell back to the line parser."""
    fallbacks = []
    real = core._parse_lines
    monkeypatch.setattr(core, "_parse_lines",
                        lambda *a: fallbacks.append(a) or real(*a))
    cols = load_columns(path)
    monkeypatch.undo()
    return np.column_stack([c for c in cols if c is not None]), len(fallbacks)


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_loader_matches_line_parser(name, tmp_path, monkeypatch):
    text, fast = EDGE_INPUTS[name]
    path = csv_file(tmp_path, text)
    try:
        expected = line_parser(text)
    except ValidationError as e:
        with pytest.raises(ValidationError) as info:
            load_columns(path)
        assert str(info.value) == str(e) and not fast
        return
    got, fallbacks = load_and_count_fallbacks(path, monkeypatch)
    assert got.tobytes() == expected.tobytes()
    assert (not fallbacks) == fast


@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1,
                max_size=50),
       st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", " {:.6f} "]))
@settings(max_examples=200, deadline=None)
def test_loader_values_match_float(tmp_path_factory, pairs, fmt):
    text = "forecast,outcome\n" + "".join(
        f"{fmt.format(t)},{fmt.format(y)}\n" for t, y in pairs)
    cols = load_columns(csv_file(tmp_path_factory.mktemp("csv"), text))
    assert np.stack([cols.forecasts, cols.outcomes], axis=1).tobytes() == \
        line_parser(text).tobytes()


def test_loader_reads_a_large_file_with_bom_and_crlf(tmp_path, monkeypatch):
    # more than 1 MB, so np.loadtxt reads it in several chunks
    rng = np.random.default_rng(11)
    table = np.column_stack((rng.random(40_000), rng.integers(0, 2, 40_000),
                             rng.random(40_000)))
    text = "forecast,outcome,oracle_mean\r\n" + "".join(
        f"{t!r},{y:.0f},{m!r}\r\n" for t, y, m in table.tolist())
    path = csv_file(tmp_path, codecs.BOM_UTF8 + text.encode())
    assert path.stat().st_size > 1 << 20
    got, fallbacks = load_and_count_fallbacks(path, monkeypatch)
    assert fallbacks == 0
    assert got.tobytes() == line_parser(text).tobytes() == table.tobytes()


@pytest.mark.parametrize("text, match", [
    (b"", "empty input"),
    (b"\xef\xbb\xbf", "empty input"),
    (b"forecast,label\n0.5,1\n", "bad CSV header"),
    (b"0.5,1\n0.2,0\n", "bad CSV header"),
    (b"forecast,outcome,weight\n0.5,1\n", "bad CSV header"),
    (b"forecast,outcome,weight\n0.5,1,2\n", "bad CSV header"),
], ids=["empty", "byte-order mark only", "wrong column", "no header",
        "unknown column, two values", "unknown column, three values"])
def test_load_rejects_bad_header_and_empty_input(text, match, tmp_path):
    with pytest.raises(ValidationError, match=match):
        load_columns(csv_file(tmp_path, text))


def test_load_rejects_non_utf8(tmp_path):
    with pytest.raises(ValidationError, match="not UTF-8 at line 2: "):
        load_columns(csv_file(tmp_path, b"forecast,outcome\n0.5,1\xff\n"))
    with pytest.raises(ValidationError, match="not UTF-8 at line 1: "):
        load_columns(csv_file(tmp_path, b"forecast,outcome\xff\n0.5,1\n"))


def test_load_names_the_non_utf8_line_past_the_first_chunk(tmp_path):
    lines = [b"forecast,outcome"] + [b"0.25,1"] * 20_000
    lines[15_000] = b"0.25,\xff1"
    path = csv_file(tmp_path, b"\n".join(lines) + b"\n")
    assert len(b"\n".join(lines[:15_000])) > 64 * 1024
    with pytest.raises(ValidationError,
                       match="not UTF-8 at line 15001: .*position 5"):
        load_columns(path)


@pytest.mark.parametrize("make", [os.mkfifo, os.mkdir],
                         ids=["fifo", "directory"])
def test_load_refuses_what_is_not_a_regular_file(make, tmp_path):
    path = tmp_path / "input"
    make(path)
    errors = []

    def load():
        try:
            load_columns(path)
        except ValidationError as e:
            errors.append(str(e))

    # opening a FIFO to read blocks until a writer opens it
    worker = threading.Thread(target=load, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert errors == [f"{path} is not a regular file"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.7, -0.5])
@pytest.mark.parametrize("where", ["forecasts", "targets"])
def test_pooling_rejects_bad_values(bad, where):
    arrays = {"forecasts": [0.2, 0.4, 0.5], "targets": [0.1, 0.9, 0.3]}
    arrays[where][1] = bad
    with pytest.raises(ValidationError, match=where):
        grouped_from_arrays(arrays["forecasts"], arrays["targets"])


def test_pooling_rejects_length_mismatch():
    with pytest.raises(ValidationError, match="targets"):
        grouped_from_arrays([0.2, 0.5], [0.1])


@pytest.mark.parametrize("args", [(-1,), (2.5,), (0, -1), (True,), ("1",)])
def test_seeded_rng_rejects_bad_seeds(args):
    with pytest.raises(ValidationError):
        SeededRng(*args)


def test_seeded_rng_accepts_numpy_integers():
    a = SeededRng(np.int64(3), np.uint8(1)).generator().random()
    assert a == SeededRng(3, 1).generator().random()


@pytest.mark.parametrize("kwargs", [
    dict(forecasts=[0.1, math.nan]),
    dict(forecasts=[0.1, 2.0]),
    dict(forecasts=[[0.1, 0.2]]),
    dict(forecasts=[]),
    dict(residual_sums=[0.3]),
    dict(residual_sums=[0.3, math.inf]),
    dict(counts=[1.0, math.nan]),
    dict(target_sums=[[0.4, 0.2]]),
    dict(n=0),
    dict(n=math.inf),
    dict(n=math.nan),
    dict(forecasts=[0.2, 0.1]),
])
def test_grouped_dataset_rejects_impossible_input(kwargs):
    args = dict(forecasts=[0.1, 0.2], residual_sums=[0.3, -0.1],
                counts=[1.0, 1.0], target_sums=[0.4, 0.1], n=2)
    cutoff_error(GroupedDataset(**args))  # the unmodified args are valid
    with pytest.raises(ValidationError):
        GroupedDataset(**{**args, **kwargs})


def exact_group_sums(t, v):
    sums = {}
    for a, b in zip(t, v):
        sums[a] = sums.get(a, Fraction(0)) + Fraction(b) - Fraction(a)
    return [sums[a] for a in sorted(sums)]


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
                          st.floats(0, 1)), min_size=1, max_size=300))
@settings(max_examples=200, deadline=None)
def test_pooled_sums_match_exact_fractions(pairs):
    t, v = zip(*pairs)
    data = grouped_from_arrays(t, v)
    exact = exact_group_sums(t, v)
    assert len(data) == len(exact)
    for got, want in zip(data.residual_sums.tolist(), exact):
        assert abs(Fraction(got) - want) <= Fraction(1, 10**12)


def test_pooled_sums_large_groups_match_exact_fractions():
    rng = np.random.default_rng(12)
    t = rng.choice([0.25, 0.5, 0.8], size=60_000)
    v = rng.random(60_000)
    data = grouped_from_arrays(t, v)
    for got, want in zip(data.residual_sums.tolist(),
                         exact_group_sums(t.tolist(), v.tolist())):
        assert abs(Fraction(got) - want) <= Fraction(1, 10**12)


def test_package_exports_each_modules_all():
    modules = [importlib.import_module(f"cutoffcal.{name}")
               for name in ("core", "metrics", "calibrate", "decision",
                            "experiments")]
    public = {name for name, value in vars(cutoffcal).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set().union(*(m.__all__ for m in modules))


def _bits(result):
    """result as a value that changes when any float in it changes a bit."""
    if isinstance(result, GroupedDataset):
        return [a.tobytes() for a in (result.forecasts, result.residual_sums,
                                      result.counts, result.target_sums)
                ] + [repr(result.n)]
    return repr(result.to_dict() if hasattr(result, "to_dict") else result)


# every public function that takes per-row data: rows come as the columns
# (forecasts, targets[, weights]), plain sequences or float arrays alike
PER_ROW = {
    "grouped_from_arrays": (grouped_from_arrays, 2),
    "fit_isotonic": (cutoffcal.fit_isotonic, 2),
    "fit_platt": (cutoffcal.fit_platt, 2),
    "fit_modified_platt": (cutoffcal.fit_modified_platt, 2),
    "risks": (lambda t, mu, w: cutoffcal.risks(t, mu, 0.5, w), 3),
    "risk_st": (lambda t, y, w: cutoffcal.risk_st(t, y, 0.4, w), 3),
    "population_platt": (cutoffcal.calibrate.population_platt, 3),
    "certify": (lambda t, y: cutoffcal.certify(
        t, y, lambda x, _: (lambda x: x), 4.0, 0.05), 2),
}


@pytest.mark.parametrize("name", PER_ROW)
def test_per_row_functions_take_sequences_or_arrays(name):
    fn, k = PER_ROW[name]
    rows = [[0.1, 0.3, 0.3, 0.6, 0.8, 0.9], [0.0, 1.0, 0.0, 1.0, 1.0, 0.0],
            [1.0, 2.0, 0.5, 1.0, 1.0, 3.0]][:k]
    assert _bits(fn(*rows)) == _bits(fn(*map(np.array, rows)))
    for i in range(1, k):
        with pytest.raises(ValidationError):
            fn(*rows[:i], rows[i][:-1], *rows[i + 1:])
