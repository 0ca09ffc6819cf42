import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridcast.data import (
    SplitSpec,
    TimeSeriesDataset,
    VariateStats,
    borrow_prefix,
    chronological_split,
    load_csv,
    make_windows,
    n_windows,
    save_stats,
    standardize,
    synthetic_sines,
)
from gridcast.errors import DataError


# -- load_csv ----------------------------------------------------------------


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_small_numeric(tmp_path):
    ds = load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"))
    assert ds.timesteps == 3 and ds.channels == 2
    np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_header_autodetect(tmp_path):
    ds = load_csv(write(tmp_path, "a,b\n1,2\n3,4\n"))
    assert ds.timesteps == 2
    np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4]])


def test_load_csv_drop_date_column(tmp_path):
    ds = load_csv(
        write(tmp_path, "date,x,y\n2020-01-01,1,2\n2020-01-02,3,4\n"),
        drop_columns=["date"],
    )
    assert ds.channels == 2
    np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4]])


def test_load_csv_value_columns_select_and_order(tmp_path):
    ds = load_csv(write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n"), value_columns=["c", "a"])
    np.testing.assert_array_equal(ds.values, [[3, 1], [6, 4]])


def test_load_csv_blank_cell_names_location(tmp_path):
    with pytest.raises(DataError) as err:
        load_csv(write(tmp_path, "a,b\n1,2\n3,\n"))
    msg = str(err.value)
    assert "line 3" in msg and "'b'" in msg


def test_load_csv_unparseable_cell(tmp_path):
    with pytest.raises(DataError) as err:
        load_csv(write(tmp_path, "1,2\n3,oops\n"))
    assert "line 2" in msg_of(err) and "'c1'" in msg_of(err)


def msg_of(err):
    return str(err.value)


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(DataError) as err:
        load_csv(write(tmp_path, "1,2\n3\n"))
    assert "line 2" in str(err.value)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_names_the_first_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,b\n1,2\ncaf\xe9,3\n".encode("latin-1"))
    with pytest.raises(DataError, match=r"latin1.csv is not UTF-8 text: byte 0xe9 at offset 11$"):
        load_csv(path)


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # without a header the marked first cell would read as text and the
    # first row as a header; with one, the first name would not be "date"
    bom = "\ufeff"
    plain = load_csv(write(tmp_path, "0.5,1\n2,3\n4,5\n"))
    marked = load_csv(write(tmp_path, bom + "0.5,1\n2,3\n4,5\n", name="marked.csv"))
    assert marked.timesteps == 3 and (marked.values == plain.values).all()
    dated = load_csv(
        write(tmp_path, bom + "date,x\n2020-01-01,1\n2020-01-02,3\n", name="dated.csv"),
        drop_columns=["date"],
    )
    np.testing.assert_array_equal(dated.values, [[1], [3]])


def test_load_csv_rejects_a_field_past_the_csv_limit(tmp_path):
    path = tmp_path / "quote.csv"
    path.write_text('a,"' + "x" * 200_000 + "\n")
    with pytest.raises(DataError, match="cannot parse .*quote.csv: field larger than field limit"):
        load_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "1,2\n3,inf\n"))


@pytest.mark.skipif(
    "GRIDCAST_WEATHER" not in os.environ,
    reason="set GRIDCAST_WEATHER to the benchmark weather CSV to run",
)
def test_load_csv_weather_benchmark_shape():
    ds = load_csv(os.environ["GRIDCAST_WEATHER"], drop_columns=["date"])
    assert ds.channels == 21
    assert ds.timesteps == 52696


# -- chronological_split -----------------------------------------------------


def make_ds(timesteps, n=2, seed=0):
    r = np.random.default_rng(seed)
    return TimeSeriesDataset("t", r.normal(size=(timesteps, n)))


def test_split_exact_division():
    tr, va, te = chronological_split(make_ds(100), SplitSpec(7, 1, 2))
    assert (tr.timesteps, va.timesteps, te.timesteps) == (70, 10, 20)


def test_split_ett_sizes():
    # 17420 steps at 6:2:2, floor arithmetic: 10452 / 3484 / 3484
    tr, va, te = chronological_split(make_ds(17420, n=1), SplitSpec(6, 2, 2))
    assert (tr.timesteps, va.timesteps, te.timesteps) == (10452, 3484, 3484)


def test_split_concatenation_reconstructs():
    ds = make_ds(101, n=3, seed=1)
    tr, va, te = chronological_split(ds, SplitSpec(6, 2, 2))
    np.testing.assert_array_equal(
        np.concatenate([tr.values, va.values, te.values]), ds.values
    )


def test_split_zero_ratio_rejected():
    for ratios in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        with pytest.raises(DataError, match="must be positive"):
            SplitSpec(*ratios)


def test_split_negative_ratio_rejected():
    with pytest.raises(DataError):
        SplitSpec(7, -1, 2)


def test_split_spec_parse_roundtrip():
    spec = SplitSpec.parse("6:2:2")
    assert spec == SplitSpec(6, 2, 2)
    assert SplitSpec.parse(str(spec)) == spec
    with pytest.raises(DataError):
        SplitSpec.parse("6:2")


# -- standardize -------------------------------------------------------------


def test_standardize_hand_arithmetic():
    tr = TimeSeriesDataset("t", np.array([[1.0], [3.0]]))
    va = TimeSeriesDataset("v", np.array([[2.0]]))
    te = TimeSeriesDataset("e", np.array([[4.0]]))
    tr_s, va_s, te_s, stats = standardize(tr, va, te)
    np.testing.assert_allclose(tr_s.values, [[-1.0], [1.0]])
    assert stats.mean[0] == 2.0 and stats.std[0] == 1.0
    np.testing.assert_allclose(va_s.values, [[0.0]])
    np.testing.assert_allclose(te_s.values, [[2.0]])


def test_standardize_constant_column_clamped():
    tr = TimeSeriesDataset("t", np.full((5, 2), 3.0))
    with pytest.warns(UserWarning):
        tr_s, _, _, stats = standardize(tr, tr, tr)
    np.testing.assert_array_equal(tr_s.values, np.zeros((5, 2)))
    np.testing.assert_array_equal(stats.std, [1.0, 1.0])


def test_standardize_val_uses_train_stats():
    r = np.random.default_rng(2)
    tr = TimeSeriesDataset("t", r.normal(size=(50, 2)))
    va = TimeSeriesDataset("v", r.normal(size=(20, 2)) * 10 + 5)
    _, va_s, _, stats = standardize(tr, va, va)
    np.testing.assert_allclose(va_s.values, (va.values - stats.mean) / stats.std)
    assert abs(va_s.values.mean()) > 0.1  # val stats deliberately not re-centred


def test_standardize_invertible():
    r = np.random.default_rng(3)
    tr = TimeSeriesDataset("t", r.normal(size=(40, 3)) * 4 + 7)
    tr_s, _, _, stats = standardize(tr, tr, tr)
    np.testing.assert_allclose(tr_s.values * stats.std + stats.mean, tr.values, atol=1e-9)


def test_stats_sidecar_roundtrip(tmp_path):
    stats = VariateStats(mean=np.array([1.5, -2.0]), std=np.array([0.25, 3.0]))
    path = tmp_path / "stats.csv"
    save_stats(stats, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variate_index", "mean", "std"]
    assert [int(r[0]) for r in rows[1:]] == [0, 1]
    np.testing.assert_array_equal([float(r[1]) for r in rows[1:]], stats.mean)
    np.testing.assert_array_equal([float(r[2]) for r in rows[1:]], stats.std)


# -- windows -----------------------------------------------------------------


def test_window_count_small():
    assert n_windows(10, 4, 2) == 5


def test_window_count_boundary():
    assert n_windows(6, 4, 2) == 1


def test_window_count_ett_test_split():
    # 3484-step test split, T=336, F=96: 3484 - 336 - 96 + 1 = 3053
    assert n_windows(3484, 336, 96) == 3053


def test_window_too_short():
    with pytest.raises(DataError) as err:
        n_windows(5, 4, 2)
    assert "split too short" in str(err.value)


def test_make_windows_content_and_contiguity():
    ds = make_ds(12, n=2, seed=4)
    batches = list(make_windows(ds, T=4, F=2, batch_size=3))
    n = sum(b.inputs.shape[0] for b in batches)
    assert n == n_windows(12, 4, 2) == 7
    flat_in = np.concatenate([b.inputs for b in batches])
    flat_out = np.concatenate([b.targets for b in batches])
    for i in range(n):
        np.testing.assert_array_equal(flat_in[i], ds.values[i : i + 4])
        np.testing.assert_array_equal(flat_out[i], ds.values[i + 4 : i + 6])


def test_make_windows_shuffle_seeded():
    ds = make_ds(30, seed=5)
    def starts(seed):
        rng = np.random.default_rng(seed)
        return [b.inputs[0, 0, 0] for b in make_windows(ds, 4, 2, shuffle=True, rng=rng)]
    assert starts(1) == starts(1)
    assert starts(1) != starts(2)
    with pytest.raises(DataError):
        list(make_windows(ds, 4, 2, shuffle=True))


@settings(max_examples=60, deadline=None)
@given(
    T=st.integers(1, 30),
    F=st.integers(1, 30),
    extra=st.integers(0, 80),
)
def test_window_count_formula_property(T, F, extra):
    ts = T + F + extra
    ds = TimeSeriesDataset("p", np.zeros((ts, 1)))
    count = sum(b.inputs.shape[0] for b in make_windows(ds, T, F, batch_size=8))
    assert count == n_windows(ts, T, F) == ts - T - F + 1


def test_borrow_prefix_prepends_context():
    ds = TimeSeriesDataset("b", np.arange(40.0).reshape(20, 2))
    tr, va, te = chronological_split(ds, SplitSpec(6, 2, 2))
    tr2, va2, te2 = borrow_prefix(tr, va, te, T=3)
    assert tr2 is tr
    assert va2.timesteps == va.timesteps + 3 and te2.timesteps == te.timesteps + 3
    np.testing.assert_array_equal(va2.values[:3], tr.values[-3:])
    np.testing.assert_array_equal(va2.values[3:], va.values)
    np.testing.assert_array_equal(te2.values[:3], va.values[-3:])
    np.testing.assert_array_equal(te2.values[3:], te.values)
    # each enlarged split yields exactly T extra windows
    assert n_windows(te2.timesteps, 3, 1) == n_windows(te.timesteps, 3, 1) + 3


def test_borrow_prefix_reaches_past_a_short_val_split():
    # 10 rows at 6:2:2 leave val with only 2 rows; the test prefix must still
    # be the 3 rows immediately before the test boundary in the source series.
    ds = TimeSeriesDataset("b", np.arange(20.0).reshape(10, 2))
    tr, va, te = chronological_split(ds, SplitSpec(6, 2, 2))
    _, _, te2 = borrow_prefix(tr, va, te, T=3)
    np.testing.assert_array_equal(te2.values[:3], ds.values[5:8])


# -- synthetic generators ----------------------------------------------------


def test_synthetic_sines_shape_and_structure():
    ds = synthetic_sines(2000, n_variates=4, period=48, noise=0.0, seed=0)
    assert ds.values.shape == (2000, 4)
    np.testing.assert_allclose(ds.values[48:], ds.values[:-48], atol=1e-9)
    # quarter-cycle phase shifts between adjacent variates
    np.testing.assert_allclose(ds.values[12:, 0], ds.values[:-12, 1], atol=1e-9)


def test_synthetic_sines_noise_level():
    clean = synthetic_sines(5000, noise=0.0, seed=7)
    noisy = synthetic_sines(5000, noise=0.05, seed=7)
    resid = noisy.values - clean.values
    assert 0.04 < resid.std() < 0.06


def test_synthetic_long_memory_periodic():
    ds = oracles.synthetic_long_memory(1000, n_variates=2, period=200, noise=0.0, seed=1)
    assert ds.values.shape == (1000, 2)
    np.testing.assert_allclose(ds.values[200:], ds.values[:-200], atol=1e-9)
    assert ds.values.std() > 0.3  # non-constant pattern


def test_synthetic_determinism():
    a = synthetic_sines(100, seed=3)
    b = synthetic_sines(100, seed=3)
    assert (a.values == b.values).all()
