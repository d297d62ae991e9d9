import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdgl import data
from sdgl.data import (
    GenerationError,
    ParseError,
    PlantedGraphSpec,
    Scaler,
    SeriesDataset,
    graph_recovery_score,
    group_metrics,
    load_csv,
    make_windows,
    metrics,
    save_csv,
    synth_generate,
    window_split,
)


class TestSeriesDataset:
    def test_rejects_single_column(self):
        with pytest.raises(ParseError):
            SeriesDataset(np.zeros((10, 1)))

    def test_rejects_nan_with_row_numbers(self):
        vals = np.zeros((5, 3))
        vals[2, 1] = np.nan
        with pytest.raises(ParseError, match=r"rows \[2\]"):
            SeriesDataset(vals)

    def test_shape_properties(self):
        ds = SeriesDataset(np.zeros((7, 4)))
        assert (ds.n_steps, ds.n_nodes) == (7, 4)


# the characters numpy's reader and the csv + float loop could read differently
CSV_ALPHABET = '0123456789,.eE+-"naif \t\r\n\x0b\x1c\xa0'

# tables under a header of two columns, most of them, whose rows hold mostly
# plain numerals, so that numpy's reader reads a good share of them and the
# loop the rest
_PLAIN_ROWS = st.lists(st.sampled_from(["1", "-2.5", " 3e2", ".5\t", "nan", "-Inf"]),
                       min_size=2, max_size=2).map(",".join)
_ANY_ROWS = st.lists(st.text(alphabet=CSV_ALPHABET, max_size=4), min_size=1, max_size=3).map(",".join)
CSV_TABLES = st.builds(
    lambda header, rows, end: end.join([header] + rows),
    st.sampled_from(["a,b", "a,b", "a,b", "a", "a,b,c"]),
    st.lists(st.sampled_from([_PLAIN_ROWS] * 3 + [_ANY_ROWS]).flatmap(lambda rows: rows),
             max_size=5),
    st.sampled_from(["\n", "\r\n", "\r"]))


def _outcome(path):
    try:
        return load_csv(path).values.tobytes()
    except ParseError as exc:
        return type(exc), str(exc)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        vals = np.random.default_rng(0).normal(size=(20, 3)) * 1e6
        p = tmp_path / "t.csv"
        save_csv(p, vals)
        back = load_csv(p)
        np.testing.assert_array_equal(back.values, vals)

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (100, 100), (2048, 10)],
                             ids=["0x3", "1x1", "100x100", "2048x10"])
    def test_bytes_match_the_csv_writer_loop(self, tmp_path, shape):
        # the oracle: the csv.writer loop that wrote these files before np.savetxt
        def oracle(path, values):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"node_{i}" for i in range(values.shape[1])])
                for row in values:
                    writer.writerow([f"{v:.17g}" for v in row])

        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, np.inf, -np.inf,
                    np.nan, 1.0, -3.0, 2.0**53, 1e16, 12345678901234567890.0, np.pi, 1 / 3]
        rng = np.random.default_rng(shape[0])
        vals = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)
        vals.reshape(-1)[: len(specials)] = specials[: vals.size]
        arrays = [vals, rng.normal(size=shape), np.round(rng.normal(size=shape) * 1e3)]
        if 0 < vals.size < len(specials):
            arrays += [np.full(shape, v) for v in specials]
        for values in arrays:
            save_csv(tmp_path / "new.csv", values)
            oracle(tmp_path / "old.csv", values)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_csv(p)

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\r\n"], ids=["header", "blank lines"])
    def test_header_only(self, tmp_path, recwarn, text):
        p = tmp_path / "h.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(p)
        assert not recwarn.list  # numpy's "input contained no data" stays inside

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(p)

    def test_non_numeric_reports_coordinates(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("a,b\n1,2\n1,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_csv(p)

    def test_over_long_field_is_parse_error(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n" + "1" * 200_000 + ",2\n")
        with pytest.raises(ParseError, match="line 2: field larger than field limit"):
            load_csv(p)

    def test_not_utf8_is_parse_error(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("a,b\n1,2\n3,é\n".encode("latin-1"))
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert str(exc.value) == f"{p}: not UTF-8 text: cannot decode byte 0xe9 (invalid continuation byte)"

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text())
    def test_garbage_text_loads_or_is_parse_error(self, tmp_path, text):
        p = tmp_path / "g.csv"
        p.write_text(text, encoding="utf-8")
        try:
            load_csv(p)
        except ParseError:
            pass

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n3,4\n",
        "a,b\r\n1,2\r\n3,4\r\n",
        "a,b\n1,2\n3,4",
        "a,b\n\n1,2\r\n\r\n3,4\n\n",
        "a,b\n1,2\n\xa03,4\xa0\n",
    ], ids=["LF", "CRLF", "no final newline", "blank lines", "no-break spaces"])
    def test_line_endings_blank_lines_and_spaces(self, tmp_path, text):
        p = tmp_path / "l.csv"
        p.write_bytes(text.encode("utf-8"))
        np.testing.assert_array_equal(load_csv(p).values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("cell, value", [('"1"2', 12.0), ("1_000", 1000.0)])
    def test_cells_float_reads(self, tmp_path, cell, value):
        p = tmp_path / "c.csv"
        p.write_text(f"a,b\n1,{cell}\n")
        np.testing.assert_array_equal(load_csv(p).values, [[1.0, value]])

    @pytest.mark.parametrize("text, fault", [
        ("a,b\n1,2\n \n", "ragged row at line 3 (1 cells, expected 2)"),
        ("a,b\n1,2\x1c\n", "non-numeric cell at row 1, column 2: '2\\x1c'"),
        ("a,b\n1,2\n3,nan\n", "non-finite values in rows [2] (data rows, counted from 1)"),
        ("a,b\n1,2\n-inf,4\n5,6\n7,inf\n", "non-finite values in rows [2, 4] (data rows, counted from 1)"),
        ("a\n1\n2\n", "dataset must be T x N with N >= 2, got (2, 1)"),
        # no line is over the limit, but the quoted cell is; numpy would read 1.0
        ('a,b\n"' + " " * 100_000 + "\n" + " " * 100_000 + '1",2\n',
         "line 3: field larger than field limit (131072)"),
    ], ids=["whitespace line", "separator control", "nan", "infinities", "one column",
            "quoted cell over lines"])
    def test_faults_name_the_file(self, tmp_path, text, fault):
        p = tmp_path / "f.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert str(exc.value) == f"{p}: {fault}"

    def test_no_python_object_per_cell(self, tmp_path):
        vals = np.random.default_rng(4).normal(size=(3000, 100))
        p = tmp_path / "big.csv"
        save_csv(p, vals)
        tracemalloc.start()
        try:
            back = load_csv(p).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back, vals)
        # numpy streams the rows into the array (1.1x its bytes); a float and a
        # list slot for every cell, as the csv loop makes, take 5.3x
        assert peak < 3 * vals.nbytes

    @settings(deadline=None, max_examples=500,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(st.text(alphabet=CSV_ALPHABET), CSV_TABLES))
    def test_numpy_reader_matches_the_cell_loop(self, tmp_path, text):
        p = tmp_path / "x.csv"
        p.write_text(text, encoding="utf-8", newline="")
        fast = _outcome(p)
        with mock.patch.object(data, "_read_plain", return_value=None):
            assert _outcome(p) == fast


class TestScaler:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_and_unit_moments(self, seed):
        vals = np.random.default_rng(seed).normal(5.0, 3.0, size=(200, 4))
        sc = Scaler.fit(vals)
        z = sc.transform_windows(vals[..., None])[..., 0]
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(sc.inverse_windows(z[..., None])[..., 0], vals, atol=1e-10)

    def test_constant_node_does_not_blow_up(self):
        vals = np.ones((50, 2))
        sc = Scaler.fit(vals)
        z = sc.transform_windows(vals[..., None])[..., 0]
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(sc.inverse_windows(z[..., None])[..., 0], vals, atol=1e-12)

    def test_window_layout_matches_flat_layout(self):
        vals = np.random.default_rng(1).normal(size=(30, 3))
        sc = Scaler.fit(vals)
        w = make_windows(vals, 5, 2)
        got = sc.transform_windows(w.inputs)
        for b, s in enumerate(w.starts):
            want = (vals[s : s + 5] - sc.mean) / sc.std
            np.testing.assert_allclose(got[b], want.T, atol=1e-14)
        np.testing.assert_allclose(sc.inverse_windows(got), w.inputs, atol=1e-12)


class TestWindows:
    @pytest.mark.parametrize("case", range(50))
    def test_count_matches_enumeration(self, case):
        rng = np.random.default_rng(case)
        t = int(rng.integers(10, 60))
        h = int(rng.integers(1, 8))
        horizon = int(rng.integers(1, 5))
        if t < h + horizon:
            t = h + horizon + int(rng.integers(0, 5))
        vals = rng.normal(size=(t, 2))
        w = make_windows(vals, h, horizon)
        # enumerate valid starts one by one
        count = sum(1 for s in range(t) if s + h + horizon <= t)
        assert len(w) == count == t - h - horizon + 1

    def test_window_contents(self):
        vals = np.arange(20.0).reshape(10, 2)
        w = make_windows(vals, 3, 2)
        np.testing.assert_array_equal(w.inputs[4], vals[4:7].T)
        np.testing.assert_array_equal(w.targets[4], vals[7:9].T)

    def test_windows_are_views_equal_to_copied_windows(self):
        vals = np.random.default_rng(3).normal(size=(40, 3))
        w = make_windows(vals, 6, 3)
        assert np.shares_memory(w.inputs, vals) and np.shares_memory(w.targets, vals)
        np.testing.assert_array_equal(w.inputs, np.stack([vals[s : s + 6].T for s in w.starts]))
        np.testing.assert_array_equal(
            w.targets, np.stack([vals[s + 6 : s + 9].T for s in w.starts]))

    def test_too_short_split(self):
        with pytest.raises(ParseError):
            make_windows(np.zeros((4, 2)), 3, 2)

    def test_split_is_chronological_and_scaler_train_only(self):
        vals = np.random.default_rng(2).normal(size=(100, 3))
        sw = window_split(SeriesDataset(vals), h=5, horizon=2)
        assert len(sw.train) == 60 - 5 - 2 + 1
        assert len(sw.val) == 20 - 5 - 2 + 1
        assert len(sw.test) == 20 - 5 - 2 + 1
        np.testing.assert_allclose(sw.scaler.mean, vals[:60].mean(axis=0), atol=1e-14)
        np.testing.assert_array_equal(sw.train.inputs[0], vals[0:5].T)
        np.testing.assert_array_equal(sw.val.inputs[0, :, 0], vals[60])
        np.testing.assert_array_equal(sw.test.inputs[0], vals[80:85].T)


def loop_metrics(pred, truth):
    """Element-by-element reimplementation of every metric."""
    p, t = pred.ravel(), truth.ravel()
    n = p.size
    mae = sum(abs(a - b) for a, b in zip(p, t)) / n
    rmse = (sum((a - b) ** 2 for a, b in zip(p, t)) / n) ** 0.5
    terms = [abs(a - b) / abs(b) for a, b in zip(p, t) if b != 0]
    mape = sum(terms) / len(terms) if terms else None
    tm = sum(t) / n
    denom = sum((b - tm) ** 2 for b in t) ** 0.5
    rse = (sum((a - b) ** 2 for a, b in zip(p, t)) ** 0.5) / denom if denom > 0 else None
    corrs = []
    for i in range(pred.shape[-2]):
        pi = np.moveaxis(pred, -2, 0)[i].ravel()
        ti = np.moveaxis(truth, -2, 0)[i].ravel()
        if pi.std() > 0 and ti.std() > 0:
            pc = ((pi - pi.mean()) * (ti - ti.mean())).mean() / (pi.std() * ti.std())
            corrs.append(pc)
    corr = sum(corrs) / len(corrs) if corrs else None
    return mae, rmse, mape, rse, corr


def corrcoef_loop_corr(pred, truth):
    """CORR the way ``metrics`` once computed it: one np.corrcoef per node row."""
    if pred.ndim >= 2:
        p2 = np.moveaxis(pred, -2, 0).reshape(pred.shape[-2], -1)
        t2 = np.moveaxis(truth, -2, 0).reshape(truth.shape[-2], -1)
    else:
        p2, t2 = pred[None], truth[None]
    corrs = [float(np.corrcoef(pi, ti)[0, 1])
             for pi, ti in zip(p2, t2) if pi.std() > 0 and ti.std() > 0]
    return float(np.mean(corrs)) if corrs else None


class TestMetrics:
    def test_perfect_prediction(self):
        t = np.random.default_rng(0).normal(size=(4, 3, 2)) + 5
        m = metrics(t, t)
        assert m["MAE"] == 0 and m["RMSE"] == 0 and m["MAPE"] == 0
        assert m["RSE"] == 0
        assert m["CORR"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=(5, 4, 3))
        truth = rng.normal(size=(5, 4, 3)) + 1.0
        m = metrics(pred, truth)
        mae, rmse, mape, rse, corr = loop_metrics(pred, truth)
        assert m["MAE"] == pytest.approx(mae, abs=1e-12)
        assert m["RMSE"] == pytest.approx(rmse, abs=1e-12)
        assert m["MAPE"] == pytest.approx(mape, abs=1e-12)
        assert m["RSE"] == pytest.approx(rse, abs=1e-12)
        assert m["CORR"] == pytest.approx(corr, abs=1e-12)

    @pytest.mark.parametrize("shape", [(7, 4), (7, 4, 1), (7, 4, 3), (5, 100, 2)])
    def test_corr_matches_loop_oracles(self, shape):
        # axis -2 holds the rows CORR averages over: 7 of them for (7, 4),
        # 100 for (5, 100, 2)
        rng = np.random.default_rng(len(shape) * 10 + shape[-1])
        pred = rng.normal(size=shape)
        truth = 0.5 * pred + rng.normal(size=shape)
        m = metrics(pred, truth)
        assert m["CORR"] == pytest.approx(loop_metrics(pred, truth)[4], abs=1e-12)
        assert m["CORR"] == pytest.approx(corrcoef_loop_corr(pred, truth), abs=1e-12)

    def test_constant_node_excluded_from_corr(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(6, 4, 2))
        truth = rng.normal(size=(6, 4, 2))
        pred[:, 1, :] = 2.5  # a node whose forecast never moves
        truth[:, 3, :] = -1.0  # a node whose target never moves
        corr = metrics(pred, truth)["CORR"]
        assert corr == pytest.approx(loop_metrics(pred, truth)[4], abs=1e-12)
        kept = [np.corrcoef(pred[:, i].ravel(), truth[:, i].ravel())[0, 1] for i in (0, 2)]
        assert corr == pytest.approx(np.mean(kept), abs=1e-12)

    def test_constant_forecast_excluded_whatever_its_value(self):
        # the mean of 100 copies of 0.1 or 0.3 does not round back to the
        # constant, so centering leaves tiny nonzero values in the row
        rng = np.random.default_rng(6)
        pred = rng.normal(size=(100, 3, 1))
        truth = pred + 0.5 * rng.normal(size=(100, 3, 1))

        def corr_with_constant_node(value):
            p = pred.copy()
            p[:, 1, :] = value
            return metrics(p, truth)["CORR"]

        assert corr_with_constant_node(0.1) == corr_with_constant_node(0.3) == corr_with_constant_node(2.5)

    def test_all_constant_nodes_give_undefined_corr(self):
        truth = np.random.default_rng(4).normal(size=(6, 3, 2))
        assert metrics(np.full((6, 3, 2), 4.0), truth)["CORR"] is None
        assert metrics(truth, np.zeros((6, 3, 2)))["CORR"] is None
        assert corrcoef_loop_corr(np.full((6, 3, 2), 4.0), truth) is None

    def test_anti_correlated_rows_clip_at_minus_one(self):
        # unclipped, rounding puts these rows, and their mean, at -1 - 2e-16
        pred = np.random.default_rng(20).normal(size=(6, 5, 3))
        truth = -3.0 * pred + 1.0
        corr = metrics(pred, truth)["CORR"]
        assert corr >= -1.0
        assert corr == pytest.approx(-1.0, abs=1e-12)
        assert corr == pytest.approx(corrcoef_loop_corr(pred, truth), abs=1e-12)

    @pytest.mark.parametrize("length", [7, 10, 1001])
    @pytest.mark.parametrize("value", [0.1, 2.2, 3.7])
    def test_constant_target_gives_undefined_rse(self, value, length):
        # the mean of these rows does not round back to the constant, so
        # centering leaves tiny nonzero values, which once gave RSE up to 3.6e16
        truth = np.full((length, 3), value)
        m = metrics(truth + 0.5, truth)
        assert m["RSE"] is None and m["CORR"] is None
        assert m["MAE"] == pytest.approx(0.5, abs=1e-12)

    def test_rse_of_rows_with_distinct_constants_is_defined(self):
        # each node's target is constant, but the target as a whole varies
        truth = np.broadcast_to(np.array([0.1, 2.2, 3.7])[:, None], (10, 3, 4)).copy()
        pred = truth + np.random.default_rng(8).normal(size=truth.shape)
        m = metrics(pred, truth)
        assert m["CORR"] is None
        assert m["RSE"] == pytest.approx(loop_metrics(pred, truth)[3], abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1, 5), (3, 1, 20000), (4, 2, 8193), (2, 10, 300)])
    def test_group_is_its_one_group_call(self, shape):
        # rows longer than numpy's 8192-element buffer and single-node groups
        # included; a group's figures are its slice's, bit for bit
        rng = np.random.default_rng(shape[-1])
        pred = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape[:2] + (1,))
        truth = pred + rng.normal(size=shape)
        truth[..., ::7] = 0.0
        assert group_metrics(pred, truth) == [metrics(p, t) for p, t in zip(pred, truth)]

    def test_all_zero_targets_mape_undefined(self):
        m = metrics(np.ones((2, 2)), np.zeros((2, 2)))
        assert m["MAPE"] is None

    def test_zero_targets_excluded_from_mape(self):
        pred = np.array([[2.0, 3.0]])
        truth = np.array([[0.0, 2.0]])
        assert metrics(pred, truth)["MAPE"] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            metrics(np.zeros((2, 2)), np.zeros((2, 3)))


# synth_generate's output, frozen: (spec, steps, seed, the i < j pairs of the
# adjacency, those of the secondary adjacency, the series' L2 norm and its
# projection on a fixed random unit vector). The series goes through BLAS, so
# it is compared within SYNTH_RTOL of its norm, as in test_reference_outputs.py.
FROZEN_SYNTH = {
    "default": (
        {}, 80, 0,
        [(0, 1), (0, 4), (0, 8), (0, 9), (1, 2), (1, 7), (1, 8), (2, 4), (2, 5), (2, 7),
         (3, 6), (3, 7), (4, 6), (5, 8)],
        None, (32.317432543422726, 1.6794892601659654)),
    "switching": (
        dict(n_nodes=8, edge_prob=0.3, switch_intervals=((10, 20), (40, 55))), 80, 5,
        [(0, 4), (0, 7), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 6), (3, 7),
         (4, 6)],
        [(0, 2), (0, 6), (0, 7), (1, 6), (2, 3), (2, 6), (3, 4), (3, 7), (4, 7), (5, 6),
         (6, 7)],
        (68.3086841831506, 2.668063303102712)),
    # no pair drawn: the pair (0, 1) is forced
    "edge_prob_0": (
        dict(n_nodes=6, edge_prob=0.0, switch_intervals=((5, 15),)), 40, 1,
        [(0, 1)], [(0, 2)], (21.237063351749786, 0.7877428070899316)),
    # every pair drawn: the switch drops edges and has none to add
    "edge_prob_1": (
        dict(n_nodes=5, edge_prob=1.0, switch_intervals=((5, 15),), switch_fraction=0.3), 40, 7,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4)],
        (27.898627751653027, -0.4671231107246755)),
    "two_nodes": (
        dict(n_nodes=2, switch_intervals=((3, 9),)), 30, 2,
        [(0, 1)], [], (18.903968540031364, 1.6741156767795016)),
}
SYNTH_RTOL = 1e-11


def adjacency_of(n: int, pairs) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j in pairs:
        a[i, j] = a[j, i] = 1.0
    return a


class TestSynthGenerator:
    @pytest.mark.parametrize("case", sorted(FROZEN_SYNTH))
    def test_output_is_frozen(self, case):
        spec, steps, seed, pairs, secondary, (norm, probe) = FROZEN_SYNTH[case]
        spec = PlantedGraphSpec(**spec)
        res = synth_generate(spec, steps, seed)
        np.testing.assert_array_equal(res.adjacency, adjacency_of(spec.n_nodes, pairs))
        if secondary is None:
            assert res.secondary_adjacency is None
        else:
            np.testing.assert_array_equal(res.secondary_adjacency,
                                          adjacency_of(spec.n_nodes, secondary))
        values = res.dataset.values.reshape(-1)
        unit = np.random.default_rng(12345).standard_normal(values.size)
        unit /= np.linalg.norm(unit)
        assert abs(np.linalg.norm(values) - norm) <= SYNTH_RTOL * norm
        assert abs(values @ unit - probe) <= SYNTH_RTOL * norm

    def test_deterministic_for_seed(self):
        spec = PlantedGraphSpec(n_nodes=6, noise_std=0.2)
        a = synth_generate(spec, 100, seed=9)
        b = synth_generate(spec, 100, seed=9)
        np.testing.assert_array_equal(a.dataset.values, b.dataset.values)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)

    def test_different_seeds_differ(self):
        spec = PlantedGraphSpec(n_nodes=6, noise_std=0.2)
        a = synth_generate(spec, 100, seed=1)
        b = synth_generate(spec, 100, seed=2)
        assert np.abs(a.dataset.values - b.dataset.values).max() > 0

    def test_planted_graph_is_symmetric_zero_diagonal(self):
        res = synth_generate(PlantedGraphSpec(n_nodes=8), 50, seed=3)
        np.testing.assert_array_equal(res.adjacency, res.adjacency.T)
        np.testing.assert_array_equal(np.diag(res.adjacency), 0)
        assert res.adjacency.sum() > 0

    def test_noiseless_recursion_matches_by_hand(self):
        spec = PlantedGraphSpec(n_nodes=5, edge_prob=0.4, alpha=0.6, noise_std=0.0)
        res = synth_generate(spec, 40, seed=4)
        x = res.dataset.values
        with_self = res.adjacency + np.eye(5)
        m = 0.6 * with_self / with_self.sum(axis=1, keepdims=True)
        # without noise the residual x[t+1] - M x[t] is the seasonal forcing:
        # identical across nodes and periodic in t
        resid = np.array([x[t + 1] - m @ x[t] for t in range(39)])
        np.testing.assert_allclose(resid - resid[:, :1], 0.0, atol=1e-10)
        period = spec.seasonal_period
        np.testing.assert_allclose(resid[period:, 0], resid[:-period, 0], atol=1e-10)
        assert np.abs(x).max() < 50

    @pytest.mark.parametrize("switch", [(), ((10, 20),)])
    def test_recorded_forcing_is_the_noiseless_residual(self, switch):
        spec = PlantedGraphSpec(n_nodes=5, edge_prob=0.4, alpha=0.6, noise_std=0.0,
                                seasonal_period=7, switch_intervals=switch)
        res = synth_generate(spec, 40, seed=4)
        x = res.dataset.values

        def dynamics(edges):
            with_self = edges + np.eye(5)
            return 0.6 * with_self / with_self.sum(axis=1, keepdims=True)

        resid = np.array([x[t + 1] - dynamics(res.secondary_adjacency if 10 <= t < 20 and switch
                                              else res.adjacency) @ x[t] for t in range(39)])
        assert res.period == 7 and 0.5 <= res.amp <= 1.5 and 0.0 <= res.phase < 2 * np.pi
        t = np.arange(1, 40)
        forcing = res.amp * np.sin(2 * np.pi * t / res.period + res.phase)
        np.testing.assert_allclose(resid, np.repeat(forcing[:, None], 5, axis=1), atol=1e-10)

    def test_switch_intervals_produce_secondary_set(self):
        spec = PlantedGraphSpec(n_nodes=8, edge_prob=0.3, switch_intervals=((10, 20),))
        res = synth_generate(spec, 60, seed=5)
        assert res.secondary_adjacency is not None
        assert np.abs(res.secondary_adjacency - res.adjacency).sum() > 0
        np.testing.assert_array_equal(res.secondary_adjacency, res.secondary_adjacency.T)
        assert res.schedule == ((10, 20),)

    def test_no_switch_no_secondary(self):
        res = synth_generate(PlantedGraphSpec(n_nodes=5), 50, seed=6)
        assert res.secondary_adjacency is None

    def test_invalid_specs_rejected(self):
        with pytest.raises(GenerationError):
            synth_generate(PlantedGraphSpec(n_nodes=1), 50, seed=0)
        with pytest.raises(GenerationError):
            synth_generate(PlantedGraphSpec(alpha=1.0), 50, seed=0)
        with pytest.raises(GenerationError):
            synth_generate(PlantedGraphSpec(edge_prob=1.5), 50, seed=0)
        with pytest.raises(GenerationError, match="seasonal period"):
            synth_generate(PlantedGraphSpec(seasonal_period=0), 50, seed=0)
        for noise in (-1.0, float("nan")):
            with pytest.raises(GenerationError, match="noise std must be"):
                synth_generate(PlantedGraphSpec(noise_std=noise), 50, seed=0)
        with pytest.raises(GenerationError, match="non-finite with noise std 1e"):
            synth_generate(PlantedGraphSpec(noise_std=1e308), 50, seed=0)
        for fraction in (float("nan"), -3.0, 1.5):
            with pytest.raises(GenerationError, match="switch fraction"):
                synth_generate(PlantedGraphSpec(switch_intervals=((5, 9),),
                                                switch_fraction=fraction), 50, seed=0)
        with pytest.raises(GenerationError, match="5:3"):
            synth_generate(PlantedGraphSpec(switch_intervals=((10, 20), (5, 3))), 50, seed=0)
        with pytest.raises(GenerationError, match="time step"):
            synth_generate(PlantedGraphSpec(), 0, seed=0)


def pairwise_auc(scores, labels):
    """All-pairs comparison with half credit for ties."""
    wins = 0.0
    total = 0
    for sp, lp in zip(scores, labels):
        if not lp:
            continue
        for sn, ln in zip(scores, labels):
            if ln:
                continue
            total += 1
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / total


def loop_midrank_auc(scores, labels):
    """AUC from midranks found by walking runs of tied sorted scores."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


class TestGraphRecoveryScore:
    def test_truth_as_scores_is_perfect(self):
        truth = np.zeros((5, 5))
        truth[0, 1] = truth[1, 0] = truth[2, 3] = truth[3, 2] = 1.0
        assert graph_recovery_score(truth, truth) == 1.0

    def test_uniform_scores_are_chance(self):
        truth = np.zeros((5, 5))
        truth[0, 1] = truth[1, 0] = 1.0
        learned = np.full((5, 5), 0.2)
        assert graph_recovery_score(learned, truth) == 0.5

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        truth = (rng.random((n, n)) < 0.3).astype(float)
        truth = np.triu(truth, 1) + np.triu(truth, 1).T
        if truth.sum() == 0 or truth.sum() == n * (n - 1):
            truth[0, 1] = truth[1, 0] = 1.0
            truth[2, 3] = truth[3, 2] = 0.0
        learned = rng.random((n, n))
        off = ~np.eye(n, dtype=bool)
        want = pairwise_auc(learned[off], truth[off] > 0)
        got = graph_recovery_score(learned, truth)
        assert got == pytest.approx(want, abs=1e-12)

    def test_tied_scores_match_midrank_loop(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(3, 9))
            truth = (rng.random((n, n)) < 0.4).astype(float)
            truth[0, 1], truth[1, 0] = 1.0, 0.0  # at least one edge and one non-edge
            learned = rng.integers(0, 4, size=(n, n)) / 4.0  # few distinct values: many ties
            off = ~np.eye(n, dtype=bool)
            want = loop_midrank_auc(learned[off], truth[off] > 0)
            assert graph_recovery_score(learned, truth) == want, trial

    def test_degenerate_truth_undefined(self):
        n = 4
        assert graph_recovery_score(np.random.rand(n, n), np.zeros((n, n))) is None
        all_edges = np.ones((n, n)) - np.eye(n)
        assert graph_recovery_score(np.random.rand(n, n), all_edges) is None

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            graph_recovery_score(np.zeros((3, 3)), np.zeros((4, 4)))
