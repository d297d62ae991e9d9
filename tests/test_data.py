import numpy as np
import pytest

from sdgl.data import (
    GenerationError,
    ParseError,
    PlantedGraphSpec,
    Scaler,
    SeriesDataset,
    graph_recovery_score,
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


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        vals = np.random.default_rng(0).normal(size=(20, 3)) * 1e6
        p = tmp_path / "t.csv"
        save_csv(p, vals)
        back = load_csv(p)
        np.testing.assert_array_equal(back.values, vals)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(p)

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


class TestScaler:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_and_unit_moments(self, seed):
        vals = np.random.default_rng(seed).normal(5.0, 3.0, size=(200, 4))
        sc = Scaler.fit(vals)
        z = sc.transform(vals)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(sc.inverse(z), vals, atol=1e-10)

    def test_constant_node_does_not_blow_up(self):
        vals = np.ones((50, 2))
        sc = Scaler.fit(vals)
        z = sc.transform(vals)
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(sc.inverse(z), vals, atol=1e-12)

    def test_window_layout_matches_flat_layout(self):
        vals = np.random.default_rng(1).normal(size=(30, 3))
        sc = Scaler.fit(vals)
        w = make_windows(vals, 5, 2)
        got = sc.transform_windows(w.inputs)
        for b, s in enumerate(w.starts):
            np.testing.assert_allclose(got[b], sc.transform(vals[s : s + 5]).T, atol=1e-14)
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
        i1, i2 = sw.boundaries
        assert (i1, i2) == (60, 80)
        assert len(sw.train) == 60 - 5 - 2 + 1
        assert len(sw.val) == 20 - 5 - 2 + 1
        assert len(sw.test) == 20 - 5 - 2 + 1
        np.testing.assert_allclose(sw.scaler.mean, vals[:60].mean(axis=0), atol=1e-14)
        np.testing.assert_array_equal(sw.train.inputs[0], vals[0:5].T)
        np.testing.assert_array_equal(sw.test.inputs[0], vals[80:85].T)

    def test_bad_ratios(self):
        with pytest.raises(ParseError, match="ratios"):
            window_split(SeriesDataset(np.zeros((50, 2))), 3, 1, ratios=(0.5, 0.4, 0.2))


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


class TestSynthGenerator:
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
        with pytest.raises(GenerationError, match="noise"):
            synth_generate(PlantedGraphSpec(noise_std=-1.0), 50, seed=0)
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

    def test_degenerate_truth_undefined(self):
        n = 4
        assert graph_recovery_score(np.random.rand(n, n), np.zeros((n, n))) is None
        all_edges = np.ones((n, n)) - np.eye(n)
        assert graph_recovery_score(np.random.rand(n, n), all_edges) is None

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            graph_recovery_score(np.zeros((3, 3)), np.zeros((4, 4)))
