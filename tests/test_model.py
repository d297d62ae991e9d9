import ast
import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
import weakref
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdgl import autodiff as ad
from sdgl import checkpoint, temporal
from sdgl.autodiff import Tape, Tensor
from sdgl.data import (
    PlantedGraphSpec,
    Scaler,
    SeriesDataset,
    make_windows,
    metrics,
    save_csv,
    synth_generate,
)
from sdgl import data as sdgl_data
from sdgl.graph_conv import MixHopConv
from sdgl.model import (
    ABLATION_FLAGS,
    DivergenceError,
    ModelConfig,
    SDGLModel,
    SGD,
    evaluate,
    hybrid_loss,
    predict,
    state_shapes,
    train,
)
from sdgl.static_graph import ConfigError


def tiny_config(**overrides):
    base = dict(
        n_nodes=4, window=19, horizon=3, embed_dim=8, heads=2, channels=8,
        layers=2, depth=2, dropout_keep=1.0, batch_size=8, epochs=2,
        learning_rate=0.05, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_dataset(t=120, n=4, seed=0):
    vals = np.random.default_rng(seed).normal(size=(t, n)).cumsum(axis=0) * 0.1
    return SeriesDataset(vals)


class TestModelConfig:
    def test_defaults_validate_at_benchmark_scale(self):
        # the sizes used by the public traffic benchmarks must be accepted
        ModelConfig(n_nodes=307).validate()
        ModelConfig(n_nodes=170).validate()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(n_nodes=1), "n_nodes"),
            (dict(growth=1.0), "growth"),
            (dict(layers=0), "layers"),
            (dict(window=12), "window"),
            (dict(horizon=0), "horizon"),
            (dict(channels=10), "channels"),
            (dict(depth=0), "depth"),
            (dict(momentum=1.0), "momentum"),
            (dict(dropout_keep=0.0), "dropout_keep"),
            (dict(lambda_reg=-1.0), "lambda_reg"),
            (dict(gamma=-0.1), "gamma"),
            (dict(learning_rate=0.0), "learning_rate"),
            (dict(ablation=("bogus",)), "ablation"),
            (dict(ablation=("no_ifm", "ifm_plus")), "ablation"),
            (dict(heads=0), "heads"),
            (dict(heads=-1), "heads"),
            (dict(embed_dim=0), "embed_dim"),
            (dict(head_dim=0), "head_dim"),
            (dict(channels=0), "channels"),
            (dict(batch_size=0), "batch_size"),
            (dict(epochs=-1), "epochs"),
            (dict(seed=-1), "seed"),
            (dict(channels=16.0), "channels"),
            (dict(layers=True), "layers"),
            (dict(head_dim=2.0), "head_dim"),
            (dict(growth="2"), "growth"),
            (dict(dropout_keep=False), "dropout_keep"),
            (dict(learning_rate=float("inf")), "learning_rate"),
            (dict(ablation="no_gloss"), "ablation: need a list"),
            (dict(ablation=None), "ablation"),
            (dict(ablation={"no_gloss": 1}), "ablation"),
            (dict(ablation=("no_gloss", 5)), "ablation"),
        ],
    )
    def test_rejections_name_the_field(self, overrides, field):
        cfg = tiny_config(**overrides)
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    def test_window_bound_follows_floored_dilations(self):
        # growth 1.5 floors the dilations to 1, 1, 2, so three layers shorten
        # time by 6 * (1 + 1 + 2) = 24: window 25 leaves exactly one step
        model = SDGLModel(tiny_config(growth=1.5, layers=3, window=25))
        lengths = []

        def recording(layer):
            def run(hidden):
                out = layer(hidden)
                lengths.append(out.shape[3])
                return out
            return run

        model.tcn_layers = [recording(layer) for layer in model.tcn_layers]
        out = model.forward(np.random.default_rng(0).normal(size=(2, 4, 25)))
        assert lengths == [19, 13, 1]
        assert out.prediction.shape == (2, 4, 3)
        with pytest.raises(ConfigError, match="window"):
            tiny_config(growth=1.5, layers=3, window=24).validate()

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("growth", [1.5, 2.0, 2.5, 3.0])
    def test_window_bound_is_what_the_built_layers_need(self, growth, layers):
        roomy = SDGLModel(tiny_config(growth=growth, layers=layers, window=1000))
        bound = 1 + 6 * sum(layer.filter_bank.dilation for layer in roomy.tcn_layers)
        with pytest.raises(ConfigError, match="window"):
            tiny_config(growth=growth, layers=layers, window=bound - 1).validate()
        model = SDGLModel(tiny_config(growth=growth, layers=layers, window=bound))
        assert model.forward(np.zeros((1, 4, bound))).prediction.shape == (1, 4, 3)

    @pytest.mark.parametrize("layers,bound", [(1, 7), (2, 19), (3, 43)])
    def test_window_bound_at_growth_two(self, layers, bound):
        tiny_config(layers=layers, window=bound).validate()
        with pytest.raises(ConfigError, match="window"):
            tiny_config(layers=layers, window=bound - 1).validate()

    @pytest.mark.parametrize("overrides", [
        dict(layers=2000),  # 2.0 ** 1999 overflows a float
        dict(layers=10**12),
        dict(layers=10**12, window=10**400),  # the sum passes float range first
        dict(growth=1e300, layers=3, window=10**400),
    ])
    def test_huge_stack_is_rejected_at_once(self, overrides):
        # the receptive-field sum stops at the first layer the window cannot feed
        cfg = tiny_config(**overrides)
        started = time.perf_counter()
        with pytest.raises(ConfigError, match="^window: "):
            cfg.validate()
        assert time.perf_counter() - started < 1.0

    def test_head_dim_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            tiny_config(embed_dim=9, heads=2).validate()
        tiny_config(embed_dim=9, heads=2, head_dim=3).validate()

    def test_dict_round_trip(self):
        cfg = tiny_config(ablation=("no_gloss",))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestForward:
    def test_output_shapes_and_graphs(self):
        model = SDGLModel(tiny_config())
        x = np.random.default_rng(0).normal(size=(5, 4, 19))
        out = model.forward(x)
        assert out.prediction.shape == (5, 4, 3)
        assert out.static_graph.values.shape == (4, 4)
        assert out.dynamic_graphs.values.shape == (5, 4, 4)
        out.static_graph.validate()
        out.dynamic_graphs.validate()
        assert out.reg_loss.item() >= 0

    def test_wrong_input_shape(self):
        model = SDGLModel(tiny_config())
        with pytest.raises(ad.ShapeError, match="forward"):
            model.forward(np.zeros((2, 4, 7)))
        # a wrong rank names the expected shape, not an unpacking error
        for shape in [(4, 19), (1, 1, 4, 19)]:
            with pytest.raises(ad.ShapeError, match=r"forward: expected \(B, 4, 19\) input"):
                model.forward(np.zeros(shape))

    def test_same_seed_same_outputs(self):
        x = np.random.default_rng(1).normal(size=(3, 4, 19))
        a = SDGLModel(tiny_config()).forward(x).prediction.data
        b = SDGLModel(tiny_config()).forward(x).prediction.data
        np.testing.assert_array_equal(a, b)

    def test_dynamic_branch_absent_under_ablation(self):
        model = SDGLModel(tiny_config(ablation=("no_dyadj",)))
        out = model.forward(np.zeros((2, 4, 19)))
        assert out.dynamic_graphs is None

    def test_no_dyadj_ignores_dynamic_parameters(self):
        cfg = tiny_config(ablation=("no_dyadj",))
        x = np.random.default_rng(2).normal(size=(2, 4, 19))
        model = SDGLModel(cfg)
        base = model.forward(x).prediction.data.copy()
        for t in model.dynamic.parameters().values():
            t.data = np.random.default_rng(3).normal(size=t.data.shape)
        np.testing.assert_array_equal(model.forward(x).prediction.data, base)

    def test_dynamic_embeddings_not_trainable(self):
        model = SDGLModel(tiny_config())
        assert "embeddings.m_dynamic" not in model.parameters()
        assert "embeddings.m_dynamic" in model.state_tensors()


def closure_lines() -> set[int]:
    """Lines of autodiff.py where a top-level function builds a nested
    function or a lambda."""
    tree = ast.parse(inspect.getsource(ad))
    return {node.lineno for top in tree.body if isinstance(top, ast.FunctionDef)
            for node in ast.walk(top)
            if node is not top and isinstance(node, (ast.FunctionDef, ast.Lambda))}


def autodiff_lines_run(fn) -> set[int]:
    """Lines of autodiff.py executed while ``fn()`` runs."""
    hit: set[int] = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != ad.__file__:
            return None
        if event == "line":
            hit.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return hit


class TestTapeMemory:
    def test_forward_keeps_only_what_backward_reads(self, monkeypatch):
        seen: dict[str, list] = {}

        def spy(key, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.setdefault(key, []).append(weakref.ref(out.data))
                return out
            return wrapper

        monkeypatch.setattr(ad, "conv1d_dilated", spy("conv", ad.conv1d_dilated))
        # conv plus bias: the gated layers' pre-activations, outputs of add
        monkeypatch.setattr(temporal, "_packed_inception",
                            spy("pre-activation", temporal._packed_inception))
        monkeypatch.setattr(MixHopConv, "__call__", spy("mix-hop", MixHopConv.__call__))
        monkeypatch.setattr(ad, "tanh", spy("tanh", ad.tanh))
        monkeypatch.setattr(ad, "sigmoid", spy("sigmoid", ad.sigmoid))
        model = SDGLModel(tiny_config(dropout_keep=0.8))
        rng = np.random.default_rng(0)
        t = Tape()
        with t:
            res = model.forward(Tensor(rng.normal(size=(3, 4, 19))), training=True)
            loss = hybrid_loss(res.prediction, Tensor(rng.normal(size=(3, 4, 3))),
                               res.reg_loss, 0.5)
        for key in ("conv", "pre-activation", "mix-hop"):
            assert len(seen[key]) >= 2 and all(r() is None for r in seen[key]), key
        # their rules read tanh's and sigmoid's outputs
        for key in ("tanh", "sigmoid"):
            assert len(seen[key]) >= 2 and all(r() is not None for r in seen[key]), key
        t.backward(loss)
        assert all(r() is None for key in ("tanh", "sigmoid") for r in seen[key])

    def test_no_closure_without_a_tape(self):
        model = SDGLModel(tiny_config(dropout_keep=0.8))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 19)))
        built = closure_lines()
        untaped = autodiff_lines_run(lambda: model.forward(x, training=True)) & built
        assert not untaped, f"autodiff.py lines {sorted(untaped)} built a closure"

        def taped():
            with Tape():
                model.forward(x, training=True)

        # the check sees closures where they are built
        assert autodiff_lines_run(taped) & built


class TestHybridLoss:
    def test_perfect_prediction_leaves_regularizer(self):
        p = Tensor(np.ones((2, 3, 4)))
        loss = hybrid_loss(p, Tensor(np.ones((2, 3, 4))), Tensor(np.asarray(2.0)), 0.5)
        assert loss.item() == pytest.approx(1.0, abs=1e-15)

    def test_zero_lambda_is_pure_mae(self):
        rng = np.random.default_rng(0)
        p, t = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        loss = hybrid_loss(Tensor(p), Tensor(t), Tensor(np.asarray(9.0)), 0.0)
        assert loss.item() == pytest.approx(np.abs(p - t).mean(), abs=1e-15)

    def test_prediction_gradient_is_sign_over_size(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        t = rng.normal(size=(2, 3, 4))
        tape = Tape()
        with tape:
            loss = hybrid_loss(p, Tensor(t), Tensor(np.asarray(0.0)), 0.5)
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, np.sign(p.data - t) / p.data.size)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            hybrid_loss(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 4))),
                        Tensor(np.asarray(0.0)), 0.1)


class TestSGD:
    def test_plain_step(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.5])
        SGD({"p": p}, lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05], atol=1e-15)

    def test_clipping_rescales_global_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)  # norm 20 > clip 5
        SGD({"p": p}, lr=1.0).step()
        np.testing.assert_allclose(np.linalg.norm(p.data), 5.0, atol=1e-12)


class TestTraining:
    def test_deterministic_given_seed(self):
        ds = tiny_dataset()
        a = train(ds, tiny_config())
        b = train(ds, tiny_config())
        assert a.history == b.history
        for (n1, p1), (n2, p2) in zip(sorted(a.model.parameters().items()),
                                      sorted(b.model.parameters().items())):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_loss_decreases_on_learnable_signal(self):
        res = synth_generate(PlantedGraphSpec(n_nodes=4, edge_prob=0.4, noise_std=0.05),
                             200, seed=1)
        out = train(res.dataset, tiny_config(epochs=15, lambda_reg=0.0))
        losses = [h["train_loss"] for h in out.history]
        assert losses[-1] < 0.7 * losses[0]

    def test_no_gloss_equals_zero_lambda(self):
        ds = tiny_dataset(seed=2)
        a = train(ds, tiny_config(lambda_reg=0.3, ablation=("no_gloss",)))
        b = train(ds, tiny_config(lambda_reg=0.0))
        assert [h["train_loss"] for h in a.history] == [h["train_loss"] for h in b.history]

    def test_zero_momentum_keeps_embeddings_synced(self):
        ds = tiny_dataset(seed=3)
        out = train(ds, tiny_config(momentum=0.0, epochs=1))
        np.testing.assert_array_equal(out.model.embeddings.m_dynamic.data,
                                      out.model.embeddings.m_static.data)

    def test_momentum_trails_static_embeddings(self):
        ds = tiny_dataset(seed=4)
        out = train(ds, tiny_config(momentum=0.9, epochs=1))
        md = out.model.embeddings.m_dynamic.data
        ms = out.model.embeddings.m_static.data
        assert np.abs(md - ms).max() > 0  # lags behind
        assert np.all(np.isfinite(md))

    def test_divergence_warns_nothing(self):
        with warnings.catch_warnings(record=True) as caught, pytest.raises(DivergenceError):
            warnings.simplefilter("always")
            train(tiny_dataset(seed=5), tiny_config(learning_rate=1e160, epochs=5))
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_divergence_reports_last_finite_loss(self):
        ds = tiny_dataset(seed=5)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train(ds, tiny_config(learning_rate=1e160, epochs=5))
        found = re.fullmatch(
            r"loss became non-finite at epoch (\d+), batch (\d+); last finite loss was "
            r"(\S+), last gradient norm before clipping was (\S+)", str(exc.value))
        assert found, str(exc.value)
        epoch, batch = int(found[1]), int(found[2])
        assert epoch >= 1 and 1 <= batch <= 8  # 8 batches of 8 in the 59 training windows
        assert math.isfinite(float(found[3])) and float(found[4]) > 0

    def test_divergence_in_the_last_step(self):
        # one step in all, so no loss check sees its update; on this series
        # that update makes the validation forecast overflow
        series = synth_generate(PlantedGraphSpec(n_nodes=4), 120, seed=3).dataset
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(DivergenceError) as exc:
            warnings.simplefilter("always")
            train(series, tiny_config(learning_rate=1e308, epochs=1, batch_size=100000))
        assert str(exc.value).startswith(
            "validation forecast became non-finite after the last step of epoch 1;")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_history_records_validation_metrics(self):
        out = train(tiny_dataset(seed=6), tiny_config(epochs=2))
        assert len(out.history) == 2
        assert {"epoch", "train_loss", "val_MAE", "val_RMSE", "val_MAPE"} <= set(out.history[0])


# Frees 48 MB of 8 MB arrays three times, then counts the page faults of
# allocating them once more; a fresh process, so models built earlier in the
# test session have not changed the allocator settings. "default" only
# imports sdgl.model, "retain" sets the policy directly and "model" only
# builds a model.
_REFAULT_SCRIPT = """
import resource, sys
import numpy as np
from sdgl.model import ModelConfig, SDGLModel, retain_freed_heap
if sys.argv[1] == "retain":
    retain_freed_heap()
elif sys.argv[1] == "model":
    SDGLModel(ModelConfig(n_nodes=2))
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    arrays = [np.ones(1 << 20) for _ in range(6)]
    del arrays
before = faults()
arrays = [np.ones(1 << 20) for _ in range(6)]
print(faults() - before)
"""


def _refaults(mode: str) -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("GLIBC_TUNABLES", None)
    out = subprocess.run([sys.executable, "-c", _REFAULT_SCRIPT, mode], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_retain_freed_heap_keeps_pages_mapped():
    assert _refaults("retain") == 0
    assert _refaults("default") > 0  # so the check above would catch a no-op


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_building_a_model_retains_freed_heap():
    # trained, evaluated, predicted and checkpoint-loaded models all run
    # under the policy, because each of them was built by SDGLModel.__init__
    assert _refaults("model") == 0


class TestEvaluatePredict:
    def make_trained(self, seed=0):
        return train(tiny_dataset(seed=seed), tiny_config(epochs=1))

    def test_average_mae_is_mean_of_per_horizon(self):
        out = self.make_trained()
        rep = evaluate(out.model, out.scaler, out.splits.test)
        per = [m["MAE"] for m in rep["per_horizon"]]
        assert rep["average"]["MAE"] == pytest.approx(np.mean(per), abs=1e-12)

    def test_predict_single_and_batch_agree(self):
        out = self.make_trained(seed=1)
        x = np.random.default_rng(0).normal(size=(4, 19)) * 3 + 5
        single = predict(out.model, out.scaler, x)
        batch = predict(out.model, out.scaler, x[None])
        assert single.shape == (4, 3)
        np.testing.assert_array_equal(single, batch[0])

    def test_predict_rejects_node_mismatch(self):
        out = self.make_trained(seed=2)
        with pytest.raises(ad.ShapeError, match="nodes"):
            predict(out.model, out.scaler, np.zeros((5, 19)))
        # a wrong rank or length names the expected shape, not an IndexError or a node count
        for shape in [(19,), (1, 1, 4, 19), (4, 7)]:
            with pytest.raises(ad.ShapeError, match=r"\(4, 19\) or \(B, 4, 19\) window"):
                predict(out.model, out.scaler, np.zeros(shape))

    def test_evaluate_scores_predict(self):
        # more windows than one evaluate batch of 128
        out = self.make_trained(seed=4)
        windows = make_windows(tiny_dataset(t=300, seed=4).values, 19, 3)
        assert len(windows) > 128
        pred = predict(out.model, out.scaler, windows.inputs)
        truth = windows.targets
        rep = evaluate(out.model, out.scaler, windows)
        assert rep["average"] == metrics(pred, truth)
        assert rep["per_horizon"] == [metrics(pred[:, :, k:k + 1], truth[:, :, k:k + 1])
                                      for k in range(3)]

    def test_horizon_corr_is_per_node_over_windows(self):
        out = self.make_trained(seed=5)
        windows = make_windows(tiny_dataset(t=200, seed=5).values, 19, 3)
        pred = predict(out.model, out.scaler, windows.inputs)
        truth = windows.targets
        rep = evaluate(out.model, out.scaler, windows)
        for k in range(3):
            per_node = [np.corrcoef(pred[:, i, k], truth[:, i, k])[0, 1] for i in range(4)]
            assert rep["per_horizon"][k]["CORR"] == pytest.approx(np.mean(per_node), abs=1e-12)
        pooled = [np.corrcoef(pred[:, i].ravel(), truth[:, i].ravel())[0, 1] for i in range(4)]
        assert rep["average"]["CORR"] == pytest.approx(np.mean(pooled), abs=1e-12)

    def test_evaluate_memory_does_not_grow_with_window_copies(self):
        # evaluate normalizes one batch at a time: from T = 2048 to T = 8192
        # its peak grows by less than half of what the extra windows would
        # take as one normalized copy (4.7 MB for 10 nodes at h = 19)
        model = SDGLModel(ModelConfig(n_nodes=10))

        def peak(t):
            values = np.random.default_rng(0).normal(size=(t, 10))
            windows = make_windows(values, 19, 3)
            tracemalloc.start()
            try:
                evaluate(model, Scaler.fit(values), windows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra_window_bytes = (8192 - 2048) * 10 * 19 * 8
        assert peak(8192) - peak(2048) < extra_window_bytes / 2

    def test_predict_is_in_original_units(self):
        # a scaler with a huge offset must be inverted on the way out
        out = self.make_trained(seed=3)
        shifted = Scaler(out.scaler.mean + 1e6, out.scaler.std)
        x = np.random.default_rng(1).normal(size=(4, 19)) + 1e6
        y = predict(out.model, shifted, x)
        assert np.abs(y).max() > 1e5


@lru_cache(maxsize=None)
def fresh_checkpoint_bytes() -> bytes:
    """The checkpoint of a fresh ``tiny_config`` model, for the fuzz tests."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.sdgl"
        checkpoint.save(path, SDGLModel(tiny_config()), Scaler(np.zeros(4), np.ones(4)))
        return path.read_bytes()


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        out = train(tiny_dataset(seed=7), tiny_config(epochs=1, dropout_keep=0.8))
        p = tmp_path / "m.sdgl"
        checkpoint.save(p, out.model, out.scaler)
        back = checkpoint.load(p)
        assert back.model.step_count == out.model.step_count
        x = np.random.default_rng(2).normal(size=(3, 4, 19))
        np.testing.assert_array_equal(
            back.model.forward(x).prediction.data,
            out.model.forward(x).prediction.data,
        )
        np.testing.assert_array_equal(back.scaler.mean, out.scaler.mean)
        np.testing.assert_array_equal(back.scaler.std, out.scaler.std)

    def test_dropout_stream_resumes(self, tmp_path):
        out = train(tiny_dataset(seed=8), tiny_config(epochs=1, dropout_keep=0.8))
        p = tmp_path / "m.sdgl"
        checkpoint.save(p, out.model, out.scaler)
        back = checkpoint.load(p)
        x = np.random.default_rng(3).normal(size=(2, 4, 19))
        a = out.model.forward(x, training=True).prediction.data
        b = back.model.forward(x, training=True).prediction.data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("saver", ["checkpoint", "save_csv"])
    def test_failed_save_keeps_the_earlier_file(self, tmp_path, monkeypatch, saver):
        # the second save raises after its first write, as on a full disk
        def save(path, seed):
            if saver == "checkpoint":
                model = SDGLModel(tiny_config(seed=seed))
                checkpoint.save(path, model, Scaler(np.zeros(4), np.ones(4)))
            else:
                save_csv(path, np.random.default_rng(seed).normal(size=(6, 3)))

        class FullDisk:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        p = tmp_path / "out"
        save(p, seed=0)
        before = p.read_bytes()
        monkeypatch.setattr(sdgl_data, "open", lambda *a, **k: FullDisk(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            save(p, seed=1)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["out"]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.sdgl"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(checkpoint.CheckpointError, match="magic"):
            checkpoint.load(p)

    @staticmethod
    def save_fresh(path):
        """Save a fresh tiny model; returns the name of the last tensor record."""
        model = SDGLModel(tiny_config())
        checkpoint.save(path, model, Scaler(np.zeros(4), np.ones(4)))
        return sorted([*model.state_tensors(), "scaler.mean", "scaler.std"])[-1]

    @pytest.mark.parametrize("field", [
        "format version", "header length", "header", "name length of record 0", "payload",
        "header of length 2**63", "first dimension 2**62",
    ])
    def test_truncated_file_names_the_field(self, tmp_path, field):
        p = tmp_path / "m.sdgl"
        last = self.save_fresh(p)
        raw = p.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        first = sorted(self.split_records(raw)[1])[0]
        dim0 = 16 + hlen + 4 + len(first) + 4  # offset of the first record's first dimension
        # a size beyond the end of the file is reported as truncation, before any read
        bad, what = {
            "format version": (raw[:6], field),
            "header length": (raw[:12], field),
            "header": (raw[: 16 + hlen // 2], field),
            "name length of record 0": (raw[: 16 + hlen + 2], field),
            "payload": (raw[:-4], f"tensor {last!r}"),  # inside the last record's payload
            "header of length 2**63": (raw[:8] + (2**63).to_bytes(8, "little") + raw[16:],
                                       "header"),
            "first dimension 2**62": (raw[:dim0] + (2**62).to_bytes(8, "little")
                                      + raw[dim0 + 8 :], f"tensor {first!r}"),
        }[field]
        p.write_bytes(bad)
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(p)
        assert str(exc.value).startswith(f"{p}: truncated in {what}:")

    @pytest.mark.parametrize("extra", [1, 22])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        p = tmp_path / "m.sdgl"
        self.save_fresh(p)
        p.write_bytes(p.read_bytes() + b"\x07" * extra)
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(p)
        assert str(exc.value) == f"{p}: {extra} unexpected bytes after the last record"

    def test_non_finite_payload_rejected(self, tmp_path):
        p = tmp_path / "m.sdgl"
        last = self.save_fresh(p)
        raw = bytearray(p.read_bytes())
        raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # last value of the last record
        p.write_bytes(bytes(raw))
        with pytest.raises(checkpoint.CheckpointError, match=f"{last!r} has non-finite"):
            checkpoint.load(p)

    @staticmethod
    def split_records(raw):
        """(header dict, {name: record bytes}) of a saved checkpoint."""
        hlen = int.from_bytes(raw[8:16], "little")
        header, pos, records = json.loads(raw[16 : 16 + hlen]), 16 + hlen, {}
        while pos < len(raw):
            start = pos
            nlen = int.from_bytes(raw[pos : pos + 4], "little")
            name = raw[pos + 4 : pos + 4 + nlen].decode()
            pos += 4 + nlen
            rank = int.from_bytes(raw[pos : pos + 4], "little")
            dims = [int.from_bytes(raw[pos + 4 + 8 * i : pos + 12 + 8 * i], "little")
                    for i in range(rank)]
            pos += 4 + 8 * rank + 8 * int(np.prod(dims))
            records[name] = raw[start:pos]
        return header, records

    @staticmethod
    def join_records(raw, header, records):
        blob = json.dumps(header).encode()
        return raw[:8] + len(blob).to_bytes(8, "little") + blob + b"".join(records.values())

    @staticmethod
    def mutate_header(h, records, mutation):
        if mutation == "tensor_count renamed":
            h["tensor_cOunt"] = h.pop("tensor_count")
        elif mutation == "tensor_count missing":
            del h["tensor_count"]
        elif mutation == "tensor_count a string":
            h["tensor_count"] = str(h["tensor_count"])
        elif mutation == "config a list":
            h["config"] = [1, 2]
        elif mutation == "config missing":
            del h["config"]
        elif mutation == "config field unknown":
            h["config"]["foo"] = 1
        elif mutation == "config field mistyped":
            h["config"]["heads"] = "4"
        elif mutation == "config invalid":
            h["config"]["heads"] = 0
        elif mutation == "ablation a string":
            h["config"]["ablation"] = "no_gloss"
        elif mutation == "ablation an object":
            h["config"]["ablation"] = {"no_gloss": 1}
        elif mutation == "config too many layers":
            h["config"]["layers"] = 2000  # 2.0 ** 1999 overflows a float
        elif mutation == "step a string":
            h["step"] = "3"
        elif mutation == "step a float":
            h["step"] = 3.0
        elif mutation == "rng a string":
            h["rng"] = "philox"
        elif mutation == "rng empty":
            h["rng"] = {}
        elif mutation == "rng counter too short":
            h["rng"]["state"]["counter"]["__ndarray__"] = [0]
        elif mutation == "rng key too large":
            h["rng"]["state"]["key"]["__ndarray__"][0] = 2**64
        elif mutation == "header a list":
            return [h]
        elif mutation in ("scaler.mean missing", "scaler.std missing"):
            del records[mutation.split()[0]]
            h["tensor_count"] -= 1
        elif mutation == "rank 33":
            name, rec = next(iter(records.items()))
            at = 4 + len(name)  # after the name length and the name
            records[name] = rec[:at] + (33).to_bytes(4, "little") + rec[at + 4 :]
        elif mutation == "unexpected record":
            name = b"zz.extra"
            records["zz.extra"] = (len(name).to_bytes(4, "little") + name
                                   + (1).to_bytes(4, "little") + (2).to_bytes(8, "little")
                                   + np.zeros(2).astype("<f8").tobytes())
            h["tensor_count"] += 1
        return h

    HEADER_MUTATIONS = {
        "tensor_count renamed": "'tensor_count'",
        "tensor_count missing": "'tensor_count'",
        "tensor_count a string": "'tensor_count'",
        "config a list": "'config'",
        "config missing": "'config'",
        "config field unknown": "'config'.*foo",
        "config field mistyped": "'config'",
        "config invalid": "'config'.*heads",
        "config too many layers": "'config': window: ",
        "ablation a string": "'config': ablation: need a list",
        "ablation an object": "'config': ablation: need a list",
        "step a string": "'step'",
        "step a float": "'step'",
        "rng a string": "'rng'",
        "rng empty": "'rng'",
        "rng counter too short": "'rng'",
        "rng key too large": "'rng'",
        "header a list": "header is a JSON list",
        "scaler.mean missing": "missing tensor record 'scaler.mean'",
        "scaler.std missing": "missing tensor record 'scaler.std'",
        "rank 33": "tensor 'dynamic.fusion.b_in' has rank 33",
        "unexpected record": "unexpected tensor record 'zz.extra'",
    }

    @pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
    def test_header_schema_errors_name_the_field(self, tmp_path, mutation):
        p = tmp_path / "m.sdgl"
        self.save_fresh(p)
        raw = p.read_bytes()
        header, records = self.split_records(raw)
        header = self.mutate_header(header, records, mutation)
        p.write_bytes(self.join_records(raw, header, records))
        with pytest.raises(checkpoint.CheckpointError,
                           match=f"^{re.escape(str(p))}: .*{self.HEADER_MUTATIONS[mutation]}"):
            checkpoint.load(p)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_prefix_is_rejected(self, tmp_path, data):
        raw = fresh_checkpoint_bytes()
        p = tmp_path / "m.sdgl"
        p.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load(p)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_changed_byte_loads_or_is_checkpoint_error(self, tmp_path, data):
        raw = fresh_checkpoint_bytes()
        pos = data.draw(st.integers(0, len(raw) - 1))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
        p = tmp_path / "m.sdgl"
        p.write_bytes(raw[:pos] + bytes([byte]) + raw[pos + 1 :])
        try:
            checkpoint.load(p)
        except checkpoint.CheckpointError:
            pass

    @pytest.mark.parametrize("overrides", [
        {}, dict(layers=1), dict(layers=3, window=43), dict(depth=3),
        dict(heads=3, head_dim=5), dict(channels=12, horizon=5), dict(ablation=("no_dyadj",)),
    ])
    def test_state_shapes_match_the_model(self, overrides):
        cfg = tiny_config(**overrides)
        want = {name: t.shape for name, t in SDGLModel(cfg).state_tensors().items()}
        assert dict(state_shapes(cfg)) == want

    def test_config_beyond_the_records_fails_before_building(self, tmp_path):
        # a header claiming 3000 nodes would ask for two 3000 x 3000 weights
        p = tmp_path / "m.sdgl"
        self.save_fresh(p)
        raw = p.read_bytes()
        header, records = self.split_records(raw)
        header["config"]["n_nodes"] = 3000
        p.write_bytes(self.join_records(raw, header, records))
        tracemalloc.start()
        try:
            with pytest.raises(checkpoint.CheckpointError) as exc:
                checkpoint.load(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (f"{p}: tensor 'embeddings.m_static' has shape (4, 8), "
                                  "expected (3000, 8)")
        assert peak < 10 * len(raw)

    def test_unsupported_version(self, tmp_path):
        out = train(tiny_dataset(seed=9), tiny_config(epochs=0))
        p = tmp_path / "m.sdgl"
        checkpoint.save(p, out.model, out.scaler)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(checkpoint.CheckpointError, match="version"):
            checkpoint.load(p)
