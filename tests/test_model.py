import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdgl import autodiff as ad
from sdgl import checkpoint
from sdgl.autodiff import Tensor
from sdgl.data import (
    PlantedGraphSpec,
    Scaler,
    SeriesDataset,
    make_windows,
    metrics,
    synth_generate,
)
from sdgl.model import (
    ABLATION_FLAGS,
    DivergenceError,
    ModelConfig,
    SDGLModel,
    SGD,
    evaluate,
    hybrid_loss,
    predict,
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
        ],
    )
    def test_rejections_name_the_field(self, overrides, field):
        cfg = tiny_config(**overrides)
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

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
        SGD({"p": p}, lr=1.0, clip_norm=5.0).step()
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

    def test_divergence_reports_last_finite_loss(self):
        ds = tiny_dataset(seed=5)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="last finite loss"):
            train(ds, tiny_config(learning_rate=1e160, epochs=5))

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


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        out = train(tiny_dataset(seed=7), tiny_config(epochs=1, dropout_keep=0.8))
        p = tmp_path / "m.sdgl"
        checkpoint.save(p, out.model, out.scaler)
        back = checkpoint.load(p)
        assert back.step == out.model.step_count
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
    ])
    def test_truncated_file_names_the_field(self, tmp_path, field):
        p = tmp_path / "m.sdgl"
        last = self.save_fresh(p)
        raw = p.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        cut = {
            "format version": 6,
            "header length": 12,
            "header": 16 + hlen // 2,
            "name length of record 0": 16 + hlen + 2,
            "payload": len(raw) - 4,  # inside the last record's payload
        }[field]
        p.write_bytes(raw[:cut])
        what = f"tensor {last!r}" if field == "payload" else field
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(p)
        assert str(exc.value).startswith(f"{p}: truncated in {what}:")

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
        elif mutation == "step a string":
            h["step"] = "3"
        elif mutation == "step a float":
            h["step"] = 3.0
        elif mutation == "rng a string":
            h["rng"] = "philox"
        elif mutation == "rng empty":
            h["rng"] = {}
        elif mutation == "header a list":
            return [h]
        elif mutation in ("scaler.mean missing", "scaler.std missing"):
            del records[mutation.split()[0]]
            h["tensor_count"] -= 1
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
        "step a string": "'step'",
        "step a float": "'step'",
        "rng a string": "'rng'",
        "rng empty": "'rng'",
        "header a list": "header is a JSON list",
        "scaler.mean missing": "missing tensor record 'scaler.mean'",
        "scaler.std missing": "missing tensor record 'scaler.std'",
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

    def test_unsupported_version(self, tmp_path):
        out = train(tiny_dataset(seed=9), tiny_config(epochs=0))
        p = tmp_path / "m.sdgl"
        checkpoint.save(p, out.model, out.scaler)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(checkpoint.CheckpointError, match="version"):
            checkpoint.load(p)
