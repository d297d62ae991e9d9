import ast
import inspect
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
import weakref
import zlib
from dataclasses import FrozenInstanceError, asdict, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdgl import autodiff as ad
from sdgl import checkpoint, graph_conv, temporal
from sdgl.autodiff import Tape, Tensor
from sdgl.data import (
    PlantedGraphSpec,
    Scaler,
    SeriesDataset,
    WindowBatch,
    make_windows,
    metrics,
    save_csv,
    synth_generate,
)
from sdgl import data as sdgl_data
from sdgl import model as sdgl_model
from sdgl import rng as rng_module
from sdgl.graph_conv import MixHopConv
from sdgl.model import (
    ABLATION_FLAGS,
    DivergenceError,
    ModelConfig,
    SDGLModel,
    SGD,
    SettingTypeError,
    evaluate,
    hybrid_loss,
    predict,
    state_shapes,
    train,
)
from sdgl.rng import RngState
from sdgl.static_graph import ConfigError, build_static_graph, graph_regularization_loss
from sdgl.temporal import GatedTemporalLayer, layer_dilation
from test_autodiff import spy_on_thread_starts
from test_reference_outputs import BASE as REFERENCE_BASE, CONFIGS as REFERENCE_CONFIGS


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
        with pytest.raises(ConfigError, match=field):
            tiny_config(**overrides)

    def test_window_bound_follows_floored_dilations(self, monkeypatch):
        # growth 1.5 floors the dilations to 1, 1, 2, so three layers shorten
        # time by 6 * (1 + 1 + 2) = 24: window 25 leaves exactly one step. The
        # layers compute only the steps the forecast reads: 19 of the first
        # layer's 19, every second one of the second layer's 13, and the last
        # layer's last step.
        model = SDGLModel(tiny_config(growth=1.5, layers=3, window=25))
        lengths = []
        call = GatedTemporalLayer.__call__

        def recording(layer, *args):
            out = call(layer, *args)
            lengths.append(out.shape[2])
            return out

        monkeypatch.setattr(GatedTemporalLayer, "__call__", recording)
        out = model.forward(np.random.default_rng(0).normal(size=(2, 4, 25)))
        assert lengths == [19, 7, 1]
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
        started = time.perf_counter()
        with pytest.raises(ConfigError, match="^window: "):
            tiny_config(**overrides)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("field", ["learning_rate", "growth"])
    @pytest.mark.parametrize("digits", [401, 5001])
    def test_number_past_float_range_is_a_type_error(self, field, digits):
        # math.isfinite overflows on it, and str() of a 5001-digit int raises
        # ValueError, so the message names the field and not the value
        with pytest.raises(SettingTypeError, match=f"^{field}: need a finite number, "
                                                   "got one past float range$"):
            tiny_config(**{field: 10 ** (digits - 1)})

    @pytest.mark.parametrize("overrides,field", [
        (dict(epochs=-10**5000), "epochs"),
        (dict(seed=-10**5000), "seed"),
        (dict(layers=10**5000), "window"),
        (dict(channels=10**5000 + 2), "channels"),
        (dict(heads=10**5000), "heads"),
    ], ids=["epochs", "seed", "layers", "channels", "heads"])
    def test_integer_past_str_limit_names_the_field(self, overrides, field):
        # str() of a 5001-digit int raises ValueError, so the message names the
        # field and does not print the value
        with pytest.raises(ConfigError, match=f"^{field}: .*\\(too many digits to print\\)"):
            tiny_config(**overrides)

    def test_head_dim_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            tiny_config(embed_dim=9, heads=2).validate()
        tiny_config(embed_dim=9, heads=2, head_dim=3).validate()

    def test_dict_round_trip(self):
        cfg = tiny_config(ablation=("no_gloss",))
        assert ModelConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_fields_are_frozen(self):
        cfg = tiny_config()
        with pytest.raises(FrozenInstanceError):
            cfg.window = 12
        assert replace(cfg, window=25).window == 25
        with pytest.raises(ConfigError, match="window"):
            replace(cfg, window=12)

    def test_ablation_list_is_stored_as_a_tuple(self):
        assert ModelConfig(n_nodes=4, ablation=["no_gloss"]).ablation == ("no_gloss",)


class TestForward:
    def test_output_shapes_and_graphs(self):
        model = SDGLModel(tiny_config())
        x = np.random.default_rng(0).normal(size=(5, 4, 19))
        out = model.forward(x)
        assert out.prediction.shape == (5, 4, 3)
        a = out.dynamic_graphs.values.data
        assert a.shape == (5, 4, 4)
        assert np.all(a > 0) and np.allclose(a.sum(axis=-1), 1.0, atol=1e-9)
        assert out.reg_loss.item() >= 0

    def test_wrong_input_shape(self):
        model = SDGLModel(tiny_config())
        with pytest.raises(ad.ShapeError, match="forward"):
            model.forward(np.zeros((2, 4, 7)))
        # a wrong rank names the expected shape, not an unpacking error
        for shape in [(4, 19), (1, 1, 4, 19)]:
            with pytest.raises(ad.ShapeError, match=r"forward: expected \(B, 4, 19\) input"):
                model.forward(np.zeros(shape))

    def test_empty_batch(self):
        # B = 0 would divide by zero in the graph regularizer's batch mean
        model = SDGLModel(tiny_config())
        scaler = Scaler(np.zeros(4), np.ones(4))
        for run in (lambda x: model.forward(x, training=True), model.forward,
                    lambda x: predict(model, scaler, x)):
            with pytest.raises(ad.ShapeError, match=r"forward: expected \(B, 4, 19\) input "
                                                    r"with B >= 1, got \(0, 4, 19\)"):
                run(np.zeros((0, 4, 19)))

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


PLAN_GRID = [(growth, layers) for growth in (1.5, 2.0, 2.5, 3.0) for layers in (1, 2, 3, 4)]


def plan_windows(growth, layers):
    """The windows from the receptive field of the stack to nine steps past it."""
    bound = 1 + 6 * sum(layer_dilation(growth, j) for j in range(1, layers + 1))
    return range(bound, bound + 10)


def traced_steps(window, dilations):
    """Per feature map of the full-step model, the steps the prediction reads.

    Entry 0 is the stack's input, entry j layer j's output; steps are indices into
    the full map, which layer j shortens by 6 * d_j. The head reads the last
    step of every layer output. Layer j's output at step t reads its input at
    t + d_j * m, m = 0 .. 6 (the 7-tap packed kernel), and the hidden map at t
    reads the layer output at t (the graph branch acts on each step alone) and
    the input at t + 6 * d_j (the residual). The last hidden map is never read.
    """
    lengths = [window]
    for d in dilations:
        lengths.append(lengths[-1] - 6 * d)
    traced, hidden_read = [None] * (len(dilations) + 1), set()
    for j in range(len(dilations), 0, -1):
        d = dilations[j - 1]
        out_read = hidden_read | {lengths[j] - 1}
        traced[j] = out_read
        hidden_read = {t + d * m for t in out_read for m in range(7)} \
            | {t + 6 * d for t in hidden_read}
    traced[0] = hidden_read
    return lengths, traced


def full_step_forward(model, x, training, outputs):
    """``SDGLModel.forward`` composed with every layer on every step of its input.

    Appends each layer's output to ``outputs``; returns (prediction, reg_loss).
    """
    cfg = model.config
    b, n, h = x.shape
    static = build_static_graph(model.embeddings.m_static).values
    reg = graph_regularization_loss(x, static, cfg.gamma)
    dynamic = None
    if "no_dyadj" not in cfg.ablation:
        dynamic = model.dynamic(x, model.embeddings, model.dropout_rng, training)
    hidden = ad.channel_map(ad.reshape(ad.transpose(x), (b, 1, h, n)), model.start_w,
                            model.start_b)
    skip_total = None
    for j, layer in enumerate(model.tcn_layers):
        temporal = layer(hidden)
        outputs.append(temporal)
        t_out = temporal.shape[2]
        skip = ad.channel_map(ad.narrow(temporal, 2, t_out - 1, 1), model.skip_w[j])
        skip_total = skip if skip_total is None else ad.add(skip_total, skip)
        fused = model.gcn_static[j](temporal, static)
        if dynamic is not None:
            fused = ad.add(fused, model.gcn_dynamic[j](temporal, dynamic.values))
        res_in = ad.narrow(hidden, 2, hidden.shape[2] - t_out, t_out)
        hidden = ad.add(fused, ad.channel_map(res_in, model.residual_w[j]))
    h1 = ad.relu(ad.channel_map(skip_total, model.out_w1, model.out_b1))
    y = ad.channel_map(h1, model.out_w2, model.out_b2)
    return ad.transpose(ad.reshape(y, (b, cfg.horizon, n))), reg


def run_step_model(cfg, training, full):
    """Prediction, loss, parameter gradients and layer outputs of one batch on a
    fresh model, pruned (``SDGLModel.forward``) or full-step."""
    model = SDGLModel(cfg)
    params = model.parameters()
    rng = np.random.default_rng(cfg.window)
    x = Tensor(rng.standard_normal((3, cfg.n_nodes, cfg.window)))
    y = Tensor(rng.standard_normal((3, cfg.n_nodes, cfg.horizon)))
    outputs = []
    call = GatedTemporalLayer.__call__

    def recording(layer, *args):
        outputs.append(call(layer, *args))
        return outputs[-1]

    tape = Tape()
    with tape:
        if full:
            pred, reg = full_step_forward(model, x, training, outputs)
        else:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(GatedTemporalLayer, "__call__", recording)
                res = model.forward(x, training=training)
            pred, reg = res.prediction, res.reg_loss
        loss = hybrid_loss(pred, y, reg, cfg.lambda_reg)
    tape.backward(loss)
    grads = {k: p.grad for k, p in params.items()}
    return model, pred.data, loss.item(), grads, [o.data for o in outputs]


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# (growth, layers, map) whose traced steps are not evenly spaced: there the
# plan's run also holds a few steps nothing reads (at growth 2.5 and 4
# layers, 14 of the 139 steps layer 1 keeps at window 145)
UNEVEN = {(1.5, 4, 2), (2.5, 4, 1), (2.5, 4, 2)}


class TestStepPlan:
    """Each layer computes only the steps of its output that the forecast reads."""

    @pytest.mark.parametrize("growth, layers", PLAN_GRID)
    def test_plan_is_the_smallest_run_holding_the_traced_steps(self, growth, layers):
        dilations = [layer_dilation(growth, j) for j in range(1, layers + 1)]
        for window in plan_windows(growth, layers):
            model = SDGLModel(tiny_config(growth=growth, layers=layers, window=window))
            lengths, traced = traced_steps(window, dilations)
            for j, ((stride, count), read) in enumerate(zip(model.step_plan, traced)):
                last = lengths[j] - 1
                assert max(read) == last
                # a run of steps ending at the map's last step: the smallest one
                # that holds them has the gcd of their distances as its stride
                want = math.gcd(*(last - t for t in read)) or dilations[-1]
                smallest = set(range(min(read), last + 1, want))
                assert (stride, count) == (want, len(smallest)), (window, j)
                assert read <= smallest
                assert (read == smallest) == ((growth, layers, j) not in UNEVEN), (window, j)

    def test_plans_of_the_reference_configs(self):
        # window 19 at growth 2: 19, every second of layer 1's 13, 1 step
        assert SDGLModel(tiny_config()).step_plan == [(1, 19), (2, 7), (2, 1)]
        # window 40 at growth 3: the input keeps 25 steps, layer 1 every
        # third of its 34, layer 2 one of its 16
        model = SDGLModel(tiny_config(growth=3.0, window=40))
        assert model.step_plan == [(1, 25), (3, 7), (3, 1)]

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("growth, layers", PLAN_GRID)
    def test_pruned_forward_matches_the_full_step_model(self, growth, layers, mode):
        for window in plan_windows(growth, layers):
            self.check(tiny_config(growth=growth, layers=layers, window=window,
                                   dropout_keep=0.8), mode == "train")

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_pruned_forward_matches_the_full_step_model_on_reference_configs(self, name, mode):
        self.check(ModelConfig(**{**REFERENCE_BASE, **REFERENCE_CONFIGS[name]}),
                   mode == "train")

    @staticmethod
    def check(cfg, training):
        model, pred, loss, grads, outputs = run_step_model(cfg, training, full=False)
        _, want_pred, want_loss, want_grads, want_outputs = run_step_model(cfg, training, True)
        close(pred, want_pred)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert (grads[name] is None) == (want is None), name
            if want is not None:
                close(grads[name], want)
        # the layer outputs are the full ones at the planned steps
        for (stride, count), got, full in zip(model.step_plan[1:], outputs, want_outputs):
            last = full.shape[2] - 1
            close(got, full[:, :, last - stride * (count - 1) :: stride])
        # the last layer's output reaches nothing but its skip
        dead = [f"gcn_static{cfg.layers - 1}.", f"gcn_dynamic{cfg.layers - 1}.",
                f"residual{cfg.layers - 1}."]
        for name in grads:
            if name.startswith(tuple(dead)):
                for g in (grads[name], want_grads[name]):
                    assert g is None or not g.any(), name


# one layer (the folded first layer is also the last), dilations 1, 1, 2, a window
# past the receptive field, no dynamic branch, and the default stack
FOLD_CONFIGS = {
    "layers=1": dict(layers=1),
    "layers=3 growth=1.5": dict(layers=3, growth=1.5, window=30),
    "window=24": dict(window=24),
    "no_dyadj": dict(ablation=("no_dyadj",)),
    "default": {},
}


class TestStartMapFold:
    """The start map is folded into the first gated layer and its residual."""

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("name", sorted(FOLD_CONFIGS))
    def test_first_layer_reads_the_raw_series(self, monkeypatch, name, mode):
        cfg = tiny_config(dropout_keep=0.8, **FOLD_CONFIGS[name])
        conv_inputs, made = [], set()

        def spy(fn, inputs):
            def wrapper(*args, **kwargs):
                if inputs is not None:
                    inputs.append(args[0].shape)
                out = fn(*args, **kwargs)
                made.add(out.shape)
                return out
            return wrapper

        for op in ad.__all__:
            if op not in ("Tensor", "Tape", "ShapeError", "TapeError", "grad_check"):
                monkeypatch.setattr(ad, op, spy(getattr(ad, op),
                                                conv_inputs if op == "conv1d_dilated" else None))
        accum = ad._accum

        def accum_spy(slot, g, fresh=False):
            made.add(g.shape)
            accum(slot, g, fresh)

        # every gradient the tape computes, the narrows' buffers too, goes through _accum
        monkeypatch.setattr(ad, "_accum", accum_spy)
        model = run_step_model(cfg, mode == "train", full=False)[0]
        assert conv_inputs[0][1] == 1
        # run_step_model's batch holds 3 windows
        start_map = (3, cfg.channels, model.step_plan[0][1], cfg.n_nodes)
        assert start_map not in made
        monkeypatch.undo()
        # full_step_forward forms the start map and runs every layer unfolded
        TestStepPlan.check(cfg, mode == "train")


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
        monkeypatch.setattr(MixHopConv, "mix_hop", spy("mix-hop", MixHopConv.mix_hop))
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


def zeros_running_backward(tape, loss):
    """``Tape.backward`` as it was before skipped nodes: a node whose output got
    no gradient runs its rule on zeros of the output's shape."""
    tape._consumed = True
    ad._GENERATION += 1
    loss.grad = np.ones_like(loss.data)
    while tape._nodes:
        slot, _, rule = tape._nodes.pop()
        rule(np.zeros(slot.shape) if slot.grad is None else slot.grad)


def one_step(model, training, backward=Tape.backward):
    """Prediction and parameter gradients of one fixed batch, ``backward`` run
    on the tape and the loss."""
    cfg = model.config
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, cfg.n_nodes, cfg.window)))
    y = Tensor(rng.standard_normal((3, cfg.n_nodes, cfg.horizon)))
    tape = Tape()
    with tape:
        res = model.forward(x, training=training)
        loss = hybrid_loss(res.prediction, y, res.reg_loss, cfg.lambda_reg)
    backward(tape, loss)
    return res.prediction.data, {k: p.grad for k, p in model.parameters().items()}


def tag_rules(monkeypatch, model) -> tuple[list, list]:
    """Spy on the rules of ``model``'s forward pass. Returns the tags of the
    nodes recorded and of the rules run: a node recorded by a graph branch or
    by a residual map of layer 1 or later is tagged with its parameter prefix
    (``gcn_static1``, ``residual1``), any other node with None."""
    tags = {id(conv): f"{branch}{j}" for branch in ("gcn_static", "gcn_dynamic")
            for j, conv in enumerate(getattr(model, branch))}
    tags.update({id(w): f"residual{j}" for j, w in enumerate(model.residual_w)})
    current, recorded, ran = [None], [], []

    def tagged(fn, owner_of):
        def wrapper(*args):
            current[0] = tags.get(id(owner_of(*args)))
            try:
                return fn(*args)
            finally:
                current[0] = None
        return wrapper

    record = ad._record

    def spy(out, rule, *input_slots):
        tag = current[0]
        recorded.append(tag)

        def spied(g):
            ran.append(tag)
            rule(g)

        record(out, spied, *input_slots)

    monkeypatch.setattr(ad, "_record", spy)
    monkeypatch.setattr(MixHopConv, "mix_hop", tagged(MixHopConv.mix_hop, lambda s, x, p: s))
    # the first layer's residual weight is folded with the start map, so its map
    # gets no tag; a later layer's map reads residual_w[j] itself
    monkeypatch.setattr(ad, "channel_map", tagged(ad.channel_map, lambda x, w, *b: w))
    return recorded, ran


class TestSkippedBranches:
    """Backward runs no rule of the last layer's graph branches and residual,
    and each learned graph reaches mix-hop as built."""

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_last_layer_branches_run_no_rule(self, monkeypatch, mode):
        cfg = tiny_config(dropout_keep=0.8)
        last = cfg.layers - 1
        dead = {f"gcn_static{last}", f"gcn_dynamic{last}", f"residual{last}"}
        model = SDGLModel(cfg)
        recorded, ran = tag_rules(monkeypatch, model)
        _, grads = one_step(model, mode == "train")
        monkeypatch.undo()
        # the spy saw every branch recorded, and the live ones run
        assert dead | {"gcn_static0", "gcn_dynamic0"} <= set(recorded)
        assert {"gcn_static0", "gcn_dynamic0"} <= set(ran)
        assert not dead & set(ran)
        params = model.parameters()
        for name, g in grads.items():
            if name.startswith(tuple(d + "." for d in dead)):
                assert g is not None, name
                np.testing.assert_array_equal(g, np.zeros(params[name].shape))

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradients_are_those_of_a_zeros_running_backward(self, mode, layers):
        cfg = tiny_config(dropout_keep=0.8, layers=layers)
        pred, grads = one_step(SDGLModel(cfg), mode == "train")
        want_pred, want = one_step(SDGLModel(cfg), mode == "train", zeros_running_backward)
        np.testing.assert_array_equal(pred, want_pred)
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert (g is None) == (want[name] is None), name
            np.testing.assert_array_equal(g, want[name], err_msg=name)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_one_layer_dynamic_gradients_are_present_zeros(self, mode):
        # at one layer no graph reaches the prediction
        _, grads = one_step(SDGLModel(tiny_config(layers=1)), mode == "train")
        dynamic = {k: g for k, g in grads.items() if k.startswith("dynamic.")}
        assert dynamic
        for name, g in dynamic.items():
            assert g is not None and not g.any(), name

    @staticmethod
    def graphs_received(monkeypatch, layers, taped):
        """Run a training-mode forward pass, under a ``Tape`` if ``taped``, and
        check that each conv that runs gets the very softmax output its graph's
        builder returned. Returns the convs that got a graph."""
        model = SDGLModel(tiny_config(layers=layers, growth=1.5, window=30))
        built, received, normalized = [], [], []
        build, mix_hop = sdgl_model.build_static_graph, MixHopConv.mix_hop
        transition_matrix = graph_conv.transition_matrix

        def building(m_s):
            graph = build(m_s)
            built.append(graph.values)
            return graph

        def receiving(self, x, p):
            received.append((self, p))
            return mix_hop(self, x, p)

        def normalizing(a):
            normalized.append(a)
            return transition_matrix(a)

        monkeypatch.setattr(sdgl_model, "build_static_graph", building)
        monkeypatch.setattr(MixHopConv, "mix_hop", receiving)
        monkeypatch.setattr(graph_conv, "transition_matrix", normalizing)
        x = Tensor(np.random.default_rng(2).standard_normal((3, 4, 30)))
        if taped:
            with Tape():
                res = model.forward(x, training=True)
        else:
            res = model.forward(x, training=True)
        assert len(built) == 1 and not normalized
        want = {id(conv): built[0] for conv in model.gcn_static}
        want.update({id(conv): res.dynamic_graphs.values for conv in model.gcn_dynamic})
        for conv, p in received:
            assert p is want[id(conv)]
        return model, [conv for conv, _ in received]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_each_graph_reaches_mix_hop_as_built(self, monkeypatch, layers):
        # under a tape every layer's branches run, the last one's too
        model, reached = self.graphs_received(monkeypatch, layers, taped=True)
        assert sorted(map(id, reached)) == sorted(map(id, model.gcn_static + model.gcn_dynamic))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_untaped_forward_runs_no_last_layer_branch(self, monkeypatch, layers):
        # without a tape only the layers before the last reach mix-hop, still
        # with the graphs as built; at one layer no conv runs at all
        model, reached = self.graphs_received(monkeypatch, layers, taped=False)
        live = model.gcn_static[:-1] + model.gcn_dynamic[:-1]
        assert sorted(map(id, reached)) == sorted(map(id, live))

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("overrides", [
        dict(layers=3, growth=1.5, window=30), dict(layers=1), dict(ablation=("no_dyadj",)),
        dict(ablation=("no_ifm",)), dict(ablation=("ifm_plus",)),
    ], ids=["3-layers", "1-layer", "no_dyadj", "no_ifm", "ifm_plus"])
    def test_shared_matrix_matches_per_layer_normalization(self, monkeypatch, overrides, mode):
        cfg = tiny_config(dropout_keep=0.8, **overrides)
        pred, grads = one_step(SDGLModel(cfg), mode == "train")
        # each layer's branch normalizes the graph itself
        mix_hop, calls = MixHopConv.mix_hop, []

        def per_layer(self, x, adj):
            calls.append(adj)
            return mix_hop(self, x, graph_conv.transition_matrix(adj))

        monkeypatch.setattr(MixHopConv, "mix_hop", per_layer)
        want_pred, want = one_step(SDGLModel(cfg), mode == "train")
        branches = 1 if "no_dyadj" in cfg.ablation else 2
        assert len(calls) == branches * cfg.layers
        close(pred, want_pred)
        for name, g in grads.items():
            assert (g is None) == (want[name] is None), name
            if g is not None:
                close(g, want[name])


UNTAPED_CONFIGS = {**REFERENCE_CONFIGS, "1-layer": dict(window=19, layers=1),
                   "no_gloss": dict(window=19, layers=2, ablation=("no_gloss",))}


class TestUntapedForward:
    """Without a tape ``forward`` skips the last layer's graph branches and
    residual, which nothing it returns reads: its outputs are the taped
    pass's bit for bit."""

    @staticmethod
    def config(name):
        return ModelConfig(**{**REFERENCE_BASE, **UNTAPED_CONFIGS[name]})

    @staticmethod
    def taped(model, x, training):
        with Tape():
            return model.forward(Tensor(x), training=training)

    @staticmethod
    def assert_same(got, want):
        np.testing.assert_array_equal(got.prediction.data, want.prediction.data)
        np.testing.assert_array_equal(got.reg_loss.data, want.reg_loss.data)
        assert (got.dynamic_graphs is None) == (want.dynamic_graphs is None)
        if got.dynamic_graphs is not None:
            np.testing.assert_array_equal(got.dynamic_graphs.values.data,
                                          want.dynamic_graphs.values.data)

    @pytest.mark.parametrize("name", sorted(UNTAPED_CONFIGS))
    def test_eval_forward_and_predict_match_the_taped_pass(self, name):
        cfg = self.config(name)
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(6, cfg.n_nodes, cfg.window)) * 3 + 5
        scaler = Scaler(rng.normal(size=cfg.n_nodes), rng.uniform(0.5, 2.0, size=cfg.n_nodes))
        x = scaler.transform_windows(raw)
        model = SDGLModel(cfg)
        want = self.taped(model, x, training=False)
        self.assert_same(model.forward(Tensor(x)), want)
        np.testing.assert_array_equal(predict(model, scaler, raw),
                                      scaler.inverse_windows(want.prediction.data))

    @pytest.mark.parametrize("name", sorted(UNTAPED_CONFIGS))
    def test_training_forward_matches_the_taped_pass(self, name):
        # two fresh models of one seed draw the same dropout masks, and the
        # skipped ops draw none: both streams end at the same position
        cfg = self.config(name)
        x = np.random.default_rng(8).standard_normal((6, cfg.n_nodes, cfg.window))
        taped_model, model = SDGLModel(cfg), SDGLModel(cfg)
        want = self.taped(taped_model, x, training=True)
        self.assert_same(model.forward(Tensor(x), training=True), want)
        assert model.dropout_rng.random() == taped_model.dropout_rng.random()

    @pytest.mark.parametrize("name", sorted(UNTAPED_CONFIGS))
    def test_last_layer_mix_hops_run_only_under_a_tape(self, monkeypatch, name):
        cfg = self.config(name)
        model = SDGLModel(cfg)
        mix_hop, calls = MixHopConv.mix_hop, []

        def counting(self, x, p):
            calls.append(self)
            return mix_hop(self, x, p)

        monkeypatch.setattr(MixHopConv, "mix_hop", counting)
        x = np.random.default_rng(9).standard_normal((2, cfg.n_nodes, cfg.window))
        branches = 1 if "no_dyadj" in cfg.ablation else 2
        model.forward(Tensor(x))
        assert len(calls) == branches * (cfg.layers - 1)
        calls.clear()
        self.taped(model, x, training=False)
        assert len(calls) == branches * cfg.layers


SPAN_CONFIGS = {
    "default": dict(), "1-layer": dict(layers=1),
    "3-layers-growth1.5": dict(layers=3, growth=1.5, window=30), "window24": dict(window=24),
    "growth3": dict(growth=3.0, window=40), "depth1": dict(depth=1), "depth3": dict(depth=3),
    "depth3-3-layers": dict(depth=3, layers=3, growth=1.5, window=30),
    **{flag: dict(ablation=(flag,)) for flag in ("no_dyadj", "no_ifm", "ifm_plus")},
}


class TestSharedSpan:
    """Without a tape, consecutive windows of one series run the first layer's
    convolution, static mix-hop and residual once over the span they slide
    over; any other batch runs per window, bit for bit as the taped pass."""

    @staticmethod
    def config(name):
        return ModelConfig(**{**REFERENCE_BASE, "window": 19, **SPAN_CONFIGS[name]})

    @staticmethod
    def windows(cfg, b):
        series = np.random.default_rng(11).normal(size=(b + cfg.window + cfg.horizon, cfg.n_nodes))
        return np.ascontiguousarray(make_windows(series, cfg.window, cfg.horizon).inputs[:b])

    @staticmethod
    def spans(monkeypatch):
        """The list each forward pass that takes the span path appends to."""
        shared, calls = sdgl_model._windows, []

        def counting(span, b, count, step):
            calls.append(b)
            return shared(span, b, count, step)

        monkeypatch.setattr(sdgl_model, "_windows", counting)
        return calls

    @staticmethod
    def taped(model, x, training=False):
        with Tape():
            return model.forward(Tensor(x), training=training)

    # (C, b, count, step, N, span steps past the last window's first)
    @pytest.mark.parametrize("c, b, count, step, n, extra", [
        (1, 1, 1, 1, 1, 0), (16, 128, 7, 2, 10, 0), (16, 5, 19, 1, 4, 3),
        (3, 4, 3, 3, 2, 0), (2, 6, 1, 2, 5, 2), (4, 3, 4, 3, 3, 5),
    ])
    def test_windows_match_an_index_oracle(self, c, b, count, step, n, extra):
        t = b + step * (count - 1) + extra
        span = np.arange(c * t * n, dtype=np.float64).reshape(1, c, t, n)
        got = sdgl_model._windows(Tensor(span), b, count, step).data
        # window i's step j is the span's step i + step*j
        want = np.stack([span[0][:, i + step * np.arange(count)] for i in range(b)])
        np.testing.assert_array_equal(got, want)
        assert np.shares_memory(got, span)
        with pytest.raises(ValueError):
            got[...] = 0.0

    # (b, count, step) on a span of 10 steps: 4 windows of 3 steps, 3 apart, end at its last
    @pytest.mark.parametrize("b, count, step", [
        (0, 3, 3), (-1, 3, 3), (4, 0, 3), (4, -1, 3), (4, 3, 0), (4, 3, -2),
        (5, 3, 3), (4, 4, 3), (4, 3, 4),
    ])
    def test_windows_past_the_span_or_not_positive_raise(self, b, count, step):
        span = Tensor(np.zeros((1, 2, 10, 3)))
        sdgl_model._windows(span, 4, 3, 3)
        with pytest.raises(ValueError, match="_windows"):
            sdgl_model._windows(span, b, count, step)

    @pytest.mark.parametrize("b", [1, 2, 3, 128, 129, 300])
    @pytest.mark.parametrize("name", sorted(SPAN_CONFIGS))
    def test_span_matches_the_per_window_pass(self, monkeypatch, name, b):
        cfg = self.config(name)
        model, x = SDGLModel(cfg), self.windows(cfg, b)
        want = self.taped(model, x)
        calls = self.spans(monkeypatch)
        got = model.forward(Tensor(x))
        step, t_out = model.step_plan[1]
        # the span path runs only where it computes fewer first-layer steps
        assert bool(calls) == (b + step * (t_out - 1) < b * t_out)
        scale = np.abs(want.prediction.data).max()
        assert np.abs(got.prediction.data - want.prediction.data).max() <= 1e-12 * scale
        np.testing.assert_array_equal(got.reg_loss.data, want.reg_loss.data)
        if got.dynamic_graphs is not None:
            np.testing.assert_array_equal(got.dynamic_graphs.values.data,
                                          want.dynamic_graphs.values.data)

    def test_training_span_matches_the_taped_pass(self, monkeypatch):
        # the dynamic learner still runs per window, drawing the same dropout masks
        cfg = self.config("default")
        x = self.windows(cfg, 40)
        taped_model, model = SDGLModel(cfg), SDGLModel(cfg)
        want = self.taped(taped_model, x, training=True)
        calls = self.spans(monkeypatch)
        got = model.forward(Tensor(x), training=True)
        assert calls
        scale = np.abs(want.prediction.data).max()
        assert np.abs(got.prediction.data - want.prediction.data).max() <= 1e-12 * scale
        assert model.dropout_rng.random() == taped_model.dropout_rng.random()

    @pytest.mark.parametrize("fault", ["perturbed window", "shuffled", "nan cell"])
    def test_other_batches_run_per_window(self, monkeypatch, fault):
        cfg = self.config("default")
        x = self.windows(cfg, 128)
        if fault == "perturbed window":
            x[60, 2, 5] += 1e-12
        elif fault == "shuffled":
            x = x[np.random.default_rng(3).permutation(len(x))]
        else:
            # one series cell, so every window that holds it holds NaN at the same place
            series = np.random.default_rng(11).normal(size=(150, cfg.n_nodes))
            series[70, 3] = np.nan
            x = np.ascontiguousarray(make_windows(series, cfg.window, cfg.horizon).inputs[:128])
        model = SDGLModel(cfg)
        want = self.taped(model, x)
        calls = self.spans(monkeypatch)
        got = model.forward(Tensor(x))
        assert not calls
        np.testing.assert_array_equal(got.prediction.data, want.prediction.data)
        if fault == "nan cell":
            assert np.isnan(got.prediction.data).any()

    @pytest.mark.parametrize("training", [False, True])
    def test_taped_forward_never_shares(self, monkeypatch, training):
        cfg = self.config("default")
        calls = self.spans(monkeypatch)
        self.taped(SDGLModel(cfg), self.windows(cfg, 128), training)
        assert not calls

    def test_predict_shares_within_each_slice(self, monkeypatch):
        # 300 windows are slices of 128, 128 and 44, each its own span
        cfg = self.config("default")
        model, x = SDGLModel(cfg), self.windows(cfg, 300)
        scaler = Scaler(np.zeros(cfg.n_nodes), np.ones(cfg.n_nodes))
        calls = self.spans(monkeypatch)
        got = predict(model, scaler, x)
        # 1 + depth views of each span: the static branch plus residual plus the dynamic
        # branch's z_0's, and one per hop map z_1 ... z_d; the first skip maps the span
        assert calls == [128] * 6 + [44] * 3
        want = np.concatenate([self.taped(model, x[i : i + 128]).prediction.data
                               for i in range(0, 300, 128)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestRegularizerOnlyWhenRead:
    """The graph regularizer is a training loss: a taped ``forward`` records it,
    an untaped one computes it on the first read of ``reg_loss``, and the
    forecasts, which never read it, never compute it."""

    @staticmethod
    def counting(monkeypatch):
        """The list of calls to the regularizer through ``sdgl.model``'s name."""
        events, regularizer = [], sdgl_model.graph_regularization_loss

        def counted(*args):
            events.append("regularizer")
            return regularizer(*args)

        monkeypatch.setattr(sdgl_model, "graph_regularization_loss", counted)
        return events

    @staticmethod
    def series(cfg, b):
        """A series that holds b windows."""
        return np.random.default_rng(21).normal(size=(b + cfg.window + cfg.horizon - 1,
                                                      cfg.n_nodes))

    @classmethod
    def windows(cls, cfg, b):
        return make_windows(cls.series(cfg, b), cfg.window, cfg.horizon)

    @pytest.mark.parametrize("b", [1, 130])
    def test_predict_and_evaluate_never_compute_it(self, monkeypatch, b):
        cfg = tiny_config()
        model, windows = SDGLModel(cfg), self.windows(cfg, b)
        assert len(windows.inputs) == b
        scaler = Scaler(np.zeros(cfg.n_nodes), np.ones(cfg.n_nodes))
        calls = self.counting(monkeypatch)
        predict(model, scaler, windows.inputs)
        predict(model, scaler, windows.inputs[0])
        evaluate(model, scaler, windows)
        assert calls == []

    def test_export_graphs_never_computes_it(self, monkeypatch, tmp_path):
        from sdgl.cli import EXIT_OK, main
        cfg = tiny_config()
        save_csv(tmp_path / "data.csv", self.series(cfg, 130))
        checkpoint.save(tmp_path / "model.sdgl", SDGLModel(cfg),
                        Scaler(np.zeros(cfg.n_nodes), np.ones(cfg.n_nodes)))
        calls = self.counting(monkeypatch)
        code = main(["export-graphs", "--checkpoint", str(tmp_path / "model.sdgl"),
                     "--data", str(tmp_path / "data.csv"), "--windows", *map(str, range(130)),
                     "--out-dir", str(tmp_path / "graphs")])
        assert code == EXIT_OK
        assert calls == []

    @pytest.mark.parametrize("training", [False, True])
    def test_taped_forward_computes_it_once_before_the_dynamic_learner(self, monkeypatch,
                                                                       training):
        from sdgl.dynamic_graph import DynamicGraphLearner
        events = self.counting(monkeypatch)
        learner = DynamicGraphLearner.__call__

        def tracked(*args):
            events.append("dynamic")
            return learner(*args)

        monkeypatch.setattr(DynamicGraphLearner, "__call__", tracked)
        cfg = tiny_config()
        with Tape():
            result = SDGLModel(cfg).forward(Tensor(self.windows(cfg, 6).inputs), training)
        assert events == ["regularizer", "dynamic"]
        assert result.reg_loss.data.shape == ()
        assert events == ["regularizer", "dynamic"]

    @pytest.mark.parametrize("b", [1, 6, 130])
    def test_untaped_forward_computes_it_on_the_first_read(self, monkeypatch, b):
        cfg = tiny_config()
        model, x = SDGLModel(cfg), self.windows(cfg, b).inputs
        with Tape():
            want = model.forward(Tensor(x)).reg_loss
        calls = self.counting(monkeypatch)
        result = model.forward(Tensor(x))
        assert calls == []
        first = result.reg_loss
        assert calls == ["regularizer"]
        assert result.reg_loss is first
        assert calls == ["regularizer"]
        np.testing.assert_array_equal(first.data, want.data)


KEPT_CONFIGS = {"default": {}, "no_dyadj": dict(ablation=("no_dyadj",)),
                "ifm_plus": dict(ablation=("ifm_plus",))}


class TestKeptTerms:
    """An untaped ``forward`` keeps the tensors it derives from the state
    alone and reuses them while the bits of the state buffer are unchanged;
    a taped one derives them on every call."""

    @staticmethod
    def warm(cfg):
        """A model whose kept terms are derived, and a batch that is no span."""
        model = SDGLModel(cfg)
        x = np.random.default_rng(31).standard_normal((3, cfg.n_nodes, cfg.window))
        model.forward(Tensor(x))
        return model, x

    @staticmethod
    def derivations(monkeypatch):
        """The calls to the static graph's builder and to the taps' padding."""
        calls, build, pad = [], sdgl_model.build_static_graph, temporal._pad_taps

        def building(m_s):
            calls.append("static")
            return build(m_s)

        def padding(f):
            calls.append("pad")
            return pad(f)

        monkeypatch.setattr(sdgl_model, "build_static_graph", building)
        monkeypatch.setattr(temporal, "_pad_taps", padding)
        return calls

    @staticmethod
    def assert_untaped_is_taped(model, x, what):
        got = model.forward(Tensor(x))
        with Tape():
            want = model.forward(Tensor(x))
        np.testing.assert_array_equal(got.prediction.data, want.prediction.data, err_msg=what)
        if want.dynamic_graphs is not None:
            np.testing.assert_array_equal(got.dynamic_graphs.values.data,
                                          want.dynamic_graphs.values.data, err_msg=what)

    @pytest.mark.parametrize("name", sorted(KEPT_CONFIGS))
    def test_each_edit_of_the_state_derives_again(self, name):
        model, x = self.warm(tiny_config(**KEPT_CONFIGS[name]))
        for key, t in model.state_tensors().items():
            last = t.data.size - 1
            t.data.flat[last] += 0.25  # in place, as grad_check perturbs
            self.assert_untaped_is_taped(model, x, f"{key} edited in place")
            edited = t.data.copy()
            edited.flat[0] -= 0.5
            t.data = edited  # a rebinding, as SGD.step and checkpoint.load do
            self.assert_untaped_is_taped(model, x, f"{key} rebound")

    def test_unchanged_state_derives_nothing_until_a_step(self, monkeypatch):
        cfg = tiny_config(dropout_keep=0.8)
        model, x = self.warm(cfg)
        calls = self.derivations(monkeypatch)
        first = model.forward(Tensor(x)).prediction.data
        assert calls == []
        tape = Tape()
        with tape:
            res = model.forward(Tensor(x), training=True)
            loss = hybrid_loss(res.prediction, Tensor(np.ones((3, cfg.n_nodes, cfg.horizon))),
                               res.reg_loss, cfg.lambda_reg)
        # a taped pass derives its own, every call, and keeps none
        assert calls.count("static") == 1 and model._kept is None
        calls.clear()
        tape.backward(loss)
        opt = SGD(model.parameters(), cfg.learning_rate)
        opt.step()  # rebinds every parameter
        after = model.forward(Tensor(x)).prediction.data
        # one static graph, and the 4 kernels of 2 banks in each layer
        assert calls == ["static"] + ["pad"] * 8 * cfg.layers
        assert not np.array_equal(first, after)
        calls.clear()
        model.forward(Tensor(x))
        assert calls == []

    @pytest.mark.parametrize("training", [False, True])
    def test_taped_pass_forms_one_head_form(self, monkeypatch, training):
        from sdgl.dynamic_graph import AdjacencyHeads
        model, x = self.warm(tiny_config(dropout_keep=0.8))
        form, forms = AdjacencyHeads.head_form, []

        def counting(self, w_q):
            forms.append(w_q)
            return form(self, w_q)

        monkeypatch.setattr(AdjacencyHeads, "head_form", counting)
        with Tape():
            model.forward(Tensor(x), training=training)
        assert len(forms) == 1

    @pytest.mark.parametrize("name", ["embeddings.m_static", "start_w", "tcn0.filter.f7",
                                      "dynamic.heads.w_q0"])
    def test_grad_check_through_an_untaped_forward(self, name):
        # the finite differences perturb the parameter in place between untaped passes
        model, x = self.warm(tiny_config())
        weights = Tensor(np.random.default_rng(32).standard_normal((3, 4, 3)))

        def loss(_):
            return ad.reduce_sum(ad.mul(model.forward(Tensor(x)).prediction, weights))

        report = ad.grad_check(loss, model.state_tensors()[name], sample=8)
        assert report.passed, report

    def test_negative_zero_counts_as_a_change(self, monkeypatch):
        model, x = self.warm(tiny_config())
        assert model.start_b.data[0] == 0.0 and not np.signbit(model.start_b.data[0])
        calls = self.derivations(monkeypatch)
        model.start_b.data[0] = -0.0
        model.forward(Tensor(x))
        assert "static" in calls
        calls.clear()
        model.forward(Tensor(x))
        assert calls == []

    def test_kept_terms_are_read_only(self):
        model, x = self.warm(tiny_config())
        kept = list(model._terms(taped=False).tensors())
        assert kept and not any(t.data.flags.writeable for t in kept)
        with pytest.raises(ValueError, match="read-only"):
            kept[0].data[...] = 0.0
        with Tape():
            fresh = list(model._terms(taped=True).tensors())
        assert all(t.data.flags.writeable for t in fresh)


STATE_CONFIGS = {"default": {}, "no_dyadj": dict(ablation=("no_dyadj",)),
                 "no_ifm": dict(ablation=("no_ifm",))}


class TestStateBuffer:
    """The state is one float64 buffer in ``state_shapes`` order, each state
    tensor's ``.data`` a view of it, whatever has written to it."""

    @staticmethod
    def assert_one_buffer(model):
        state = model.state_tensors()
        assert list(state) == [name for name, _ in state_shapes(model.config)]
        buffer = next(iter(state.values())).data.base
        assert buffer is not None and buffer.base is None and buffer.ndim == 1
        assert buffer.dtype == np.float64 and buffer.size == sum(t.size for t in state.values())
        at = buffer.ctypes.data
        for name, t in state.items():
            assert t.data.base is buffer and t.data.ctypes.data == at, name
            assert t.data.flags.c_contiguous and t.data.flags.writeable, name
            at += t.data.nbytes
        # what an ablation drops stays out of the buffer
        kept = {id(t) for t in state.values()}
        dropped = [t for part in (model.dynamic, *model.gcn_dynamic)
                   for t in part.parameters().values() if id(t) not in kept]
        if "no_dyadj" in model.config.ablation:
            dropped.append(model.embeddings.m_dynamic)
        assert not any(np.shares_memory(t.data, buffer) for t in dropped)

    @pytest.mark.parametrize("name", sorted(STATE_CONFIGS))
    def test_every_writer_keeps_one_buffer(self, name, tmp_path):
        cfg = tiny_config(dropout_keep=0.8, **STATE_CONFIGS[name])
        model = SDGLModel(cfg)
        self.assert_one_buffer(model)
        before = {k: t.data.copy() for k, t in model.state_tensors().items()}
        one_step(model, training=True)
        SGD(model.parameters(), cfg.learning_rate).step()
        sdgl_model.momentum_update(model.embeddings)
        self.assert_one_buffer(model)
        moved = [k for k, t in model.state_tensors().items()
                 if not np.array_equal(t.data, before[k])]
        assert "embeddings.m_static" in moved and "out_w2" in moved
        if "no_dyadj" not in cfg.ablation:
            assert "embeddings.m_dynamic" in moved
        path = tmp_path / "m.sdgl"
        checkpoint.save(path, model, Scaler(np.zeros(4), np.ones(4)))
        loaded = checkpoint.load(path)
        back = loaded.model
        self.assert_one_buffer(back)
        # the file's records are copied, so what load returns is writeable
        assert loaded.scaler.mean.flags.writeable and loaded.scaler.std.flags.writeable
        for k, t in back.state_tensors().items():
            np.testing.assert_array_equal(t.data, model.state_tensors()[k].data, err_msg=k)

    def test_a_rebound_tensor_is_copied_into_its_view(self):
        model = SDGLModel(tiny_config())
        t = model.state_tensors()["out_b1"]
        new = np.arange(8.0)
        t.data = new
        model.forward(np.zeros((1, 4, 19)))
        self.assert_one_buffer(model)
        assert t.data is not new
        np.testing.assert_array_equal(t.data, new)

    @pytest.mark.parametrize("name, shape", [("dynamic.heads.head_mix0", (1,)),
                                             ("out_b1", (1, 8)), ("dynamic.heads.b_1", (1,))])
    @pytest.mark.parametrize("path", ["untaped", "taped", "save"])
    def test_a_tensor_rebound_to_another_shape_is_named(self, name, shape, path, tmp_path,
                                                        monkeypatch):
        model = SDGLModel(tiny_config())
        model.state_tensors()[name].data = np.ones(shape)
        want = re.escape(f"state tensor {name!r} was rebound to shape {shape}")
        with pytest.raises(ad.ShapeError, match=want):
            if path == "untaped":
                model.forward(np.zeros((2, 4, 19)))
            elif path == "taped":
                with Tape():
                    model.forward(np.zeros((2, 4, 19)), training=True)
            else:
                # the check runs before anything is opened
                monkeypatch.setattr(checkpoint, "_replacing", None)
                checkpoint.save(tmp_path / "m.sdgl", model, Scaler(np.zeros(4), np.ones(4)))
        assert list(tmp_path.iterdir()) == []


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


def training_loss(nan_in: str | None = None) -> float:
    """The tiny model's training-mode loss, with one NaN entry in ``nan_in``."""
    model = SDGLModel(tiny_config())
    if nan_in is not None:
        model.state_tensors()[nan_in].data.flat[0] = np.nan
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(8, 4, 19)), rng.normal(size=(8, 4, 3))
    with np.errstate(invalid="ignore"):
        res = model.forward(Tensor(x), training=True)
        loss = hybrid_loss(res.prediction, Tensor(y), res.reg_loss, model.config.lambda_reg)
    return loss.item()


def poison_after_third_step(name: str):
    """An ``SGD.step`` that sets one entry of parameter ``name`` to +inf after the 3rd step."""
    real_step, steps = SGD.step, []

    def step(self):
        norm = real_step(self)
        steps.append(norm)
        if len(steps) == 3:
            self.params[name].data.flat[0] = np.inf
        return norm
    return step


class TestNonFiniteState:
    """Every primitive passes NaN on, so the loss check in ``train`` is the one
    divergence check: a NaN anywhere the forecast reads makes the loss NaN."""

    @pytest.mark.parametrize("name", list(SDGLModel(tiny_config()).state_tensors()))
    def test_nan_reaches_the_loss(self, name):
        last = tiny_config().layers - 1
        # the last layer's graph branch and residual feed nothing the forecast reads
        unread = (f"gcn_static{last}.", f"gcn_dynamic{last}.", f"residual{last}.w")
        loss = training_loss(name)
        if name.startswith(unread):
            assert loss.hex() == training_loss().hex()
        else:
            assert not math.isfinite(loss)


class TestAblatedState:
    """An ablated model's state is what its forward pass reads."""

    @pytest.mark.parametrize("shape", [
        dict(layers=1), dict(layers=3, window=43), dict(depth=1), dict(depth=3),
    ], ids=lambda shape: ",".join(f"{k}={v}" for k, v in shape.items()))
    @pytest.mark.parametrize("ablation", [
        (), ("no_gloss",), ("no_dyadj",), ("no_ifm",), ("ifm_plus",), ("no_gloss", "no_dyadj"),
    ], ids=lambda flags: "+".join(flags) or "none")
    def test_every_parameter_gets_a_gradient(self, monkeypatch, ablation, shape):
        real_step, steps, missing = SGD.step, [], []

        def step(self):
            steps.append(len(self.params))
            missing.extend(name for name, p in self.params.items() if p.grad is None)
            return real_step(self)
        monkeypatch.setattr(SGD, "step", step)
        train(tiny_dataset(t=300), tiny_config(epochs=1, batch_size=64, ablation=ablation,
                                                **shape))
        assert steps and missing == []

    @pytest.mark.parametrize("flag,dropped", [
        ("no_dyadj", r"dynamic\.|gcn_dynamic\d+\.|embeddings\.m_dynamic$"),
        ("no_ifm", r"dynamic\.fusion\.[wub]_[rzh]$"),
        ("ifm_plus", r"dynamic\.fusion\.[wub]_[rzh]$"),
    ], ids=["no_dyadj", "no_ifm", "ifm_plus"])
    def test_ablation_leaves_out_what_it_does_not_read(self, flag, dropped):
        full = SDGLModel(tiny_config()).state_tensors()
        model = SDGLModel(tiny_config(ablation=(flag,)))
        state = model.state_tensors()
        assert list(state) == [name for name in full if not re.match(dropped, name)]
        # the dropped parts are still built, so each kept tensor starts as in the full model
        for name, t in state.items():
            np.testing.assert_array_equal(t.data, full[name].data)
        assert model.parameters().keys() == state.keys() - {"embeddings.m_dynamic"}


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

    def test_no_dyadj_leaves_the_dynamic_embeddings_alone(self):
        # without the dynamic graph nothing reads or saves them, so no step moves them
        cfg = tiny_config(epochs=1, ablation=("no_dyadj",))
        out, fresh = train(tiny_dataset(seed=4), cfg).model, SDGLModel(cfg)
        assert np.abs(out.embeddings.m_static.data - fresh.embeddings.m_static.data).max() > 0
        np.testing.assert_array_equal(out.embeddings.m_dynamic.data,
                                      fresh.embeddings.m_dynamic.data)

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

    @pytest.mark.parametrize("name", ["tcn1.gate.bias", "gcn_static1.bias"])
    def test_infinite_weight_is_a_divergence(self, monkeypatch, name):
        # tanh and sigmoid saturate (and the last graph branch is read by
        # nothing), so this inf leaves the loss and the validation forecast finite
        monkeypatch.setattr(SGD, "step", poison_after_third_step(name))
        with pytest.raises(DivergenceError) as exc:
            train(tiny_dataset(), tiny_config())
        assert str(exc.value) == f"state tensor '{name}' became non-finite in epoch 1"

    def test_history_records_validation_metrics(self):
        out = train(tiny_dataset(seed=6), tiny_config(epochs=2))
        assert len(out.history) == 2
        assert {"epoch", "train_loss", "val_MAE", "val_RMSE", "val_MAPE"} <= set(out.history[0])


def run_state(result) -> tuple:
    """A training run's history, every state tensor's bytes and its dropout
    stream's next 8 uniforms."""
    state = {k: t.data.tobytes() for k, t in result.model.state_tensors().items()}
    return result.history, state, result.model.dropout_rng.random(8).tobytes()


class TestDropoutMasks:
    """``train`` draws each step's keep masks in that step's forward, from
    ``model.dropout_rng``: one (B, N, N) mask per head, the same bits as
    serial draws."""

    # 51 training windows: six batches of 8 and a last one of 3
    CONFIG = dict(dropout_keep=0.8, epochs=2)

    @staticmethod
    def record_draws(monkeypatch) -> list:
        """The (stream, shape) of each keep mask drawn from here on, in order."""
        draws, keep_mask = [], RngState.keep_mask

        def recording(self, shape, keep_prob):
            draws.append((self, tuple(shape)))
            return keep_mask(self, shape, keep_prob)

        monkeypatch.setattr(RngState, "keep_mask", recording)
        return draws

    @pytest.mark.parametrize("overrides", [dict(ablation=("no_dyadj",)),
                                           dict(dropout_keep=1.0)],
                             ids=["no_dyadj", "keep1"])
    def test_no_masks_start_no_draw(self, monkeypatch, overrides):
        draws = self.record_draws(monkeypatch)
        cfg = tiny_config(**{**self.CONFIG, **overrides})
        result = train(tiny_dataset(seed=10), cfg)
        assert draws == []
        fresh = RngState(cfg.seed).substream(1)
        assert result.model.dropout_rng.random(8).tobytes() == fresh.random(8).tobytes()

    def test_each_step_draws_its_own_masks(self, monkeypatch):
        draws = self.record_draws(monkeypatch)
        result = train(tiny_dataset(seed=10), tiny_config(**self.CONFIG))
        # two heads, each a (B, 4, 4) mask, for each batch of each epoch
        batches = ([8] * 6 + [3]) * 2
        assert [shape for _, shape in draws] == [(b, 4, 4) for b in batches for _ in range(2)]
        assert {id(rng) for rng, _ in draws} == {id(result.model.dropout_rng)}

    @pytest.mark.parametrize("ablation", [(), ("ifm_plus",)], ids=["default", "ifm_plus"])
    def test_same_bits_as_serial_draws(self, monkeypatch, ablation):
        cfg = tiny_config(**self.CONFIG, ablation=ablation, batch_size=16)
        got = run_state(train(tiny_dataset(seed=10), cfg))
        monkeypatch.setattr(RngState, "keep_mask",
                            lambda self, shape, keep_prob: self.random(shape) < keep_prob)
        assert got == run_state(train(tiny_dataset(seed=10), cfg))

    def test_a_raise_between_epochs_leaves_the_stream_where_one_epoch_does(self, monkeypatch):
        want = run_state(train(tiny_dataset(seed=10), tiny_config(**{**self.CONFIG, "epochs": 1})))
        draws = self.record_draws(monkeypatch)

        def log(record):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            train(tiny_dataset(seed=10), tiny_config(**self.CONFIG), log=log)
        assert len(draws) == 7 * 2
        assert draws[-1][0].random(8).tobytes() == want[2]

    def test_a_failed_draw_reaches_the_caller(self, monkeypatch):
        cfg = tiny_config(**self.CONFIG)
        fresh = run_state(train(tiny_dataset(seed=10), cfg))
        fill, calls = rng_module._fill_keep, []

        def failing(gen, keep, keep_prob):
            calls.append(keep.size)
            if len(calls) == 3:
                raise MemoryError("drawing keep masks")
            fill(gen, keep, keep_prob)

        with monkeypatch.context() as m:
            m.setattr(rng_module, "_fill_keep", failing)
            with pytest.raises(MemoryError, match="drawing keep masks"):
                train(tiny_dataset(seed=10), cfg)
        assert len(calls) == 3
        assert run_state(train(tiny_dataset(seed=10), cfg)) == fresh


def test_train_starts_no_thread(monkeypatch):
    # N = 64, B = 32 and 4 heads draw 524,288 mask entries a step: every one
    # is drawn by the forward that reads it, on the calling thread
    started = spy_on_thread_starts(monkeypatch)
    cfg = tiny_config(n_nodes=64, heads=4, batch_size=32, epochs=2, dropout_keep=0.9)
    train(tiny_dataset(t=150, n=64, seed=10), cfg)
    assert started == []


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

    @pytest.mark.parametrize("n_nodes", [10, 100])
    def test_single_window_predict_is_its_row_of_a_full_batch(self, n_nodes):
        # the benchmark's predict_matches_evaluate check: a shared-matrix
        # propagate is one GEMM over B*C*T rows, so BLAS may block a batch of
        # 128 windows differently from one
        model = SDGLModel(ModelConfig(n_nodes=n_nodes, channels=16, seed=1))
        rng = np.random.default_rng(n_nodes)
        scaler = Scaler(rng.normal(size=n_nodes), rng.uniform(0.5, 2.0, size=n_nodes))
        windows = rng.normal(size=(128, n_nodes, 19)) * 3 + 5
        batched = predict(model, scaler, windows)
        scale = max(1.0, float(np.abs(batched).max()))
        for i in rng.choice(128, size=8, replace=False):
            single = predict(model, scaler, windows[i])
            assert np.abs(single - batched[i]).max() / scale <= 1e-9, i

    def test_predict_rejects_node_mismatch(self):
        out = self.make_trained(seed=2)
        with pytest.raises(ad.ShapeError, match="nodes"):
            predict(out.model, out.scaler, np.zeros((5, 19)))
        # a wrong rank or length names the expected shape, not an IndexError or a node count
        for shape in [(19,), (1, 1, 4, 19), (4, 7)]:
            with pytest.raises(ad.ShapeError, match=r"\(4, 19\) or \(B, 4, 19\) window"):
                predict(out.model, out.scaler, np.zeros(shape))

    def test_evaluate_rejects_no_windows(self):
        # the error predict gives for B = 0, not numpy's empty-concatenate one
        model = SDGLModel(tiny_config())
        empty = WindowBatch(np.zeros((0, 4, 19)), np.zeros((0, 4, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ad.ShapeError, match=r"forward: expected \(B, 4, 19\) input "
                                                r"with B >= 1, got \(0, 4, 19\)"):
            evaluate(model, Scaler(np.zeros(4), np.ones(4)), empty)

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

    @pytest.mark.parametrize("kind", ["noise", "zero_targets", "constant_nodes",
                                      "constant_target"])
    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("n_nodes", [2, 10])
    @pytest.mark.parametrize("n_windows", [1, 2, 128, 300])
    def test_each_entry_is_its_one_group_call(self, monkeypatch, n_windows, n_nodes,
                                              horizon, kind):
        # evaluate scores its steps as groups of one pass; each entry must be
        # the one-group call on its slice, bit for bit
        rng = np.random.default_rng([n_windows, n_nodes, horizon])
        values = rng.normal(size=(n_windows + horizon + 1, n_nodes)) * 10 + 3
        pred = rng.normal(size=(n_windows, n_nodes, horizon)) * 10 + 3
        if kind == "zero_targets":
            values[rng.random(values.shape) < 0.3] = 0.0
            values[2:n_windows + 2] = 0.0  # every target of step 1 (MAPE undefined)
        elif kind == "constant_nodes":
            values[:, 0] = 0.1  # CORR leaves both nodes out
            pred[:, 1] = 0.3
        elif kind == "constant_target":
            values[:] = 3.7  # RSE and CORR undefined
        windows = make_windows(values, 2, horizon)
        monkeypatch.setattr(sdgl_model, "predict", lambda model, scaler, x: pred)
        rep = evaluate(None, None, windows)
        truth = windows.targets
        assert rep["average"] == metrics(pred, truth)
        assert rep["per_horizon"] == [metrics(pred[:, :, k:k + 1], truth[:, :, k:k + 1])
                                      for k in range(horizon)]
        if kind == "zero_targets":
            assert rep["per_horizon"][0]["MAPE"] is None
        elif kind == "constant_target":
            assert rep["average"]["RSE"] is None and rep["average"]["CORR"] is None

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

    @pytest.mark.parametrize("run", [
        evaluate, lambda model, scaler, windows: predict(model, scaler, windows.inputs),
    ], ids=["evaluate", "predict"])
    def test_evaluate_memory_does_not_grow_with_window_copies(self, run):
        # predict, and evaluate through it, normalizes one slice at a time: from
        # T = 2048 to T = 8192 the peak grows by less than half of what the
        # extra windows would take as one normalized copy (4.7 MB for 10 nodes at h = 19)
        model = SDGLModel(ModelConfig(n_nodes=10))

        def peak(t):
            values = np.random.default_rng(0).normal(size=(t, 10))
            windows = make_windows(values, 19, 3)
            tracemalloc.start()
            try:
                run(model, Scaler.fit(values), windows)
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


def format_1_bytes(model: SDGLModel, scaler: Scaler) -> bytes:
    """The file format 1 wrote: a header with a tensor count, then a record per
    tensor of its name, rank, dims and values."""
    tensors = {**{name: t.data for name, t in model.state_tensors().items()},
               "scaler.mean": scaler.mean, "scaler.std": scaler.std}
    blob = json.dumps({"config": asdict(model.config), "tensor_count": len(tensors)},
                      sort_keys=True).encode()
    records = b"".join(struct.pack(f"<I{len(name)}sI{a.ndim}Q", len(name), name.encode(),
                                   a.ndim, *a.shape) + a.astype("<f8").tobytes()
                       for name, a in sorted(tensors.items()))
    return checkpoint.MAGIC + struct.pack("<IQ", 1, len(blob)) + blob + records


# the configs whose state_shapes and checkpoints are checked against the model
SHAPE_CONFIGS = [
    {}, dict(layers=1), dict(layers=3, window=43), dict(depth=3),
    dict(heads=3, head_dim=5), dict(channels=12, horizon=5), dict(ablation=("no_dyadj",)),
    dict(ablation=("no_dyadj",), layers=1), dict(ablation=("no_ifm",)),
    dict(ablation=("ifm_plus",)),
]


class TestCheckpoint:
    @pytest.mark.parametrize("overrides", SHAPE_CONFIGS)
    def test_round_trip_bit_identical(self, tmp_path, overrides):
        out = train(tiny_dataset(t=240, seed=7),
                    tiny_config(epochs=1, dropout_keep=0.8, **overrides))
        p, again = tmp_path / "m.sdgl", tmp_path / "again.sdgl"
        checkpoint.save(p, out.model, out.scaler)
        back = checkpoint.load(p)
        x = np.random.default_rng(2).normal(size=(3, 4, out.model.config.window))
        np.testing.assert_array_equal(
            back.model.forward(x).prediction.data,
            out.model.forward(x).prediction.data,
        )
        np.testing.assert_array_equal(back.scaler.mean, out.scaler.mean)
        np.testing.assert_array_equal(back.scaler.std, out.scaler.std)
        checkpoint.save(again, back.model, back.scaler)
        assert again.read_bytes() == p.read_bytes()
        # a checkpoint holds no training state: the dropout stream starts afresh
        fresh = SDGLModel(back.model.config).dropout_rng
        np.testing.assert_array_equal(back.model.dropout_rng.random(8), fresh.random(8))

    def test_numpy_typed_settings_save_and_load(self, tmp_path):
        cfg = tiny_config(seed=np.int64(4), window=np.int32(19), embed_dim=np.uint8(8),
                          learning_rate=np.float32(0.05), growth=np.float64(2.0))
        settings = asdict(cfg)
        assert all(type(v) in (int, float, tuple) for k, v in settings.items()
                   if k != "head_dim"), settings
        model = SDGLModel(cfg)
        p = tmp_path / "m.sdgl"
        checkpoint.save(p, model, Scaler(np.zeros(4), np.ones(4)))
        back = checkpoint.load(p)
        assert back.model.config == cfg
        x = np.random.default_rng(4).normal(size=(2, 4, 19))
        np.testing.assert_array_equal(back.model.forward(x).prediction.data,
                                      model.forward(x).prediction.data)

    def test_unknown_header_key_is_not_read(self, tmp_path):
        # a key no format wrote is never decoded, even one whose dtype string
        # would ask numpy for a 32 MB array: the file loads and forecasts as saved
        model = SDGLModel(tiny_config(dropout_keep=0.8))
        rng = np.random.default_rng(4)
        for t in model.state_tensors().values():
            t.data = t.data + 0.01 * rng.normal(size=t.data.shape)
        scaler = Scaler(rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
        p = tmp_path / "m.sdgl"
        checkpoint.save(p, model, scaler)
        header, payload = self.split(p.read_bytes())
        header["note"] = {"__ndarray__": [0], "dtype": "(4000000,)u8"}
        p.write_bytes(self.join(p.read_bytes(), header, payload))
        back = checkpoint.load(p)
        x = rng.normal(size=(2, 4, 19))
        np.testing.assert_array_equal(predict(back.model, back.scaler, x),
                                      predict(model, scaler, x))

    @pytest.mark.parametrize("saver", ["checkpoint", "save_csv"])
    def test_failed_save_keeps_the_earlier_file(self, tmp_path, monkeypatch, saver):
        # the second save's first write stops halfway and raises, as on a full disk
        def save(path, seed):
            if saver == "checkpoint":
                model = SDGLModel(tiny_config(seed=seed))
                checkpoint.save(path, model, Scaler(np.zeros(4), np.ones(4)))
            else:
                save_csv(path, np.random.default_rng(seed).normal(size=(6, 3)))

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

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

    @pytest.mark.parametrize("mean, std, name, shape", [
        (np.zeros(3), np.ones(4), "scaler.mean", (3,)),
        (np.zeros(4), np.ones(5), "scaler.std", (5,)),
        (np.zeros((1, 4)), np.ones(4), "scaler.mean", (1, 4)),
    ])
    def test_a_scaler_of_another_node_count_is_refused(self, tmp_path, monkeypatch,
                                                       mean, std, name, shape):
        # the check runs before anything is opened
        monkeypatch.setattr(checkpoint, "_replacing", None)
        want = re.escape(f"save: {name} has shape {shape}, the model's 4 nodes need (4,)")
        with pytest.raises(ad.ShapeError, match=want):
            checkpoint.save(tmp_path / "m.sdgl", SDGLModel(tiny_config()), Scaler(mean, std))
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.sdgl"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(checkpoint.CheckpointError, match="magic"):
            checkpoint.load(p)

    @staticmethod
    def save_fresh(path) -> bytes:
        """Save a fresh ``tiny_config`` model; returns the file's bytes."""
        checkpoint.save(path, SDGLModel(tiny_config()), Scaler(np.zeros(4), np.ones(4)))
        return path.read_bytes()

    @staticmethod
    def split(raw):
        """(header dict, payload bytes) of a saved checkpoint."""
        hlen = int.from_bytes(raw[8:16], "little")
        return json.loads(raw[16 : 16 + hlen]), raw[16 + hlen :]

    @staticmethod
    def join(raw, header, payload):
        """``raw``'s magic and version, then ``header`` (a JSON value, or the
        header's bytes) and ``payload``."""
        blob = header if isinstance(header, bytes) else json.dumps(header).encode()
        return raw[:8] + len(blob).to_bytes(8, "little") + blob + payload

    @pytest.mark.parametrize("field", [
        "format version", "header length", "header", "header of length 2**63",
    ])
    def test_truncated_file_names_the_field(self, tmp_path, field):
        p = tmp_path / "m.sdgl"
        raw = self.save_fresh(p)
        hlen = int.from_bytes(raw[8:16], "little")
        # a size beyond the end of the file is reported as truncation, before any read
        bad, what = {
            "format version": (raw[:6], field),
            "header length": (raw[:12], field),
            "header": (raw[: 16 + hlen // 2], field),
            "header of length 2**63": (raw[:8] + (2**63).to_bytes(8, "little") + raw[16:],
                                       "header"),
        }[field]
        p.write_bytes(bad)
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(p)
        assert str(exc.value).startswith(f"{p}: truncated in {what}:")

    # tiny_config: 4 nodes, the static embeddings (4, 8) first
    PAYLOAD_CHANGES = {
        "none": lambda b: b"",
        "cut to its first 2 bytes": lambda b: b[:2],
        "cut inside its last value": lambda b: b[:-4],
        "scaler.mean missing": lambda b: b[:-64] + b[-32:],
        "scaler.std missing": lambda b: b[:-32],
        "a value extra": lambda b: b + np.zeros(1).tobytes(),
        "a byte after the end": lambda b: b + b"\x07",
        "22 bytes after the end": lambda b: b + b"\x07" * 22,
        "the first tensor twice": lambda b: b[: 8 * 32] + b,
    }

    @pytest.mark.parametrize("change", PAYLOAD_CHANGES)
    def test_payload_of_another_length_rejected(self, tmp_path, change):
        # the config fixes the payload's length: a tensor missing, cut or extra
        # changes it, and the crc32, made for the changed payload, is not reached
        p = tmp_path / "m.sdgl"
        raw = self.save_fresh(p)
        header, payload = self.split(raw)
        bad = self.PAYLOAD_CHANGES[change](payload)
        header["crc32"] = zlib.crc32(bad)
        p.write_bytes(self.join(raw, header, bad))
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(p)
        assert str(exc.value) == (f"{p}: payload is {len(bad)} bytes, "
                                  f"its config needs {len(payload)}")

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_changed_payload_byte_fails_the_crc(self, tmp_path, data):
        raw = fresh_checkpoint_bytes()
        header, payload = self.split(raw)
        at = data.draw(st.integers(0, len(payload) - 1))
        bad = payload[:at] + bytes([payload[at] ^ data.draw(st.integers(1, 255))]) \
            + payload[at + 1 :]
        p = tmp_path / "m.sdgl"
        p.write_bytes(self.join(raw, header, bad))
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(p)
        assert str(exc.value) == (f"{p}: payload's CRC32 is {zlib.crc32(bad)}, "
                                  f"the header's crc32 is {header['crc32']}")

    @pytest.mark.parametrize("name", [
        "embeddings.m_static", "start_w", "embeddings.m_dynamic", "scaler.mean", "scaler.std",
    ])
    def test_non_finite_payload_rejected(self, tmp_path, name):
        # the named tensor's last value is NaN, and the crc32 is made for it
        p = tmp_path / "m.sdgl"
        raw = self.save_fresh(p)
        header, payload = self.split(raw)
        shapes = [*state_shapes(tiny_config()), ("scaler.mean", (4,)), ("scaler.std", (4,))]
        ends = np.cumsum([math.prod(shape) for _, shape in shapes])
        at = 8 * int(ends[[n for n, _ in shapes].index(name)] - 1)
        bad = payload[:at] + np.array([np.nan], "<f8").tobytes() + payload[at + 8 :]
        header["crc32"] = zlib.crc32(bad)
        p.write_bytes(self.join(raw, header, bad))
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(p)
        assert str(exc.value) == f"{p}: tensor {name!r} has non-finite values"

    @staticmethod
    def mutate_header(h, payload, mutation):
        """The header (a JSON value, or the header's bytes) and payload ``mutation`` makes."""
        if mutation == "crc32 renamed":
            h["CRC32"] = h.pop("crc32")
        elif mutation == "crc32 missing":
            del h["crc32"]
        elif mutation == "crc32 a string":
            h["crc32"] = str(h["crc32"])
        elif mutation == "crc32 a bool":
            h["crc32"] = True
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
        elif mutation == "config number past float range":
            h["config"]["learning_rate"] = 10**400
        elif mutation == "config integer past the int-to-str limit":
            h["config"]["seed"] = "SEED"  # json.dumps cannot write the int itself
            return json.dumps(h).replace('"SEED"', "1" + "0" * 5000).encode(), payload
        elif mutation == "config too many layers":
            h["config"]["layers"] = 2000  # 2.0 ** 1999 overflows a float
        elif mutation == "header a list":
            return [h], payload
        elif mutation == "header nested too deeply":
            return b"[" * 200_000, payload  # past the JSON parser's depth limit
        elif mutation == "header cut short":
            return json.dumps(h).encode()[:-1], payload
        elif mutation == "header not UTF-8":
            return json.dumps(h).encode().replace(b'"config"', b'"conf\xe9g"'), payload
        elif mutation == "scaler.std below the floor":
            # its first value, with the crc32 made for the changed payload
            payload = payload[:-32] + np.array(-2.0, "<f8").tobytes() + payload[-24:]
            h["crc32"] = zlib.crc32(payload)
        return h, payload

    HEADER_MUTATIONS = {
        "crc32 renamed": "'crc32'",
        "crc32 missing": "'crc32'",
        "crc32 a string": "'crc32'",
        "crc32 a bool": "'crc32'",
        "config a list": "'config'",
        "config missing": "'config'",
        "config field unknown": "'config'.*foo",
        "config field mistyped": "'config'",
        "config invalid": "'config'.*heads",
        "config too many layers": "'config': window: ",
        "config number past float range": "'config': learning_rate: need a finite number",
        "config integer past the int-to-str limit":
            "header holds an integer past Python's int-to-str limit of 4300 digits",
        "ablation a string": "'config': ablation: need a list",
        "ablation an object": "'config': ablation: need a list",
        "header a list": "header is a JSON list",
        "header nested too deeply": "header is nested past the JSON parser's recursion depth limit",
        "header cut short": "header is not valid JSON: Expecting ',' delimiter",
        "header not UTF-8": "header is not valid JSON: 'utf-8' codec can't decode byte 0xe9",
        "scaler.std below the floor":
            r"tensor 'scaler.std' holds -2.0, below the scaler's floor of 1e-08",
    }

    @pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
    def test_header_schema_errors_name_the_field(self, tmp_path, mutation):
        p = tmp_path / "m.sdgl"
        raw = self.save_fresh(p)
        header, payload = self.mutate_header(*self.split(raw), mutation)
        p.write_bytes(self.join(raw, header, payload))
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

    @pytest.mark.parametrize("overrides", SHAPE_CONFIGS)
    def test_state_shapes_match_the_model(self, overrides):
        # as ordered lists: SGD sums the gradient norm in the parameters' order
        cfg = tiny_config(**overrides)
        want = [(name, t.shape) for name, t in SDGLModel(cfg).state_tensors().items()]
        assert list(state_shapes(cfg)) == want

    def test_config_beyond_the_payload_fails_before_building(self, tmp_path):
        # a header claiming 3000 nodes would ask for two 3000 x 3000 weights
        p = tmp_path / "m.sdgl"
        raw = self.save_fresh(p)
        header, payload = self.split(raw)
        header["config"]["n_nodes"] = 3000
        p.write_bytes(self.join(raw, header, payload))
        tracemalloc.start()
        try:
            with pytest.raises(checkpoint.CheckpointError) as exc:
                checkpoint.load(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = 8 * (sum(math.prod(shape) for _, shape in state_shapes(tiny_config(n_nodes=3000)))
                    + 2 * 3000)
        assert str(exc.value) == f"{p}: payload is {len(payload)} bytes, its config needs {need}"
        assert peak < 10 * len(raw)

    @pytest.mark.parametrize("version", [1, 99])
    def test_unsupported_version(self, tmp_path, version):
        model, scaler = SDGLModel(tiny_config()), Scaler(np.zeros(4), np.ones(4))
        p = tmp_path / "m.sdgl"
        if version == 1:
            p.write_bytes(format_1_bytes(model, scaler))
        else:
            checkpoint.save(p, model, scaler)
            raw = p.read_bytes()
            p.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(p)
        assert str(exc.value) == f"{p}: unsupported format version {version}"
