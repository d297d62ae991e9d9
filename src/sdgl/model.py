"""Full network assembly, joint training under the hybrid loss, forecasting.

Layer stacking per forward pass: build the static adjacency and per-window
dynamic adjacencies, then run K rounds of gated temporal convolution followed
by dual graph convolution (static + dynamic branch, each layer propagating
along the shared graphs) with residual connections, accumulating skip outputs
into the output module. Each graph is a row softmax, so it reaches mix-hop as
built: its rows sum to 1, and normalizing it again would change only rounding.
Nothing reads the last layer's graph branches and residual. Without an active
tape (``predict``, ``evaluate``) they do not run. Under a tape they run and are
recorded, and backward runs none of their rules, so their parameters get zero
gradients (``Tape.backward``). The 1x1 start map that lifts each node's series
to C channels is never formed: it is affine and nothing nonlinear follows it
before the first layer's convolution and residual, which are linear too, so it
is folded into their weights and biases (``temporal`` says why the
convolution's bias term is exact), and the first layer reads the raw
one-channel series. The head reads only the last step of each skip, so each
layer, its graph branches and its residual run only at the steps that reach
it: ``temporal.step_plan``, computed once per model from the config, gives
them. Consecutive stride-1 windows of one series (``predict`` and ``evaluate``
score them) overlap in all but one step, and the first layer's gated
convolution, static mix-hop and residual do not depend on the window: a
convolution, a fixed graph and a per-step map give the same value at a series
step whichever window reads it. So without a tape such a batch runs them once
over the span of the series the windows slide over. Every layer's output is
(static mix-hop + residual) + dynamic mix-hop, in that order on every path, so
on the span that first sum runs once too. The dynamic mix-hop's selection
commutes with its propagation (``graph_conv``), so its hop maps z_k, d + 1
channel maps, also run once over the span, and z_0 + bias joins the sum: the
span's output is ((static + residual) + (z_0 + bias)) + P(z_1 + P(...)). Each
window reads its kept steps of that sum and of each of the d hop maps as 1 + d
read-only views and runs only Horner's rule along its own graph P. The first
layer's skip map reads each window's last kept step, and window i's is span
step i + stride * (t_out - 1), so it too runs once, over the span's last B
steps. The graph learners, the later layers and the head run per window. The
check is on the values, so a NaN fails it. A taped pass, any other batch, and a
batch whose span would compute no fewer first-layer steps than its windows
(B <= 2 at the defaults, and any one-layer model) run per window. Training
minimizes lambda * graph regularization + L1 prediction loss; after every
optimizer step the dynamic embeddings follow the static ones by momentum only.
Training runs on the calling thread alone: each forward draws its own dropout
keep masks (``rng``) as it reaches them.
The regularizer is a training loss: a taped pass records it, and an untaped
one computes it only when its result's ``reg_loss`` is read, which no forecast
does.

Some of what a pass reads depends on the state alone, never on the windows:
the static graph, each gated layer's packed weight and bias (layer 0's with the
start map folded in), layer 0's folded residual, the scaled query weights and
the collapsed head form, the fusion gates' M_s W_r, M_s W_z and M_s U_h, and
the anchor LN(M_d M_d^T). ``SDGLModel._terms`` derives them all, through the
modules' own functions, for both paths. A taped pass derives and records them
on every call, in an order that sums each gradient as the modules would, so
training is unchanged bit for bit; a training pass reads no head form, so
backward runs none of its rules. It drops any kept set: the step that
follows changes what the set was derived from. An untaped pass (``predict``, ``evaluate``,
``train``'s validation, ``export-graphs``) keeps the last set, read-only, and
reuses it while the bits of the state are unchanged. The state is one float64
buffer, each state tensor's ``.data`` a view of it, and every writer
(``SGD.step``, ``momentum_update``, ``checkpoint.load``, ``grad_check``) edits
it in place, so any edit derives the set again, and so does 0.0 becoming -0.0.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape
from .data import (Scaler, SeriesDataset, SplitWindows, WindowBatch, group_metrics, metrics,
                   window_split)
from .dynamic_graph import DynamicGraphLearner, LearnerTerms
from .graph_conv import MixHopConv
from .params import weight, zeros
from .rng import RngState
from .static_graph import (
    AdjacencyMatrix,
    ConfigError,
    NodeEmbeddings,
    build_static_graph,
    graph_regularization_loss,
    momentum_update,
)
from .temporal import KERNEL_SIZES, GatedTemporalLayer, MAX_KERNEL, layer_dilation, step_plan

ABLATION_FLAGS = ("no_gloss", "no_dyadj", "no_ifm", "ifm_plus")


class DivergenceError(RuntimeError):
    """Training loss, validation forecast or model state became non-finite."""


class SettingTypeError(ConfigError, TypeError):
    """A setting is not of its field's type: an integer, a finite real or a list of flags."""


# the least value of each integer setting (head_dim may also be None), and the
# settings that take any real number before their own range checks
_INT_LOWER_BOUNDS = {
    "n_nodes": 2, "window": 1, "horizon": 1, "embed_dim": 1, "head_dim": 1, "heads": 1,
    "layers": 1, "depth": 1, "channels": 4, "batch_size": 1, "epochs": 0, "seed": 0,
}
_REAL_FIELDS = ("growth", "lambda_reg", "gamma", "momentum", "dropout_keep", "learning_rate")


def _shown(value: int) -> str:
    """An integer setting as text, or a placeholder where Python's int-to-str
    limit refuses to format it."""
    try:
        return str(value)
    except ValueError:
        return "(too many digits to print)"


@dataclass(frozen=True)
class ModelConfig:
    """Every hyperparameter the architecture leaves open, checked once when built."""

    n_nodes: int
    window: int = 19
    horizon: int = 3
    embed_dim: int = 16
    head_dim: int | None = None  # defaults to embed_dim // heads
    heads: int = 4
    growth: float = 2.0  # dilation growth rate q
    layers: int = 2
    depth: int = 2  # mix-hop propagation steps
    channels: int = 16
    lambda_reg: float = 0.05
    gamma: float = 0.1
    momentum: float = 0.9
    dropout_keep: float = 0.9
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    ablation: tuple[str, ...] = ()

    def __post_init__(self):
        # checked before the conversions, so a string is rejected, not split into letters,
        # and a numpy scalar is stored as the Python int or float a checkpoint header takes
        self.validate()
        object.__setattr__(self, "ablation", tuple(self.ablation))
        for name in _INT_LOWER_BOUNDS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, int(getattr(self, name)))
        for name in _REAL_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))

    def resolved_head_dim(self) -> int:
        if self.head_dim is not None:
            return self.head_dim
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"heads: embed_dim ({_shown(self.embed_dim)}) must be divisible by heads "
                f"({_shown(self.heads)}) when head_dim is left unset"
            )
        return self.embed_dim // self.heads

    def validate(self) -> None:
        for name, least in _INT_LOWER_BOUNDS.items():
            value = getattr(self, name)
            if name == "head_dim" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SettingTypeError(f"{name}: need an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name}: need >= {least}, got {_shown(value)}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            try:
                finite = not isinstance(value, bool) and isinstance(value, numbers.Real) \
                    and math.isfinite(value)
            except OverflowError:  # its repr may be past Python's int-to-str limit
                raise SettingTypeError(f"{name}: need a finite number, got one past "
                                       "float range") from None
            if not finite:
                raise SettingTypeError(f"{name}: need a finite number, got {value!r}")
        if self.growth <= 1:
            raise ConfigError(f"growth: dilation rate must exceed 1, got {self.growth}")
        # each layer shortens time by its dilation * (MAX_KERNEL - 1); one step must
        # remain. The sum stops at the first layer the window cannot feed, so a huge
        # layer count costs a few terms; a dilation past float range cannot be fed.
        rf = 1
        for j in range(1, self.layers + 1):
            try:
                rf += (MAX_KERNEL - 1) * layer_dilation(self.growth, j)
            except OverflowError:
                rf = math.inf
            if self.window < rf:
                raise ConfigError(
                    f"window: input length {self.window} shorter than receptive field {rf} "
                    f"(c={MAX_KERNEL}, q={self.growth}, k={j} of {_shown(self.layers)} layers)"
                )
        if self.channels % 4 != 0:
            raise ConfigError(f"channels: must be divisible by 4, got {_shown(self.channels)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum: must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ConfigError(f"dropout_keep: must be in (0, 1], got {self.dropout_keep}")
        if self.lambda_reg < 0:
            raise ConfigError(f"lambda_reg: must be >= 0, got {self.lambda_reg}")
        if self.gamma < 0:
            raise ConfigError(f"gamma: must be >= 0, got {self.gamma}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate: must be > 0, got {self.learning_rate}")
        if not isinstance(self.ablation, (tuple, list)) \
                or not all(isinstance(flag, str) for flag in self.ablation):
            raise SettingTypeError(f"ablation: need a list of flag names, got {self.ablation!r}")
        for flag in self.ablation:
            if flag not in ABLATION_FLAGS:
                raise ConfigError(f"ablation: unknown flag {flag!r} (choices: {ABLATION_FLAGS})")
        if "no_ifm" in self.ablation and "ifm_plus" in self.ablation:
            raise ConfigError("ablation: no_ifm and ifm_plus exclude each other")
        self.resolved_head_dim()


def state_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each tensor of the config's state: what its forward pass reads.

    ``SDGLModel.state_tensors`` is these tensors, in this order. It is the
    order ``SGD`` sums their gradients in, with the dynamic embeddings, which
    no gradient moves, last. An ablation's forward pass reads less: without
    the dynamic graph (``no_dyadj``) no ``dynamic.*``, ``gcn_dynamic{j}.*`` or
    dynamic embeddings, and without the fusion gate (``no_ifm``,
    ``ifm_plus``) no ``w_r``, ``u_r``, ``b_r``, ``w_z``, ``u_z``, ``b_z``,
    ``w_h`` or ``u_h``. Computed from the config without building the model,
    one tensor at a time, so ``checkpoint.load`` can check a file's payload length
    against it before anything the file does not back is allocated.
    """
    n, d, c, hd = config.n_nodes, config.embed_dim, config.channels, config.resolved_head_dim()
    dynamic = "no_dyadj" not in config.ablation
    branches = ("gcn_static", "gcn_dynamic") if dynamic else ("gcn_static",)
    yield "embeddings.m_static", (n, d)
    if dynamic:
        yield "dynamic.fusion.w_in", (config.window, d)
        yield "dynamic.fusion.b_in", (d,)
        if not {"no_ifm", "ifm_plus"} & set(config.ablation):
            for gate in ("r", "z"):
                yield f"dynamic.fusion.w_{gate}", (d, d)
                yield f"dynamic.fusion.u_{gate}", (d, d)
                yield f"dynamic.fusion.b_{gate}", (d,)
            yield "dynamic.fusion.w_h", (d, d)
            yield "dynamic.fusion.u_h", (d, d)
        yield "dynamic.heads.ln_gain", (d,)
        yield "dynamic.heads.ln_bias", (d,)
        yield "dynamic.heads.w_res", (d, hd)
        for k in (1, 2):
            yield f"dynamic.heads.w_{k}", (n, n)
            yield f"dynamic.heads.b_{k}", (n,)
        for i in range(config.heads):
            yield f"dynamic.heads.w_q{i}", (d, hd)
            yield f"dynamic.heads.w_k{i}", (d, hd)
            yield f"dynamic.heads.head_mix{i}", ()
    yield "start_w", (c, 1)
    yield "start_b", (c,)
    for j in range(config.layers):
        for bank in ("filter", "gate"):
            for k in KERNEL_SIZES:
                yield f"tcn{j}.{bank}.f{k}", (c // len(KERNEL_SIZES), c, k)
            yield f"tcn{j}.{bank}.bias", (c,)
        yield f"residual{j}.w", (c, c)
        yield f"skip{j}.w", (c, c)
        for branch in branches:
            yield f"{branch}{j}.w_select", (c, c * (config.depth + 1))
            yield f"{branch}{j}.bias", (c,)
    yield "out_w1", (c, c)
    yield "out_b1", (c,)
    yield "out_w2", (config.horizon, c)
    yield "out_b2", (config.horizon,)
    if dynamic:
        yield "embeddings.m_dynamic", (n, d)


def _windows(span: Tensor, b: int, count: int, step: int) -> Tensor:
    """The (B, C, count, N) steps of b consecutive windows in a (1, C, T, N) map
    of the span they slide over: window i's step j is the span's step i + step*j.

    A read-only view with no copy and no tape record, so only untaped passes use it.
    It is built from the span's strides in constant time. Raises ``ValueError``
    unless b, count and step are positive and the last window ends in the span.
    """
    data = span.data
    _, c, t, n = data.shape
    if b < 1 or count < 1 or step < 1 or b + step * (count - 1) > t:
        raise ValueError(f"_windows: {b} windows of {count} steps, {step} apart, "
                         f"do not fit in a span of {t} steps")
    _, s_c, s_t, s_n = data.strides
    return Tensor(np.lib.stride_tricks.as_strided(
        data, (b, c, count, n), (s_t, s_c, step * s_t, s_n), writeable=False))


@dataclass
class ForwardResult:
    """What one ``forward`` call gives.

    ``reg_loss`` is the scalar graph-regularization term of the call's windows
    and static graph, a training loss. A taped call records it in ``forward``.
    An untaped call computes it on its first read, from the windows' array as
    it is then, through this module's ``graph_regularization_loss``, and keeps
    it: forecasts never read it, so they never compute it.
    """

    prediction: Tensor  # (B, N, L), normalized units
    dynamic_graphs: AdjacencyMatrix | None  # values (B, N, N)
    # the term, or the (windows, static graph, gamma) it is computed from
    _reg: Tensor | tuple[Tensor, Tensor, float]

    @property
    def reg_loss(self) -> Tensor:
        if isinstance(self._reg, tuple):
            self._reg = graph_regularization_loss(*self._reg)
        return self._reg


@dataclass
class _Terms:
    """What a forward pass reads that depends on the state alone, not on the windows."""

    static: Tensor  # the static graph, build_static_graph(M_s).values
    layers: list[tuple[Tensor, Tensor]]  # each gated layer's packed weight and bias;
    # layer 0's read the start map (temporal)
    residual: tuple[Tensor, Tensor]  # layer 0's residual weight and bias, read the same way
    dynamic: LearnerTerms | None  # the dynamic learner's; None without the dynamic graph

    def tensors(self) -> Iterator[Tensor]:
        d = self.dynamic
        learned = () if d is None else (*(d.gates or ()), *d.w_q, d.form, d.anchor)
        yield from (self.static, *itertools.chain(*self.layers), *self.residual, *learned)


class SDGLModel:
    def __init__(self, config: ModelConfig):
        retain_freed_heap()
        self.config = config
        rng = RngState(config.seed)
        self.dropout_rng = rng.substream(1)
        c = config.channels
        n, h = config.n_nodes, config.window

        self.embeddings = NodeEmbeddings.initialize(n, config.embed_dim, config.momentum, rng)
        mode = "full"
        if "no_ifm" in config.ablation:
            mode = "no_ifm"
        if "ifm_plus" in config.ablation:
            mode = "ifm_plus"
        self.dynamic = DynamicGraphLearner(
            n_nodes=n,
            window=h,
            dim=config.embed_dim,
            head_dim=config.resolved_head_dim(),
            n_heads=config.heads,
            dropout_keep=config.dropout_keep,
            rng=rng,
            mode=mode,
        )

        self.start_w = weight(rng, 1, (c, 1))
        self.start_b = zeros((c,))
        self.tcn_layers: list[GatedTemporalLayer] = []
        self.residual_w: list[Tensor] = []
        self.skip_w: list[Tensor] = []
        self.gcn_static: list[MixHopConv] = []
        self.gcn_dynamic: list[MixHopConv] = []
        dilations = [layer_dilation(config.growth, j) for j in range(1, config.layers + 1)]
        for dil in dilations:
            self.tcn_layers.append(GatedTemporalLayer(c, c, dil, rng))
            self.residual_w.append(weight(rng, c, (c, c)))
            self.skip_w.append(weight(rng, c, (c, c)))
            self.gcn_static.append(MixHopConv(c, config.depth, rng))
            self.gcn_dynamic.append(MixHopConv(c, config.depth, rng))

        # the steps of each feature map the forecast reads: see temporal.step_plan
        self.step_plan = step_plan(dilations)

        self.out_w1 = weight(rng, c, (c, c))
        self.out_b1 = zeros((c,))
        self.out_w2 = weight(rng, c, (config.horizon, c))
        self.out_b2 = zeros((config.horizon,))
        # the state buffer, its (name, tensor, view)s and the last untaped (bits, terms)
        state = self.state_tensors()
        self._state = np.empty(sum(t.size for t in state.values()))
        ends = itertools.accumulate(t.size for t in state.values())
        self._views = [(name, t, self._state[end - t.size:end].reshape(t.shape))
                       for (name, t), end in zip(state.items(), ends)]
        self._attach()
        self._kept: tuple[np.ndarray, _Terms] | None = None

    # -- state -----------------------------------------------------------------

    def state_tensors(self) -> dict[str, Tensor]:
        """The built tensors ``state_shapes`` names, in its order: what a
        checkpoint holds and training checks for non-finite values. The parts
        an ablation drops are built, so every later weight draws what it draws
        in the full model, but they are not trained, checked or saved."""
        built = {"embeddings.m_static": self.embeddings.m_static,
                 "embeddings.m_dynamic": self.embeddings.m_dynamic,
                 "start_w": self.start_w, "start_b": self.start_b, "out_w1": self.out_w1,
                 "out_b1": self.out_b1, "out_w2": self.out_w2, "out_b2": self.out_b2}
        parts = {"dynamic": self.dynamic}
        for j in range(self.config.layers):
            built[f"residual{j}.w"] = self.residual_w[j]
            built[f"skip{j}.w"] = self.skip_w[j]
            parts.update({f"tcn{j}": self.tcn_layers[j], f"gcn_static{j}": self.gcn_static[j],
                          f"gcn_dynamic{j}": self.gcn_dynamic[j]})
        for prefix, part in parts.items():
            built.update((f"{prefix}.{name}", t) for name, t in part.parameters().items())
        return {name: built[name] for name, _ in state_shapes(self.config)}

    def parameters(self) -> dict[str, Tensor]:
        """The state but the dynamic embeddings, which move only by momentum:
        the tensors ``SGD`` trains. A taped step gives each one a gradient."""
        params = self.state_tensors()
        params.pop("embeddings.m_dynamic", None)
        return params

    def _attach(self) -> None:
        """Point each state tensor's ``.data`` at its view of the state buffer,
        copying a rebound one's values into its view first; one rebound to
        another shape raises ``ShapeError`` naming it."""
        for name, t, view in self._views:
            if t.data is not view:
                if np.shape(t.data) != view.shape:
                    raise ad.ShapeError(f"state tensor {name!r} was rebound to shape "
                                        f"{np.shape(t.data)}, expected {view.shape}")
                view[...] = t.data
                t.data = view

    # -- forward ---------------------------------------------------------------

    def _terms(self, taped: bool) -> _Terms:
        """The ``_Terms`` of the current state.

        A taped pass derives and records them on every call, and drops the
        kept set. An untaped pass keeps the set it derives, read-only, with a
        copy of the state buffer's bits, and reuses it while the bits are the
        same: every writer edits the buffer in place, so each edit derives
        them again, and so does 0.0 becoming -0.0.
        """
        emb, learner = self.embeddings, self.dynamic
        dynamic = "no_dyadj" not in self.config.ablation
        if taped:
            # the step after a taped pass changes what a kept set was derived
            # from, so training keeps none
            self._kept = None
        else:
            bits = self._state.view(np.uint64)
            if self._kept is not None and (self._kept[0] == bits).all():
                return self._kept[1]
        # the static graph first and the start map's folds in layer order: each
        # tensor's gradient then sums its parts in the order the modules' own
        # calls record them
        static = build_static_graph(emb.m_static).values
        learned = learner.terms(emb) if dynamic else None
        layers = [layer.packed(*((self.start_w, self.start_b) if j == 0 else ()))
                  for j, layer in enumerate(self.tcn_layers)]
        # residual_w (start_w x + start_b) = (residual_w start_w) x + residual_w start_b
        residual = (ad.matmul(self.residual_w[0], self.start_w),
                    ad.reshape(ad.matmul(self.residual_w[0], ad.reshape(self.start_b, (-1, 1))),
                               (-1,)))
        terms = _Terms(static, layers, residual, learned)
        if not taped:
            for t in terms.tensors():
                t.data.flags.writeable = False
            self._kept = (bits.copy(), terms)
        return terms

    def forward(self, x: Tensor | np.ndarray, training: bool = False) -> ForwardResult:
        """x: (B, N, h) normalized windows.

        Without an active ``Tape`` the last layer stops after its skip map:
        its graph branches and residual feed nothing the result holds. Under
        a tape they run, so backward gives their parameters zero gradients.
        Under a tape the graph regularizer runs here, before the dynamic graph
        learner; without one it runs on the first read of the result's
        ``reg_loss`` (``ForwardResult``). The result is the same bit for bit
        either way. Without a tape, a batch of consecutive windows of one
        series takes the module docstring's span path, and its forecast
        differs from the per-window one only by rounding.
        """
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        cfg = self.config
        if x.data.ndim != 3 or x.shape[0] < 1 or x.shape[1:] != (cfg.n_nodes, cfg.window):
            raise ad.ShapeError(
                f"forward: expected (B, {cfg.n_nodes}, {cfg.window}) input with B >= 1, "
                f"got {x.shape}"
            )
        b, n, h = x.shape

        self._attach()
        taped = ad.tape_active()
        terms = self._terms(taped)
        static = terms.static
        # a training loss: recorded under a tape, and otherwise computed when read
        reg = graph_regularization_loss(x, static, cfg.gamma) if taped else (x, static, cfg.gamma)
        # every layer's branches propagate along both softmax graphs as built
        dynamic = None
        if "no_dyadj" not in cfg.ablation:
            dynamic = self.dynamic(x, self.embeddings, self.dropout_rng, training, terms.dynamic)

        # feature maps are time-major, (B, C, T, N): time is axis 2 and nodes the last
        # axis. Each keeps only the steps of its step_plan entry, which end at its last
        # step; the input's have stride 1, as the first layer's dilation is 1. The start
        # map is folded into the first layer and its residual, so the first hidden map
        # is the raw (B, 1, T, N) series.
        t_in = self.step_plan[0][1]
        s_out, t_out = self.step_plan[1]
        # the span path of the module docstring, where it computes fewer first-layer steps
        shared = (not taped and b + s_out * (t_out - 1) < b * t_out
                  and np.array_equal(x.data[1:, :, :-1], x.data[:-1, :, 1:]))
        if shared:
            # series step i is window i's first step, then come the last window's others;
            # the span starts at the first step the first layer reads
            span = np.concatenate([x.data[:, :, 0], x.data[-1, :, 1:].T])[h - t_in:]
            hidden = Tensor(span.reshape(1, 1, -1, n))
        else:
            hidden = ad.reshape(ad.transpose(ad.narrow(x, 2, h - t_in, t_in)), (b, 1, t_in, n))
        skip_total: Tensor | None = None
        for j, layer in enumerate(self.tcn_layers):
            (s_in, t_in), (s_out, t_out) = self.step_plan[j], self.step_plan[j + 1]
            # in units of the input's kept steps
            step = s_out // s_in
            on_span = shared and j == 0
            # on the span every output step is some window's kept step
            stride = 1 if on_span else step
            # layer 0's packed weights read the start map already
            temporal = layer(hidden, layer.filter_bank.dilation // s_in, stride,
                             terms.layers[j])
            # the output head reads only the last step, so each skip maps only that step
            if on_span:
                # window i's last kept step is span step i + step*(t_out - 1): one map
                # of those b steps, viewed as (b, C, 1, N)
                skip = Tensor(ad.channel_map(ad.narrow(temporal, 2, step * (t_out - 1), b),
                                             self.skip_w[j]).data.transpose(2, 1, 0, 3))
            else:
                skip = ad.channel_map(ad.narrow(temporal, 2, t_out - 1, 1), self.skip_w[j])
            skip_total = skip if skip_total is None else ad.add(skip_total, skip)
            # nothing reads the last layer's graph branches and residual: they run
            # only under a tape, whose backward gives their parameters zero gradients
            if j == cfg.layers - 1 and not taped:
                break

            res_w, res_b = terms.residual if j == 0 else (self.residual_w[j], None)
            res_in = ad.narrow(hidden, 2, t_in - 1 - step * (t_out - 1), temporal.shape[2],
                               stride)
            # (static mix-hop + residual) + dynamic mix-hop on every path; no name holds
            # the two terms, so neither outlives their sum
            hidden = ad.add(self.gcn_static[j].mix_hop(temporal, static),
                            ad.channel_map(res_in, res_w, res_b))
            if on_span and dynamic is not None:
                # z_0 + bias joins the span's sum, and each window runs Horner's rule
                z_0, hops = self.gcn_dynamic[j].hop_maps(temporal)
                hops = [_windows(z, b, t_out, step) for z in hops]
                hidden = ad.add(_windows(ad.add(hidden, z_0), b, t_out, step),
                                self.gcn_dynamic[j].horner(hops, dynamic.values))
            elif on_span:
                hidden = _windows(hidden, b, t_out, step)
            elif dynamic is not None:
                hidden = ad.add(hidden, self.gcn_dynamic[j].mix_hop(temporal, dynamic.values))

        h1 = ad.relu(ad.channel_map(skip_total, self.out_w1, self.out_b1))
        y = ad.channel_map(h1, self.out_w2, self.out_b2)  # (B, L, 1, N)
        y = ad.transpose(ad.reshape(y, (b, cfg.horizon, n)))  # (B, N, L)
        return ForwardResult(y, dynamic, reg)


def hybrid_loss(pred: Tensor, target: Tensor, reg_loss: Tensor, lambda_reg: float) -> Tensor:
    """Mean absolute prediction error plus weighted graph regularization."""
    if pred.shape != target.shape:
        raise ad.ShapeError(f"hybrid_loss: shape mismatch {pred.shape} vs {target.shape}")
    err = ad.sub(pred, target)
    mae = ad.mean_all(ad.mul(err, Tensor(np.sign(err.data))))  # |err|, gradient sign(err)
    return ad.add(mae, ad.scale(reg_loss, lambda_reg))


CLIP_NORM = 5.0  # largest global gradient norm an SGD step applies


class SGD:
    """Plain gradient descent with global gradient-norm clipping at CLIP_NORM.

    Every parameter must hold a gradient when ``step`` runs: a taped step
    gives one to each tensor of ``SDGLModel.parameters``. ``step`` updates each
    ``p.data`` in place, so an array taken from it before a step changes too.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> float:
        """Apply one clipped step; returns the global gradient norm before clipping."""
        sq = 0.0
        for p in self.params.values():
            sq += float((p.grad**2).sum())
        norm = math.sqrt(sq)
        coef = 1.0 if norm <= CLIP_NORM else CLIP_NORM / norm
        for p in self.params.values():
            p.data -= self.lr * coef * p.grad
        return norm


@dataclass
class TrainResult:
    model: SDGLModel
    scaler: Scaler
    history: list[dict]
    splits: SplitWindows
    seconds: dict[str, float]  # "windowing" and "train", on time.perf_counter


# glibc mallopt parameters, and the largest mmap threshold it accepts on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def retain_freed_heap() -> None:
    """Keep freed heap pages mapped between forward passes (glibc only).

    ``SDGLModel.__init__`` calls it, so trained, evaluated, predicted and
    checkpoint-loaded models all run under it. Each pass frees what it
    allocated (a train step's tape, hundreds of MB at N=100) and the next
    allocates the same sizes again. By default glibc gives the freed top of
    the heap back to the OS, and the next pass faults it back in page by
    page: a few percent of every step. This puts arrays up to 32 MB on the
    heap and keeps freed pages in the process. Where mallopt is missing or
    refuses the threshold, nothing changes.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return
    # fixing one threshold stops glibc's dynamic tuning of both, so the trim
    # threshold is raised only once the mmap threshold is in place
    if mallopt is not None and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def train(dataset: SeriesDataset, config: ModelConfig, log=None) -> TrainResult:
    """Run the joint training loop; deterministic given config.seed.

    Each step's forward draws the dynamic learner's dropout keep masks from
    ``model.dropout_rng`` (heads x B x N^2 entries; none under ``no_dyadj``
    or at keep 1), on the calling thread: ``train`` starts no thread.
    """
    model = SDGLModel(config)
    lam = 0.0 if "no_gloss" in config.ablation else config.lambda_reg
    started = time.perf_counter()
    splits = window_split(dataset, config.window, config.horizon)
    windowed = time.perf_counter()
    scaler = splits.scaler
    opt = SGD(model.parameters(), config.learning_rate)
    shuffle_rng = RngState(config.seed).substream(2)
    dynamic = "no_dyadj" not in config.ablation
    n_train, bs = len(splits.train), config.batch_size

    history: list[dict] = []
    last_finite = last_norm = None
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n_train)
        losses = []
        for i in range(0, n_train, bs):
            idx = order[i : i + bs]
            x = scaler.transform_windows(splits.train.inputs[idx])
            y = scaler.transform_windows(splits.train.targets[idx])
            # a diverging step is reported by the loss check, not by numpy warnings
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                t = Tape()
                with t:
                    result = model.forward(Tensor(x), training=True)
                    loss = hybrid_loss(result.prediction, Tensor(y), result.reg_loss, lam)
                value = loss.item()
                if not math.isfinite(value):
                    raise DivergenceError(
                        f"loss became non-finite at epoch {epoch + 1}, batch "
                        f"{i // bs + 1}; last finite loss was {last_finite}, "
                        f"last gradient norm before clipping was {last_norm}"
                    )
                last_finite = value
                opt.zero_grad()
                t.backward(loss)
                last_norm = opt.step()
                if dynamic:  # under no_dyadj nothing reads m_dynamic
                    momentum_update(model.embeddings)
            losses.append(value)
        # the loss check above sees each update only at the next step, so the
        # epoch's last update is checked by the validation forecast it gives
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            val = metrics(predict(model, scaler, splits.val.inputs), splits.val.targets)
        if not math.isfinite(val["MAE"]):
            raise DivergenceError(
                f"validation forecast became non-finite after the last step of epoch "
                f"{epoch + 1}; that step's loss was {last_finite}, its gradient norm "
                f"before clipping was {last_norm}"
            )
        # tanh and sigmoid saturate, so an infinite weight can leave both checks finite
        bad = next((name for name, tns in model.state_tensors().items()
                    if not np.isfinite(tns.data).all()), None)
        if bad is not None:
            raise DivergenceError(
                f"state tensor '{bad}' became non-finite in epoch {epoch + 1}")
        record = {
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)) if losses else None,
            "val_MAE": val["MAE"],
            "val_RMSE": val["RMSE"],
            "val_MAPE": val["MAPE"],
        }
        history.append(record)
        if log is not None:
            log(record)
    seconds = {"windowing": windowed - started, "train": time.perf_counter() - windowed}
    return TrainResult(model=model, scaler=scaler, history=history, splits=splits,
                       seconds=seconds)


EVAL_BATCH = 128  # windows per ``forward`` call in ``predict``


def evaluate(model: SDGLModel, scaler: Scaler, windows: WindowBatch) -> dict:
    """Per-horizon and horizon-averaged metrics of ``predict``, in original units.

    CORR correlates each node over the windows, at step k for
    ``per_horizon[k]`` and over all steps for ``average``. The L steps are
    scored as L groups in one ``group_metrics`` call, each equal to
    ``metrics(pred[:, :, k:k + 1], truth[:, :, k:k + 1])``, and the average
    is ``metrics(pred, truth)``.
    """
    pred = predict(model, scaler, windows.inputs)
    truth = windows.targets
    # (B, N, L) -> (L, N, B): step k's group holds each node's windows
    per_horizon = group_metrics(pred.transpose(2, 1, 0), truth.transpose(2, 1, 0))
    return {"per_horizon": per_horizon, "average": metrics(pred, truth)}


def predict(model: SDGLModel, scaler: Scaler, x: np.ndarray) -> np.ndarray:
    """Forecast from a raw-unit (N, h) or (B, N, h) window, in raw units.

    Runs ``SDGLModel.forward`` on consecutive slices of EVAL_BATCH windows,
    so only one slice is ever normalized at a time, and a slice of consecutive
    windows takes the span path of the module docstring.
    """
    x = np.asarray(x, dtype=np.float64)
    n, h = model.config.n_nodes, model.config.window
    if x.ndim not in (2, 3) or x.shape[-2:] != (n, h):
        raise ad.ShapeError(f"predict: the checkpoint's {n} nodes need a ({n}, {h}) or "
                            f"(B, {n}, {h}) window, got shape {x.shape}")
    single = x.ndim == 2
    if single:
        x = x[None]
    slices = []
    # no windows still make one (empty) slice, which ``forward`` rejects by name
    for i in range(0, max(len(x), 1), EVAL_BATCH):
        out = model.forward(Tensor(scaler.transform_windows(x[i : i + EVAL_BATCH])))
        slices.append(scaler.inverse_windows(out.prediction.data))
    y = np.concatenate(slices)
    return y[0] if single else y
