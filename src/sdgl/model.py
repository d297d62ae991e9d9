"""Full network assembly, joint training under the hybrid loss, forecasting.

Layer stacking per forward pass: build the static adjacency and per-window
dynamic adjacencies, then run K rounds of gated temporal convolution followed
by dual graph convolution (static + dynamic branch) with residual connections,
accumulating skip outputs into the output module. Training minimizes
lambda * graph regularization + L1 prediction loss; after every optimizer
step the dynamic embeddings follow the static ones by momentum only.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape
from .data import Scaler, SeriesDataset, SplitWindows, WindowBatch, metrics, window_split
from .dynamic_graph import DynamicGraphLearner
from .graph_conv import MixHopConv, fuse_branches
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
from .temporal import GatedTemporalLayer, MAX_KERNEL, layer_dilation, receptive_field

ABLATION_FLAGS = ("no_gloss", "no_dyadj", "no_ifm", "ifm_plus")


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass
class ModelConfig:
    """Every hyperparameter the architecture leaves open."""

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

    def resolved_head_dim(self) -> int:
        if self.head_dim is not None:
            return self.head_dim
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim ({self.embed_dim}) must be divisible by heads ({self.heads}) "
                "when head_dim is left unset"
            )
        return self.embed_dim // self.heads

    def validate(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError(f"n_nodes: need >= 2, got {self.n_nodes}")
        if self.growth <= 1:
            raise ConfigError(f"growth: dilation rate must exceed 1, got {self.growth}")
        if self.layers < 1:
            raise ConfigError(f"layers: need >= 1, got {self.layers}")
        rf = receptive_field(MAX_KERNEL, self.growth, self.layers)
        if self.window < rf:
            raise ConfigError(
                f"window: input length {self.window} shorter than receptive field {rf} "
                f"(c={MAX_KERNEL}, q={self.growth}, k={self.layers})"
            )
        if self.horizon < 1:
            raise ConfigError(f"horizon: need >= 1, got {self.horizon}")
        if self.channels % 4 != 0:
            raise ConfigError(f"channels: must be divisible by 4, got {self.channels}")
        if self.depth < 1:
            raise ConfigError(f"depth: need >= 1, got {self.depth}")
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
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        for flag in self.ablation:
            if flag not in ABLATION_FLAGS:
                raise ConfigError(f"ablation: unknown flag {flag!r} (choices: {ABLATION_FLAGS})")
        if "no_ifm" in self.ablation and "ifm_plus" in self.ablation:
            raise ConfigError("ablation: no_ifm and ifm_plus exclude each other")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim: need >= 1, got {self.embed_dim}")
        if self.heads < 1:
            raise ConfigError(f"heads: need >= 1, got {self.heads}")
        if self.head_dim is not None and self.head_dim < 1:
            raise ConfigError(f"head_dim: need >= 1, got {self.head_dim}")
        self.resolved_head_dim()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ablation"] = list(self.ablation)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["ablation"] = tuple(d.get("ablation", ()))
        return cls(**d)


@dataclass
class ForwardResult:
    prediction: Tensor  # (B, N, L), normalized units
    static_graph: AdjacencyMatrix
    dynamic_graphs: AdjacencyMatrix | None  # values (B, N, N)
    reg_loss: Tensor  # scalar graph-regularization term


class SDGLModel:
    def __init__(self, config: ModelConfig):
        config.validate()
        retain_freed_heap()
        self.config = config
        rng = RngState(config.seed)
        self.dropout_rng = rng.spawn(1)
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
        self._layer_lengths: list[int] = []
        t = h
        for j in range(1, config.layers + 1):
            dil = layer_dilation(config.growth, j)
            self.tcn_layers.append(GatedTemporalLayer(c, c, dil, rng))
            self.residual_w.append(weight(rng, c, (c, c)))
            self.skip_w.append(weight(rng, c, (c, c)))
            self.gcn_static.append(MixHopConv(c, config.depth, rng))
            self.gcn_dynamic.append(MixHopConv(c, config.depth, rng))
            t -= dil * (MAX_KERNEL - 1)
            self._layer_lengths.append(t)
        self.final_length = t

        self.out_w1 = weight(rng, c, (c, c))
        self.out_b1 = zeros((c,))
        self.out_w2 = weight(rng, c, (config.horizon, c))
        self.out_b2 = zeros((config.horizon,))
        self.step_count = 0

    # -- parameter registry ---------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """All gradient-trained tensors; the dynamic embeddings are excluded
        on purpose (they move only by momentum)."""
        out: dict[str, Tensor] = {"embeddings.m_static": self.embeddings.m_static}
        for name, tns in self.dynamic.parameters().items():
            out[f"dynamic.{name}"] = tns
        out["start_w"] = self.start_w
        out["start_b"] = self.start_b
        for j, layer in enumerate(self.tcn_layers):
            for name, tns in layer.parameters().items():
                out[f"tcn{j}.{name}"] = tns
            out[f"residual{j}.w"] = self.residual_w[j]
            out[f"skip{j}.w"] = self.skip_w[j]
            for name, tns in self.gcn_static[j].parameters().items():
                out[f"gcn_static{j}.{name}"] = tns
            for name, tns in self.gcn_dynamic[j].parameters().items():
                out[f"gcn_dynamic{j}.{name}"] = tns
        out["out_w1"] = self.out_w1
        out["out_b1"] = self.out_b1
        out["out_w2"] = self.out_w2
        out["out_b2"] = self.out_b2
        return out

    def state_tensors(self) -> dict[str, Tensor]:
        """Everything that must persist in a checkpoint."""
        out = dict(self.parameters())
        out["embeddings.m_dynamic"] = self.embeddings.m_dynamic
        return out

    # -- forward ---------------------------------------------------------------

    def forward(self, x: Tensor | np.ndarray, training: bool = False) -> ForwardResult:
        """x: (B, N, h) normalized windows."""
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        b, n, h = x.shape
        cfg = self.config
        if n != cfg.n_nodes or h != cfg.window:
            raise ad.ShapeError(
                f"forward: expected (B, {cfg.n_nodes}, {cfg.window}) input, got {x.shape}"
            )

        static = build_static_graph(self.embeddings.m_static)
        reg = graph_regularization_loss(x, static, cfg.gamma)
        dynamic = None
        if "no_dyadj" not in cfg.ablation:
            dynamic = self.dynamic(x, self.embeddings, self.dropout_rng, training)

        hidden = ad.channel_map(ad.reshape(x, (b, 1, n, h)), self.start_w, self.start_b)
        skip_total: Tensor | None = None
        for j, layer in enumerate(self.tcn_layers):
            t_out = self._layer_lengths[j]
            temporal = layer(hidden)
            skip = ad.channel_map(temporal, self.skip_w[j])
            if t_out > self.final_length:
                skip = ad.narrow(skip, 3, t_out - self.final_length, self.final_length)
            skip_total = skip if skip_total is None else ad.add(skip_total, skip)

            z_static = self.gcn_static[j](temporal, static)
            z_dynamic = self.gcn_dynamic[j](temporal, dynamic) if dynamic is not None else None
            fused = fuse_branches(z_static, z_dynamic)

            res_in = ad.narrow(hidden, 3, hidden.shape[3] - t_out, t_out)
            hidden = ad.add(fused, ad.channel_map(res_in, self.residual_w[j]))

        last = ad.narrow(skip_total, 3, self.final_length - 1, 1)
        h1 = ad.relu(ad.channel_map(last, self.out_w1, self.out_b1))
        y = ad.channel_map(h1, self.out_w2, self.out_b2)  # (B, L, N, 1)
        y = ad.transpose(ad.reshape(y, (b, cfg.horizon, n)))  # (B, N, L)
        return ForwardResult(prediction=y, static_graph=static, dynamic_graphs=dynamic, reg_loss=reg)


def hybrid_loss(pred: Tensor, target: Tensor, reg_loss: Tensor, lambda_reg: float) -> Tensor:
    """Mean absolute prediction error plus weighted graph regularization."""
    if pred.shape != target.shape:
        raise ad.ShapeError(f"hybrid_loss: shape mismatch {pred.shape} vs {target.shape}")
    mae = ad.mean_all(ad.absolute(ad.sub(pred, target)))
    return ad.add(mae, ad.scale(reg_loss, lambda_reg))


class SGD:
    """Plain gradient descent with global gradient-norm clipping."""

    def __init__(self, params: dict[str, Tensor], lr: float, clip_norm: float = 5.0):
        self.params = params
        self.lr = lr
        self.clip_norm = clip_norm

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        sq = 0.0
        for p in self.params.values():
            if p.grad is not None:
                sq += float((p.grad**2).sum())
        norm = math.sqrt(sq)
        coef = 1.0 if norm <= self.clip_norm else self.clip_norm / norm
        for p in self.params.values():
            if p.grad is not None:
                p.data = p.data - self.lr * coef * p.grad


@dataclass
class TrainResult:
    model: SDGLModel
    scaler: Scaler
    history: list[dict]
    splits: SplitWindows


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
    """Run the joint training loop; deterministic given config.seed."""
    model = SDGLModel(config)
    lam = 0.0 if "no_gloss" in config.ablation else config.lambda_reg
    splits = window_split(dataset, config.window, config.horizon)
    scaler = splits.scaler
    opt = SGD(model.parameters(), config.learning_rate)
    shuffle_rng = RngState(config.seed).spawn(2)

    history: list[dict] = []
    last_finite = None
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(splits.train))
        losses = []
        for i in range(0, len(order), config.batch_size):
            idx = order[i : i + config.batch_size]
            x = scaler.transform_windows(splits.train.inputs[idx])
            y = scaler.transform_windows(splits.train.targets[idx])
            t = Tape()
            with t:
                result = model.forward(Tensor(x), training=True)
                loss = hybrid_loss(result.prediction, Tensor(y), result.reg_loss, lam)
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(
                    f"loss became non-finite at epoch {epoch + 1}; "
                    f"last finite loss was {last_finite}"
                )
            last_finite = value
            opt.zero_grad()
            t.backward(loss)
            opt.step()
            momentum_update(model.embeddings)
            model.step_count += 1
            losses.append(value)
        val = evaluate(model, scaler, splits.val)["average"]
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
    return TrainResult(model=model, scaler=scaler, history=history, splits=splits)


def evaluate(model: SDGLModel, scaler: Scaler, windows: WindowBatch,
             batch_size: int = 128) -> dict:
    """Per-horizon and horizon-averaged metrics of ``predict``, in original units.

    Scores ``predict`` on consecutive slices of ``batch_size`` windows, so only
    one slice is ever normalized at a time. CORR correlates each node over the
    windows, at step k for ``per_horizon[k]`` and over all steps for ``average``.
    """
    pred = np.concatenate([predict(model, scaler, windows.inputs[i : i + batch_size])
                           for i in range(0, len(windows), batch_size)], axis=0)
    truth = windows.targets
    per_horizon = [metrics(pred[:, :, k:k + 1], truth[:, :, k:k + 1]) for k in range(pred.shape[2])]
    average = metrics(pred, truth)
    return {"per_horizon": per_horizon, "average": average}


def predict(model: SDGLModel, scaler: Scaler, x: np.ndarray) -> np.ndarray:
    """Forecast from a raw-unit (N, h) or (B, N, h) window, in raw units."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.shape[1] != model.config.n_nodes:
        raise ad.ShapeError(
            f"predict: checkpoint has {model.config.n_nodes} nodes, input has {x.shape[1]}"
        )
    out = model.forward(Tensor(scaler.transform_windows(x)), training=False)
    y = scaler.inverse_windows(out.prediction.data)
    return y[0] if single else y
