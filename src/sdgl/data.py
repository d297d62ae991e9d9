"""Dataset ingestion, windowing, normalization, metrics and synthetic data.

The synthetic generator plants a known dependency graph and drives a linear
recursion over it, optionally switching a subset of edges to a secondary set
during scheduled intervals. The planted structures are returned so graph
recovery can be scored against ground truth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rng import RngState


class ParseError(ValueError):
    """Malformed input table; message carries the offending coordinates."""


class GenerationError(ValueError):
    """Synthetic spec produces unbounded trajectories."""


@dataclass
class SeriesDataset:
    """T_total x N matrix of observations, one node per column."""

    values: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] < 2:
            raise ParseError(f"dataset must be T x N with N >= 2, got {self.values.shape}")
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            rows = sorted(set(bad[:, 0].tolist()))
            raise ParseError(f"non-finite values in rows {rows[:10]}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]


@dataclass
class WindowBatch:
    """Sliding windows paired with their targets."""

    inputs: np.ndarray  # (B, N, h)
    targets: np.ndarray  # (B, N, L)
    starts: np.ndarray  # window start indices into the source split

    def __len__(self) -> int:
        return self.inputs.shape[0]


class Scaler:
    """Per-node z-score transform with the std floored at 1e-8."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.maximum(np.asarray(std, dtype=np.float64), 1e-8)

    @classmethod
    def fit(cls, values: np.ndarray) -> "Scaler":
        return cls(values.mean(axis=0), values.std(axis=0))

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean

    def transform_windows(self, windows: np.ndarray) -> np.ndarray:
        """Apply to (B, N, ...) arrays where axis 1 is the node axis."""
        return (windows - self.mean[None, :, None]) / self.std[None, :, None]

    def inverse_windows(self, windows: np.ndarray) -> np.ndarray:
        return windows * self.std[None, :, None] + self.mean[None, :, None]


def load_csv(path) -> SeriesDataset:
    """Read a UTF-8 CSV with a header row of node names, rows = time steps."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        n_cols = len(header)
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != n_cols:
                raise ParseError(
                    f"{path}: ragged row at line {line_no} "
                    f"({len(raw)} cells, expected {n_cols})"
                )
            parsed = []
            for col, cell in enumerate(raw, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell at row {line_no - 1}, column {col}: {cell!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return SeriesDataset(np.array(rows), name=str(path))


def save_csv(path, values: np.ndarray, header: list[str] | None = None) -> None:
    """Write a matrix with 17 significant digits so parsing round-trips."""
    values = np.asarray(values, dtype=np.float64)
    if header is None:
        header = [f"node_{i}" for i in range(values.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in values:
            writer.writerow([f"{v:.17g}" for v in row])


def make_windows(values: np.ndarray, h: int, horizon: int) -> WindowBatch:
    """All stride-1 windows of a (T, N) split: T - h - L + 1 of them.

    ``inputs`` and ``targets`` are read-only views of ``values``, not copies.
    """
    t_total, _ = values.shape
    count = t_total - h - horizon + 1
    if count < 1:
        raise ParseError(
            f"split of length {t_total} too short for window {h} + horizon {horizon}"
        )
    return WindowBatch(
        inputs=sliding_window_view(values[: t_total - horizon], h, axis=0),
        targets=sliding_window_view(values[h:], horizon, axis=0),
        starts=np.arange(count),
    )


@dataclass
class SplitWindows:
    train: WindowBatch
    val: WindowBatch
    test: WindowBatch
    scaler: Scaler
    boundaries: tuple[int, int]


def window_split(
    ds: SeriesDataset,
    h: int,
    horizon: int,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> SplitWindows:
    """Chronological split, then sliding windows within each part.

    The scaler is fit on the training rows only.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ParseError(f"split ratios must sum to 1, got {ratios}")
    t = ds.n_steps
    i1 = int(t * ratios[0])
    i2 = int(t * (ratios[0] + ratios[1]))
    parts = {"train": ds.values[:i1], "val": ds.values[i1:i2], "test": ds.values[i2:]}
    for name, part in parts.items():
        if part.shape[0] < h + horizon:
            raise ParseError(
                f"{name} split has {part.shape[0]} steps, needs >= {h + horizon}"
            )
    scaler = Scaler.fit(parts["train"])
    return SplitWindows(
        train=make_windows(parts["train"], h, horizon),
        val=make_windows(parts["val"], h, horizon),
        test=make_windows(parts["test"], h, horizon),
        scaler=scaler,
        boundaries=(i1, i2),
    )


def metrics(pred: np.ndarray, truth: np.ndarray) -> dict:
    """MAE, RMSE, MAPE, RSE and CORR between same-shape arrays.

    MAPE averages over nonzero targets only and is None when every target is
    zero. CORR averages over nodes (axis -2) each node's Pearson correlation
    over its other entries; zero-variance nodes are excluded, None if all are.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ParseError(f"metric shapes differ: {pred.shape} vs {truth.shape}")
    err = pred - truth
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err**2).mean()))
    nz = truth != 0
    mape = float((np.abs(err[nz]) / np.abs(truth[nz])).mean()) if nz.any() else None
    denom = np.sqrt(((truth - truth.mean()) ** 2).sum())
    rse = float(np.sqrt((err**2).sum()) / denom) if denom > 0 else None

    rows = pred.shape[-2] if pred.ndim >= 2 else 1
    p2 = np.moveaxis(np.atleast_2d(pred), -2, 0).reshape(rows, -1)
    t2 = np.moveaxis(np.atleast_2d(truth), -2, 0).reshape(rows, -1)
    pc = p2 - p2.mean(axis=1, keepdims=True)
    tc = t2 - t2.mean(axis=1, keepdims=True)
    sp, st = (pc * pc).sum(axis=1), (tc * tc).sum(axis=1)
    keep = (sp > 0) & (st > 0)
    r = (pc * tc).sum(axis=1)[keep] / (np.sqrt(sp[keep]) * np.sqrt(st[keep]))
    corr = float(np.clip(r, -1.0, 1.0).mean()) if keep.any() else None
    return {"MAE": mae, "RMSE": rmse, "MAPE": mape, "RSE": rse, "CORR": corr}


@dataclass
class PlantedGraphSpec:
    """Parameters of the synthetic coupled-dynamics generator."""

    n_nodes: int = 10
    edge_prob: float = 0.2
    alpha: float = 0.7
    seasonal_period: int = 24
    noise_std: float = 0.1
    # (start, end) step intervals during which the secondary edges drive
    # the dynamics instead of the switched-out primary subset
    switch_intervals: tuple[tuple[int, int], ...] = ()
    switch_fraction: float = 0.5

    def validate(self) -> None:
        if self.n_nodes < 2:
            raise GenerationError(f"need at least 2 nodes, got {self.n_nodes}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise GenerationError(f"edge probability must be in [0,1], got {self.edge_prob}")
        if not 0.0 <= self.alpha < 1.0:
            raise GenerationError(
                f"coupling alpha must be in [0,1) to keep trajectories bounded, got {self.alpha}"
            )
        if self.seasonal_period < 1:
            raise GenerationError(f"seasonal period must be >= 1, got {self.seasonal_period}")
        if self.noise_std < 0:
            raise GenerationError(f"noise std must be >= 0, got {self.noise_std}")
        for start, end in self.switch_intervals:
            if start >= end:
                raise GenerationError(f"switch interval {start}:{end} is empty; need start < end")


@dataclass
class SynthResult:
    dataset: SeriesDataset
    adjacency: np.ndarray  # binary primary edges, symmetric, zero diagonal
    secondary_adjacency: np.ndarray | None
    schedule: tuple[tuple[int, int], ...]


def _random_symmetric_edges(n: int, prob: float, rng: RngState) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < prob:
                a[i, j] = a[j, i] = 1.0
    return a


def _dynamics_matrix(edges: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * row-normalized (edges + self loops); spectral radius < 1."""
    with_self = edges + np.eye(edges.shape[0])
    p = with_self / with_self.sum(axis=1, keepdims=True)
    m = alpha * p
    radius = max(abs(np.linalg.eigvals(m)))
    if radius >= 1.0:
        raise GenerationError(f"unstable dynamics: spectral radius {radius:.3f} >= 1")
    return m


def synth_generate(spec: PlantedGraphSpec, t_total: int, seed: int) -> SynthResult:
    """Simulate x[t+1] = alpha*P*x[t] + seasonal(t) + noise over a planted graph.

    During ``switch_intervals`` a secondary edge set replaces a random
    ``switch_fraction`` of the primary edges (plus replacement edges drawn
    over previously unconnected pairs), giving a short-term pattern distinct
    from the long-term one.
    """
    spec.validate()
    if t_total < 1:
        raise GenerationError(f"need at least 1 time step, got {t_total}")
    rng = RngState(seed)
    n = spec.n_nodes
    edges = _random_symmetric_edges(n, spec.edge_prob, rng)
    if edges.sum() == 0:  # guarantee at least one edge to recover
        i, j = 0, 1
        edges[i, j] = edges[j, i] = 1.0

    secondary = None
    if spec.switch_intervals:
        secondary = edges.copy()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if edges[i, j] > 0]
        non_pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if edges[i, j] == 0]
        k = max(1, int(round(spec.switch_fraction * len(pairs))))
        drop_idx = rng.permutation(len(pairs))[:k]
        add_idx = rng.permutation(len(non_pairs))[: min(k, len(non_pairs))]
        for idx in drop_idx:
            i, j = pairs[idx]
            secondary[i, j] = secondary[j, i] = 0.0
        for idx in add_idx:
            i, j = non_pairs[idx]
            secondary[i, j] = secondary[j, i] = 1.0

    m_primary = _dynamics_matrix(edges, spec.alpha)
    m_secondary = _dynamics_matrix(secondary, spec.alpha) if secondary is not None else None

    # seasonal forcing is shared across nodes so that, decoupled, every node
    # carries the identical pure-seasonal trajectory
    amp = float(rng.uniform(0.5, 1.5))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    omega = 2 * np.pi / spec.seasonal_period

    def in_switch(t: int) -> bool:
        return any(a <= t < b for a, b in spec.switch_intervals)

    x = np.zeros((t_total, n))
    x[0] = rng.normal(n)
    for t in range(t_total - 1):
        m = m_secondary if (m_secondary is not None and in_switch(t)) else m_primary
        seasonal = amp * np.sin(omega * (t + 1) + phase)
        noise = rng.normal(n, spec.noise_std) if spec.noise_std > 0 else 0.0
        x[t + 1] = m @ x[t] + seasonal + noise
    if not np.all(np.isfinite(x)):
        raise GenerationError("trajectory diverged despite spectral-radius guard")
    return SynthResult(
        dataset=SeriesDataset(x, name=f"synth-n{n}-seed{seed}"),
        adjacency=edges,
        secondary_adjacency=secondary,
        schedule=tuple(spec.switch_intervals),
    )


def graph_recovery_score(learned: np.ndarray, truth: np.ndarray) -> float | None:
    """ROC AUC of the learned off-diagonal weights against binary truth edges.

    Returns None (undefined) when the truth has no edges or only edges.
    """
    learned = np.asarray(learned, dtype=np.float64)
    truth = np.asarray(truth)
    if learned.shape != truth.shape:
        raise ParseError(f"adjacency shapes differ: {learned.shape} vs {truth.shape}")
    n = learned.shape[0]
    off = ~np.eye(n, dtype=bool)
    scores = learned[off]
    labels = truth[off] > 0
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # Mann-Whitney U via midranks (handles ties)
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
    rank_sum = ranks[labels].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
