"""Dataset ingestion, windowing, normalization, metrics and synthetic data.

The synthetic generator plants a known dependency graph and drives a linear
recursion over it, optionally switching a subset of edges to a secondary set
during scheduled intervals. The planted structures are returned so graph
recovery can be scored against ground truth.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rng import RngState


class ParseError(ValueError):
    """Malformed input table; message carries the offending coordinates."""


class _NonFinite(ParseError):
    """Rows hold NaN or infinity; ``rows`` are the first ten, counted from 0."""

    def __init__(self, rows: list[int]):
        super().__init__(f"non-finite values in rows {rows}")
        self.rows = rows


class GenerationError(ValueError):
    """Synthetic spec produces unbounded trajectories."""


@dataclass
class SeriesDataset:
    """T_total x N matrix of observations, one node per column."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] < 2:
            raise ParseError(f"dataset must be T x N with N >= 2, got {self.values.shape}")
        bad = np.flatnonzero(~np.isfinite(self.values).all(axis=1))
        if bad.size:
            raise _NonFinite(bad[:10].tolist())

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

    def transform_windows(self, windows: np.ndarray) -> np.ndarray:
        """Apply to (B, N, ...) arrays where axis 1 is the node axis."""
        return (windows - self.mean[None, :, None]) / self.std[None, :, None]

    def inverse_windows(self, windows: np.ndarray) -> np.ndarray:
        return windows * self.std[None, :, None] + self.mean[None, :, None]


def load_csv(path) -> SeriesDataset:
    """Read a UTF-8 CSV with a header row of node names, rows = time steps.

    numpy's C reader streams the data rows into the array. A file it rejects,
    or one with a line ``_plain_lines`` does not pass, is read again by
    ``_read_rows``, a ``csv`` + ``float`` loop over the cells that names the
    fault or reads what numpy will not. Either way a file gives the same array,
    bit for bit, or the same ``ParseError``.
    """
    values = _read_plain(path)
    if values is None:
        values = _read_rows(path)
    try:
        return SeriesDataset(values)
    except _NonFinite as exc:
        rows = [row + 1 for row in exc.rows]
        raise ParseError(f"{path}: non-finite values in rows {rows} "
                         f"(data rows, counted from 1)") from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


# What a data line may hold for numpy's reader to read it: numerals (with
# nan and inf or infinity in any case), commas, spaces, tabs and line ends.
# Both readers then split a line into the same cells and read each with the
# same C routine, ``PyOS_string_to_double``. Outside this set they can part:
# numpy reads "2\x1c" as 2.0 where ``float`` rejects it, ``float`` reads
# "1_000" where numpy does not, and a quote can carry a cell over lines, past
# csv's field size limit.
_PLAIN = b"0123456789+-.eE,nNaAiIfFtTyY \t\r\n"


class _NotPlain(Exception):
    """A data line that only ``_read_rows`` reads as ``csv`` does."""


def _plain_lines(lines):
    """Pass ``lines`` on, raising ``_NotPlain`` at the first one numpy may misread.

    A line longer than the field size limit may hold a cell ``csv`` rejects,
    and a line of only spaces and tabs is one blank cell to ``csv``.
    """
    limit = csv.field_size_limit()
    for line in lines:
        if (len(line) > limit or line.encode().translate(None, _PLAIN)
                or (line.isspace() and line.strip("\r\n"))):
            raise _NotPlain
        yield line


def _read_plain(path) -> np.ndarray | None:
    """The data rows as numpy's C reader reads them; None where ``_read_rows`` must."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            n_cols = len(next(csv.reader(fh)))
            with warnings.catch_warnings():  # a file of blank lines: "input contained no data"
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(_plain_lines(fh), delimiter=",", comments=None, ndmin=2)
    except (_NotPlain, ValueError, csv.Error, StopIteration):
        return None
    # no rows, or rows of another width than the header: the loop names the fault
    return values if len(values) and values.shape[1] == n_cols else None


def _read_rows(path) -> np.ndarray:
    """The data rows read cell by cell with ``csv`` and ``float``.

    Raises ``ParseError`` at the first fault, naming the file and the place.
    """
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
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
                        raise ParseError(f"{path}: non-numeric cell at row {line_no - 1}, "
                                         f"column {col}: {cell!r}") from None
                rows.append(parsed)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        except csv.Error as exc:  # an over-long field; before Python 3.11 also a NUL byte
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: cannot decode byte "
                             f"0x{exc.object[exc.start]:02x} ({exc.reason})") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)


# set inside ``_in_place``
_IN_PLACE: ContextVar[bool] = ContextVar("_IN_PLACE", default=False)


@contextmanager
def _in_place():
    """Within the block, ``_replacing`` opens its path itself: the caller
    (``cli._write_outputs``) hands each writer a temporary it renames."""
    token = _IN_PLACE.set(True)
    try:
        yield
    finally:
        _IN_PLACE.reset(token)


@contextmanager
def _replacing(path, mode: str, **open_args):
    """Open a temporary file next to ``path`` that replaces it on success.

    The temporary is ``.<name>.tmp`` in the same directory, so ``os.replace``
    swaps it in whole. A write that raises leaves ``path`` as it was and
    removes the temporary. Within ``_in_place`` it opens ``path`` itself.
    """
    path = Path(path)
    if _IN_PLACE.get():
        with open(path, mode, **open_args) as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_csv(path, values: np.ndarray) -> None:
    """Write a matrix under a ``node_0 .. node_{N-1}`` header.

    Values get 17 significant digits, so parsing round-trips. Lines end in CRLF.
    """
    values = np.asarray(values, dtype=np.float64)
    with _replacing(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, values, fmt="%.17g", delimiter=",", newline="\r\n", comments="",
                   header=",".join(f"node_{i}" for i in range(values.shape[1])))


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


def window_split(ds: SeriesDataset, h: int, horizon: int) -> SplitWindows:
    """Chronological 6:2:2 split, then sliding windows within each part.

    The scaler is fit on the training rows only.
    """
    t = ds.n_steps
    i1, i2 = int(t * 0.6), int(t * 0.8)
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
    )


def metrics(pred: np.ndarray, truth: np.ndarray) -> dict:
    """MAE, RMSE, MAPE, RSE and CORR between same-shape arrays.

    MAPE averages over nonzero targets only and is None when every target is
    zero. RSE is None when the target does not vary. CORR averages over nodes
    (axis -2) each node's Pearson correlation over its other entries;
    constant nodes are excluded, None if all are.

    This is the one-group call of ``group_metrics``. A node's row holds its
    entries at the last axis' first index, then at its second, and so on:
    of the orders, the cheapest to gather from a (windows, nodes, steps) array.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ParseError(f"metric shapes differ: {pred.shape} vs {truth.shape}")
    # (entries, nodes, last axis) -> one group of (nodes, last axis, entries)
    return group_metrics(*(a.reshape(-1, *a.shape[-2:]).transpose(1, 2, 0)[None]
                           for a in map(np.atleast_2d, (pred, truth))))[0]


def group_metrics(pred: np.ndarray, truth: np.ndarray) -> list[dict]:
    """``metrics`` of each group of (G, N, ...) arrays, in one pass.

    Node n of group g has the entries ``pred[g, n]``. Both arrays are copied
    into node-major (G, N, E) buffers, and every sum, mean and dot product
    runs along one contiguous row of E entries, then over a group's N rows.
    So each group's figures are bit for bit those of a one-group call on its
    slice. The prediction's buffer holds the error, then ``pred`` again; both
    are centred in place for CORR. Besides the two, only a boolean mask of
    the nonzero targets is as large as the inputs.
    """
    shape = np.shape(pred)
    if shape != np.shape(truth):
        raise ParseError(f"metric shapes differ: {shape} vs {np.shape(truth)}")
    n_groups, n_nodes = shape[:2]
    n_entries = math.prod(shape[2:])
    size = n_nodes * n_entries
    p_buf, t_buf = np.empty(shape), np.empty(shape)
    np.copyto(p_buf, pred)
    np.copyto(t_buf, truth)
    p, t = (a.reshape(n_groups, n_nodes, n_entries) for a in (p_buf, t_buf))

    # a constant row can center to tiny nonzero values when its mean does not
    # round back to the constant, so CORR and RSE test the range
    p_range = np.ptp(p, axis=-1)
    t_max, t_min = t.max(axis=-1), t.min(axis=-1)
    t_varies = t_max.max(axis=-1) > t_min.min(axis=-1)

    np.subtract(p, t, out=p)  # the error
    sse = np.add.reduce(_row_dot(p, p), axis=-1)
    abs_sum = np.add.reduce(np.add.reduce(np.abs(p, out=p), axis=-1), axis=-1)
    nz = t != 0
    np.divide(p, t, out=p, where=nz)
    ape_sum = np.add.reduce(np.add.reduce(np.abs(p, out=p), axis=-1, where=nz), axis=-1)
    n_nonzero = np.count_nonzero(nz, axis=(1, 2))

    np.copyto(p_buf, pred)
    p_mean = np.add.reduce(p, axis=-1) / n_entries
    t_mean = np.add.reduce(t, axis=-1) / n_entries
    p -= p_mean[..., None]
    t -= t_mean[..., None]
    sp, st, spt = _row_dot(p, p), _row_dot(t, t), _row_dot(p, t)
    keep = (p_range > 0) & (t_max > t_min)
    r = np.divide(spt, np.sqrt(sp) * np.sqrt(st), out=np.zeros_like(spt), where=keep)
    r_sum = np.add.reduce(np.clip(r, -1.0, 1.0, out=r), axis=-1)
    n_kept = np.count_nonzero(keep, axis=-1)
    # the target's squared deviation from its group mean, row by row:
    # a row's own plus its length times its mean's offset from the group's
    t_dev = t_mean - (np.add.reduce(t_mean, axis=-1) / n_nodes)[:, None]
    sst = np.add.reduce(st + n_entries * t_dev * t_dev, axis=-1)

    return [{"MAE": float(abs_sum[g] / size),
             "RMSE": float(np.sqrt(sse[g] / size)),
             "MAPE": float(ape_sum[g] / n_nonzero[g]) if n_nonzero[g] else None,
             "RSE": float(np.sqrt(sse[g]) / np.sqrt(sst[g])) if t_varies[g] else None,
             "CORR": float(r_sum[g] / n_kept[g]) if n_kept[g] else None}
            for g in range(n_groups)]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each last-axis row of ``a`` with that of ``b``.

    ``matmul`` of a (1, E) row by an (E, 1) column hands each row whole to
    one dot product, so a row's result does not depend on where it lies.
    ``np.einsum``'s can, with the row's address or the array's shape.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class PlantedGraphSpec:
    """Parameters of the synthetic coupled-dynamics generator, checked when built."""

    n_nodes: int = 10
    edge_prob: float = 0.2
    alpha: float = 0.7
    seasonal_period: int = 24
    noise_std: float = 0.1
    # (start, end) step intervals during which the secondary edges drive
    # the dynamics instead of the switched-out primary subset
    switch_intervals: tuple[tuple[int, int], ...] = ()
    # share of primary edges a switch swaps; at least one pair, even at 0
    switch_fraction: float = 0.5

    def __post_init__(self):
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
        if not self.noise_std >= 0:  # also NaN
            raise GenerationError(f"noise std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.switch_fraction <= 1.0:
            raise GenerationError(f"switch fraction must be in [0,1], got {self.switch_fraction}")
        for start, end in self.switch_intervals:
            if start >= end:
                raise GenerationError(f"switch interval {start}:{end} is empty; need start < end")


@dataclass
class SynthResult:
    dataset: SeriesDataset
    adjacency: np.ndarray  # binary primary edges, symmetric, zero diagonal
    secondary_adjacency: np.ndarray | None
    schedule: tuple[tuple[int, int], ...]
    # the seasonal forcing amp * sin(2 pi (t + 1) / period + phase) every node gets at step t + 1
    amp: float
    phase: float
    period: int


def _adjacency(n: int, rows: np.ndarray, cols: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Symmetric 0/1 matrix with an edge at each pair (rows[k], cols[k]) where upper[k]."""
    a = np.zeros((n, n))
    a[rows[upper], cols[upper]] = 1.0
    return a + a.T


def _dynamics_matrix(edges: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * row-normalized (edges + self loops).

    The normalized matrix is row-stochastic, so the spectral radius of the
    result is alpha, which ``PlantedGraphSpec`` keeps below 1.
    """
    with_self = edges + np.eye(edges.shape[0])
    p = with_self / with_self.sum(axis=1, keepdims=True)
    return alpha * p


def synth_generate(spec: PlantedGraphSpec, t_total: int, seed: int) -> SynthResult:
    """Simulate x[t+1] = alpha*P*x[t] + seasonal(t) + noise over a planted graph.

    During ``switch_intervals`` a secondary edge set replaces
    ``max(1, round(switch_fraction * edges))`` random primary edges with up
    to as many over previously unconnected pairs, giving a short-term pattern
    distinct from the long-term one. So a switch swaps at least one pair,
    even at a fraction of 0.
    """
    if t_total < 1:
        raise GenerationError(f"need at least 1 time step, got {t_total}")
    rng = RngState(seed)
    n = spec.n_nodes
    # one draw per node pair i < j, in np.triu_indices order
    rows, cols = np.triu_indices(n, 1)
    upper = rng.random(rows.size) < spec.edge_prob
    if not upper.any():  # guarantee at least one edge to recover: the pair (0, 1)
        upper[0] = True
    edges = _adjacency(n, rows, cols, upper)

    secondary = None
    if spec.switch_intervals:
        pairs, non_pairs = np.flatnonzero(upper), np.flatnonzero(~upper)
        k = max(1, int(round(spec.switch_fraction * pairs.size)))
        switched = upper.copy()
        switched[pairs[rng.permutation(pairs.size)[:k]]] = False
        switched[non_pairs[rng.permutation(non_pairs.size)[:k]]] = True
        secondary = _adjacency(n, rows, cols, switched)

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
    x[0] = rng.normal(size=n)
    # a huge noise std overflows; the check below reports it in one line, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t_total - 1):
            m = m_secondary if (m_secondary is not None and in_switch(t)) else m_primary
            seasonal = amp * np.sin(omega * (t + 1) + phase)
            noise = rng.normal(0.0, spec.noise_std, n) if spec.noise_std > 0 else 0.0
            x[t + 1] = m @ x[t] + seasonal + noise
    if not np.all(np.isfinite(x)):
        raise GenerationError(f"trajectory became non-finite with noise std {spec.noise_std}")
    return SynthResult(
        dataset=SeriesDataset(x),
        adjacency=edges,
        secondary_adjacency=secondary,
        schedule=tuple(spec.switch_intervals),
        amp=amp,
        phase=phase,
        period=spec.seasonal_period,
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
    # Mann-Whitney U via midranks: tied scores share the mean of their 1-based ranks
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = midranks[group][labels].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
