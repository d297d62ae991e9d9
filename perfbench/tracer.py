"""Span tracer installed from outside the program, plus backward replay.

``Tracer.install`` wraps the public call points of ``sdgl``: every autodiff
primitive, ``Tape.backward``, the module classes' ``__call__``, the graph
helpers that ``sdgl.model`` imports, ``SGD.step``, ``evaluate`` and
``make_windows``. Each wrapper records a span (name, start, end, parent id)
in memory; ``write`` dumps them at the end. Nothing under ``src/`` changes.

Backward time per primitive and per module cannot be seen from outside the
tape, so it is measured by replay: during one chosen step the wrappers keep
the inputs of the hot primitives and of every module call, and after the
step each call is re-run on a fresh ``Tape`` whose ``backward`` is timed.
The replay's own scalar head (``reduce_sum``) is timed alone on an input of
the same shape and subtracted.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import sdgl.autodiff as ad
import sdgl.data as sdata
import sdgl.dynamic_graph as sdyn
import sdgl.graph_conv as sgc
import sdgl.model as smodel
import sdgl.temporal as stemp
from sdgl.rng import RngState
from sdgl.static_graph import AdjacencyMatrix

HOT_PRIMITIVES = ("conv1d_dilated", "channel_map", "propagate")
TIMED_PRIMITIVES = ("concat", "narrow", "matmul")
NOT_PRIMITIVES = {"Tensor", "Tape", "ShapeError", "NumericError", "TapeError",
                  "tensor", "primitive", "grad_check", "set_debug_checks"}
# module spans: the layers below the model, named after their sdgl module
MODULE_SPANS = ("temporal", "graph_conv.static", "graph_conv.dynamic", "dynamic_graph",
                "static_graph.build", "static_graph.regularizer")
REPLAY_REPS = 3

_clock = time.perf_counter


def hot_cost(op: str, args, out) -> tuple[float, float, float, float]:
    """Computed (fwd_flop, bwd_flop, fwd_bytes, bwd_bytes) of one hot call.

    Derived from shapes alone: multiply-adds count 2 flops, bytes are every
    float64 operand read plus every result written, once. Backward counts
    only the gradients the tape computes, i.e. inputs that require grad.
    """
    x, w = args[0], args[1]
    xs, ws, os_ = x.size, w.size, out.size
    if op == "conv1d_dilated":
        b, ci, n, _ = x.shape
        co, _, k = w.shape
        per_grad = 2.0 * b * co * ci * k * n * out.shape[3]
    elif op == "channel_map":
        b, ci, n, t = x.shape
        per_grad = 2.0 * b * w.shape[0] * ci * n * t
    else:  # propagate
        b, c, n, t = x.shape
        per_grad = 2.0 * b * c * n * n * t
    fwd_bytes = 8.0 * (xs + ws + os_)
    if not out.requires_grad:
        return per_grad, 0.0, fwd_bytes, 0.0
    grads = [t for t in (x, w) if t.requires_grad]
    bwd_flop = per_grad * len(grads)
    bwd_bytes = 8.0 * (os_ + xs + ws + sum(t.size for t in grads))
    return per_grad, bwd_flop, fwd_bytes, bwd_bytes


class Tracer:
    """In-memory span recorder with wrappers for the sdgl call points."""

    def __init__(self):
        # span: [name, start, end, parent id, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.paused = False
        self.capture = False  # keep replay inputs for the current step
        self.captured: list[tuple] = []
        self.replay_ms: dict[str, float] = {}
        self.replayed_steps = 0
        self.replay_s = 0.0
        self.step_index = 0
        self.replay_step = None  # predicate: step number within epoch -> bool
        self._epoch_step = 0
        self._step_span = None

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for name in ad.__all__:
            if name not in NOT_PRIMITIVES:
                self._patch(ad, name, lambda fn, n=name: self._wrap_primitive(n, fn))
        self._patch(ad.Tape, "__enter__", self._wrap_tape_enter)
        self._patch(ad.Tape, "backward", lambda fn: self._wrap_plain("autodiff.backward", fn))
        self._patch(stemp.GatedTemporalLayer, "__call__",
                    lambda fn: self._wrap_module(lambda *a: "temporal", fn))
        self._patch(sgc.MixHopConv, "__call__", lambda fn: self._wrap_module(
            lambda self_, x, adj: "graph_conv.dynamic" if _values(adj).ndim == 3
            else "graph_conv.static", fn))
        self._patch(sdyn.DynamicGraphLearner, "__call__",
                    lambda fn: self._wrap_module(lambda *a: "dynamic_graph", fn))
        self._patch(smodel, "build_static_graph",
                    lambda fn: self._wrap_plain("static_graph.build", fn))
        self._patch(smodel, "graph_regularization_loss",
                    lambda fn: self._wrap_module(lambda *a: "static_graph.regularizer", fn))
        self._patch(smodel, "momentum_update", self._wrap_momentum)
        self._patch(smodel, "hybrid_loss", lambda fn: self._wrap_plain("model.loss", fn))
        self._patch(smodel.SDGLModel, "forward", lambda fn: self._wrap_plain("model.forward", fn))
        self._patch(smodel.SGD, "step", lambda fn: self._wrap_plain("model.sgd_step", fn))
        self._patch(smodel, "evaluate", lambda fn: self._wrap_plain("model.evaluate", fn))
        self._patch(sdata, "make_windows", lambda fn: self._wrap_plain("data.make_windows", fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _wrap_plain(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_primitive(self, op: str, fn):
        name = "autodiff." + op
        hot = op in HOT_PRIMITIVES

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            if parent >= 0 and self.spans[parent][0].startswith("autodiff."):
                self.spans[parent][4]["composite"] = True
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            attrs = self.spans[idx][4]
            attrs["recorded"] = (isinstance(out, ad.Tensor) and out.requires_grad
                                 and all(out is not a for a in args))
            if hot:
                attrs["cost"] = hot_cost(op, args, out)
                if self.capture:
                    self.captured.append((name, fn, _freeze(args, kwargs)))
            return out
        return wrapper

    def _wrap_module(self, name_of, fn):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            name = name_of(*args, **kwargs)
            if self.capture:
                self.captured.append((name, fn, _freeze(args, kwargs)))
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_tape_enter(self, fn):
        def wrapper(tape):
            # train() opens one tape per step; replays and evaluate open none
            if not self.paused and self.current() == "train.epoch":
                self._step_span = self.begin("model.step", step=self.step_index)
                self.capture = self.replay_step is not None and self.replay_step(self._epoch_step)
                self.captured = []
            return fn(tape)
        return wrapper

    def _wrap_momentum(self, fn):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            out = self.span("static_graph.momentum", fn, *args, **kwargs)
            if self._step_span is not None and self.current() == "model.step":
                self.end(self._step_span)
                self._step_span = None
                self.step_index += 1
                self._epoch_step += 1
                if self.capture:
                    self.capture = False
                    self._replay()
            return out
        return wrapper

    def begin_epoch(self, number: int) -> int:
        self._epoch_step = 0
        return self.begin("train.epoch", epoch=number)

    # -- backward replay --------------------------------------------------

    def _replay(self) -> None:
        t0 = _clock()
        self.paused = True
        try:
            totals: dict[str, float] = {}
            for name, fn, frozen in self.captured:
                totals[name] = totals.get(name, 0.0) + _replay_backward_ms(fn, frozen)
            for name, ms in totals.items():
                self.replay_ms[name] = self.replay_ms.get(name, 0.0) + ms
            self.replayed_steps += 1
        finally:
            self.paused = False
            self.captured = []
            self.replay_s += _clock() - t0

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": [[s[0], s[1], s[2], s[3],
                                  {k: v for k, v in s[4].items() if k != "cost"}]
                                 for s in self.spans]}, fh)


def _values(adj) -> np.ndarray:
    return adj.values.data if isinstance(adj, AdjacencyMatrix) else adj.data


def _freeze(args, kwargs):
    """Snapshot call arguments so the call can be replayed on a fresh tape."""
    def snap(a):
        if isinstance(a, ad.Tensor):
            return ("tensor", a.data, a.requires_grad)
        if isinstance(a, AdjacencyMatrix):
            return ("adj", a.values.data, a.kind)
        if isinstance(a, RngState):
            return ("rng", a.seed)
        return ("value", a)
    return [snap(a) for a in args], {k: snap(v) for k, v in kwargs.items()}


def _thaw(frozen):
    def make(s):
        kind = s[0]
        if kind == "tensor":
            return ad.Tensor(s[1], requires_grad=s[2])
        if kind == "adj":
            return AdjacencyMatrix(values=ad.Tensor(s[1], requires_grad=True), kind=s[2])
        if kind == "rng":  # a fresh stream leaves the training stream untouched
            return RngState(s[1])
        return s[1]
    args, kwargs = frozen
    return [make(a) for a in args], {k: make(v) for k, v in kwargs.items()}


def _timed_backward(build) -> tuple[float, tuple[int, ...]]:
    """Backward ms of ``reduce_sum(build())`` on a fresh tape, and the shape summed."""
    tape = ad.Tape()
    with tape:
        out = build()
        if isinstance(out, AdjacencyMatrix):
            out = out.values
        loss = ad.reduce_sum(out)
    t0 = _clock()
    tape.backward(loss)
    return (_clock() - t0) * 1e3, out.shape


def _replay_backward_ms(fn, frozen) -> float:
    """Median backward ms of one call, minus its scalar head's backward."""
    runs, shape = [], None
    for _ in range(REPLAY_REPS):
        args, kwargs = _thaw(frozen)
        ms, shape = _timed_backward(lambda: fn(*args, **kwargs))
        runs.append(ms)
    head = []
    for _ in range(REPLAY_REPS):
        leaf = ad.Tensor(np.zeros(shape), requires_grad=True)
        head.append(_timed_backward(lambda: leaf)[0])
    return max(0.0, statistics.median(runs) - statistics.median(head))


# -- aggregation ----------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(values, q))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, unit: str) -> dict[str, float]:
    """Per-layer figures per train step (``unit="step"``) or per evaluate
    forward batch (``unit="batch"``), medians over the traced units."""
    spans = tracer.spans
    n = len(spans)
    # unit id of every span: the nearest enclosing step / evaluate batch
    owner = [-1] * n
    units: list[int] = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        is_unit = (name == "model.step" if unit == "step"
                   else name == "model.forward" and parent >= 0
                   and spans[parent][0] == "model.evaluate")
        if is_unit:
            owner[i] = i
            units.append(i)
        elif parent >= 0:
            owner[i] = owner[parent]
    per_unit = {u: {} for u in units}
    children_ms = {}
    for i, (name, t0, t1, parent, attrs) in enumerate(spans):
        u = owner[i]
        if u < 0 or i == u:
            continue
        acc = per_unit[u]
        ms = (t1 - t0) * 1e3
        acc[name + ".ms"] = acc.get(name + ".ms", 0.0) + ms
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        if name.startswith("autodiff.") and attrs.get("recorded") and not attrs.get("composite"):
            acc["ops"] = acc.get("ops", 0) + 1
        if "cost" in attrs:
            f_fl, b_fl, f_by, b_by = attrs["cost"]
            acc[name + ".gflop"] = acc.get(name + ".gflop", 0.0) + (f_fl + b_fl) / 1e9
            acc[name + ".mbytes"] = acc.get(name + ".mbytes", 0.0) + (f_by + b_by) / 1e6
        if parent == u:
            acc["children.ms"] = acc.get("children.ms", 0.0) + ms
        if name in MODULE_SPANS and spans[parent][0] == "model.forward":
            children_ms[parent] = children_ms.get(parent, 0.0) + ms

    def med(key):
        return _median(per_unit[u].get(key, 0.0) for u in units)

    out: dict[str, float] = {}
    for op in HOT_PRIMITIVES:
        out[f"autodiff.{op}.fwd_ms"] = med(f"autodiff.{op}.ms")
        out[f"autodiff.{op}.calls"] = med(f"autodiff.{op}.calls")
        out[f"autodiff.{op}.gflop"] = med(f"autodiff.{op}.gflop")
        out[f"autodiff.{op}.mbytes"] = med(f"autodiff.{op}.mbytes")
    for op in TIMED_PRIMITIVES:
        out[f"autodiff.{op}.fwd_ms"] = med(f"autodiff.{op}.ms")
        out[f"autodiff.{op}.calls"] = med(f"autodiff.{op}.calls")
    out["autodiff.ops_per_step"] = med("ops") if unit == "step" else 0.0
    out["autodiff.backward_ms"] = med("autodiff.backward.ms")
    for mod in ("temporal", "graph_conv.static", "graph_conv.dynamic", "dynamic_graph"):
        out[f"{mod}.fwd_ms"] = med(f"{mod}.ms")
    out["static_graph.build_ms"] = med("static_graph.build.ms")
    out["static_graph.regularizer.fwd_ms"] = med("static_graph.regularizer.ms")
    out["static_graph.momentum_ms"] = med("static_graph.momentum.ms")
    out["model.sgd_step_ms"] = med("model.sgd_step.ms")

    steps = units if unit == "step" else []
    forwards = ([i for i, s in enumerate(spans) if s[0] == "model.forward" and s[3] in steps]
                if unit == "step" else units)
    out["model.forward_ms"] = _median((spans[i][2] - spans[i][1]) * 1e3 for i in forwards)
    out["model.forward_self_ms"] = _median(
        (spans[i][2] - spans[i][1]) * 1e3 - children_ms.get(i, 0.0) for i in forwards)
    step_ms = [(spans[i][2] - spans[i][1]) * 1e3 for i in steps]
    out["model.step_ms.p50"] = _quantile(step_ms, 50)
    out["model.step_ms.p90"] = _quantile(step_ms, 90)
    out["model.evaluate_batch_ms"] = _median(
        (s[2] - s[1]) * 1e3 for s in spans
        if s[0] == "model.forward" and s[3] >= 0 and spans[s[3]][0] == "model.evaluate")
    cover = [per_unit[u].get("children.ms", 0.0) / ((spans[u][2] - spans[u][1]) * 1e3)
             for u in units]
    out["trace.coverage_pct"] = 100.0 * _median(cover)

    per_step = max(tracer.replayed_steps, 1)
    for op in HOT_PRIMITIVES:
        out[f"autodiff.{op}.bwd_ms"] = tracer.replay_ms.get("autodiff." + op, 0.0) / per_step
    for mod in ("temporal", "graph_conv.static", "graph_conv.dynamic", "dynamic_graph",
                "static_graph.regularizer"):
        out[f"{mod}.bwd_ms"] = tracer.replay_ms.get(mod, 0.0) / per_step
    return out


def check_tree(spans: list[list]) -> None:
    """Parent links must form a forest whose child intervals nest."""
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if t1 is None or t1 < t0:
            raise ValueError(f"span {i} ({name}) is not closed")
        if parent == -1:
            continue
        if not 0 <= parent < i:
            raise ValueError(f"span {i} ({name}) has parent {parent} not before it")
        p = spans[parent]
        if t0 < p[1] or t1 > p[2]:
            raise ValueError(f"span {i} ({name}) lies outside its parent {p[0]}")
