"""Benchmark workloads: input preparation and measurement, one process each.

    python3 perfbench/bench.py prep    --workload W --seed S --dir D [--tiny]
    python3 perfbench/bench.py measure --workload W --seed S --dir D \
        --seconds N --trace 0|1 [--tiny]

``prep`` makes the inputs from the seed (a planted-graph series written as
CSV and, for ``forecast``, a checkpoint) and checks the fixed-seed
fingerprint. ``measure`` drives only public entry points of ``sdgl`` and
writes ``result.json`` (and ``trace.json`` when traced) into D. ``run.py``
starts both in turn; the measuring process's ``ru_maxrss`` is then the
workload's own peak memory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import fingerprint
from tracer import Tracer, layer_metrics
import sdgl.data as sdata
import sdgl.model as smodel
from sdgl import (ModelConfig, PlantedGraphSpec, SDGLModel, SeriesDataset, evaluate, load_csv,
                  metrics, predict, synth_generate, train, window_split)
from sdgl import checkpoint
from sdgl.data import WindowBatch, save_csv
from sdgl.model import DivergenceError

WINDOW, HORIZON = 19, 3
EVAL_BATCH = 128  # evaluate()'s batch size; forecast chunks are multiples of it
CHUNK = 8 * EVAL_BATCH
SETUP_FIRST = 3  # set-up repetitions before the rounds; each round adds one
IO_REPS = 3
EQUIV_SAMPLES = 8
PREDICT_GROUP = 2  # predict calls between two reference timings
PREDICT_RTOL = 1e-9  # single-window vs batched forecast: BLAS may block differently
MAE_RTOL = 1e-12

END_TO_END_UNITS = {
    "setup_s": "s",
    "windows_per_s": "windows/s",
    "predict_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# Per train step (train_*) or per evaluate forward batch (forecast). Units
# ending in _computed are derived from operand shapes, not measured.
PER_LAYER_UNITS = {"quality.mae": "raw_units", "autodiff.backward_ms": "ms",
                   "autodiff.ops_per_step": "count"}
for _op in ("conv1d_dilated", "channel_map", "propagate"):
    PER_LAYER_UNITS.update({f"autodiff.{_op}.fwd_ms": "ms", f"autodiff.{_op}.bwd_ms": "ms",
                            f"autodiff.{_op}.calls": "count",
                            f"autodiff.{_op}.gflop": "GFLOP_computed",
                            f"autodiff.{_op}.mbytes": "MB_computed"})
for _op in ("concat", "narrow", "matmul"):
    PER_LAYER_UNITS.update({f"autodiff.{_op}.fwd_ms": "ms", f"autodiff.{_op}.calls": "count"})
for _mod in ("temporal", "graph_conv.static", "graph_conv.dynamic", "dynamic_graph",
             "static_graph.regularizer"):
    PER_LAYER_UNITS.update({f"{_mod}.fwd_ms": "ms", f"{_mod}.bwd_ms": "ms"})
for _name in ("static_graph.build_ms", "static_graph.momentum_ms", "model.forward_ms",
              "model.forward_self_ms", "model.sgd_step_ms", "model.evaluate_batch_ms",
              "model.step_ms.p50", "model.step_ms.p90", "model.predict_ms.p50",
              "data.load_csv_ms", "data.window_split_ms", "data.make_windows_ms",
              "checkpoint.load_ms", "checkpoint.save_ms"):
    PER_LAYER_UNITS[_name] = "ms"
PER_LAYER_UNITS.update({
    "data.window_bytes": "bytes",
    "trace.windows_per_s.untraced": "windows/s",
    "trace.windows_per_s.traced": "windows/s",
    "trace.overhead_windows_per_s": "windows/s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
})


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "forecast"
    n_nodes: int
    t_total: int
    batch_size: int
    # Fixed estimate of one measured unit (an epoch, or an evaluate pass over
    # the series). It turns --seconds into a fixed amount of work, so both
    # commits of a comparison do the same work and the weights depend only
    # on the seed.
    unit_s: float
    predict_calls: int
    ckpt_rows: int = 0  # forecast: series prefix the checkpoint is trained on


FULL = {
    w.name: w for w in (
        Workload("train_small", "train", 10, 1536, 64, 3.0, 400),
        Workload("train_wide", "train", 100, 249, 32, 9.5, 200),
        Workload("forecast", "forecast", 10, 8192, 64, 10.0, 400, ckpt_rows=768),
    )
}
TINY = {
    w.name: w for w in (
        Workload("train_small", "train", 4, 120, 16, 60.0, 30),
        Workload("train_wide", "train", 6, 120, 16, 60.0, 30),
        Workload("forecast", "forecast", 4, 300, 16, 60.0, 30, ckpt_rows=120),
    )
}

_clock = time.perf_counter


def model_config(w: Workload, seed: int, epochs: int = 1) -> ModelConfig:
    return ModelConfig(n_nodes=w.n_nodes, window=WINDOW, horizon=HORIZON,
                       batch_size=w.batch_size, channels=16, layers=2,
                       lambda_reg=2.0, gamma=0.001, seed=seed, epochs=epochs)


def series(w: Workload, seed: int) -> np.ndarray:
    spec = PlantedGraphSpec(n_nodes=w.n_nodes, edge_prob=0.2, alpha=0.7, noise_std=0.2)
    return synth_generate(spec, t_total=w.t_total, seed=seed).dataset.values


# -- environment ------------------------------------------------------------


def _openblas_runtime() -> tuple[int | None, str | None]:
    """Thread count and build string of the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return int(get_threads()), get_config().decode()
    return None, None


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads, config = _openblas_runtime()
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": config,
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
    }


# -- shared pieces ------------------------------------------------------------


class Ops:
    """Attempted and failed operation counts: steps, evaluate batches, predicts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3


class Reference:
    """A fixed kernel timed right after every unit of work.

    The host is a shared VM whose speed drifts by up to 40% within minutes
    (see NOTES.md). Each unit's time (a train step's epoch share, an
    evaluate batch, a group of predicts, a set-up) is scaled by
    NOMINAL_S / (this kernel's time next to it). That cancels the drift,
    because the kernel slows down with the host. The kernel is benchmark
    code, so no change to sdgl moves it. Scaled figures are the program's
    times on a host at nominal speed. NOMINAL_S is the kernel's median time
    on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one
    BLAS thread). The kernel mixes the work sdgl spends its time on:
    interpreter loops, numpy einsum loops, BLAS.
    """

    NOMINAL_S = 0.006

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 16, 10, 19))
        self._w = rng.random((16, 16))
        self._m = rng.random((200, 200))

    def time(self) -> float:
        t0 = _clock()
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(3):
            np.einsum("oi,bint->bont", self._w, self._a)
        for _ in range(2):
            self._m @ self._m
        return _clock() - t0


class Timings:
    """Seconds per unit, as measured and scaled to nominal host speed."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float, ref_s: float) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * Reference.NOMINAL_S / ref_s)


def timed_predicts(model, scaler, windows: WindowBatch, idx, ops: Ops, ref: Reference,
                   lat: Timings) -> None:
    """Single-window predict latencies, each group between two reference timings."""
    bad = 0
    before = ref.time()
    for g in range(0, len(idx), PREDICT_GROUP):
        group = []
        for i in idx[g : g + PREDICT_GROUP]:
            t0 = _clock()
            y = predict(model, scaler, windows.inputs[i])
            group.append(_clock() - t0)
            bad += not np.all(np.isfinite(y))
        after = ref.time()
        for t in group:
            lat.add(t, 0.5 * (before + after))
        before = after
    ops.add(len(idx), bad)


def predict_matches_evaluate(model, scaler, windows: WindowBatch, sample) -> dict:
    """A window's single forecast must equal its forecast inside the batch
    evaluate() runs it in, and evaluate's MAE over that batch must equal the
    MAE of the batched forecast."""
    worst_pred = worst_mae = 0.0
    for i in sample[:EQUIV_SAMPLES]:
        b0 = (int(i) // EVAL_BATCH) * EVAL_BATCH
        sl = slice(b0, min(b0 + EVAL_BATCH, len(windows)))
        batch = WindowBatch(windows.inputs[sl], windows.targets[sl], windows.starts[sl])
        batched = predict(model, scaler, batch.inputs)
        single = predict(model, scaler, windows.inputs[i])
        scale = max(1.0, float(np.abs(batched).max()))
        worst_pred = max(worst_pred, float(np.abs(single - batched[i - b0]).max()) / scale)
        ev = evaluate(model, scaler, batch)["average"]["MAE"]
        mae = metrics(batched, batch.targets)["MAE"]
        worst_mae = max(worst_mae, abs(ev - mae) / max(abs(mae), 1e-300))
    return {"ok": worst_pred <= PREDICT_RTOL and worst_mae <= MAE_RTOL,
            "worst_predict_rel": worst_pred, "worst_mae_rel": worst_mae}


def checkpoint_io_ms(model, scaler, path: Path) -> tuple[float, float, bool]:
    """Median save and load ms, and whether the round trip forecasts identically."""
    save_ms, load_ms = [], []
    for _ in range(IO_REPS):
        t0 = _clock()
        checkpoint.save(path, model, scaler)
        t1 = _clock()
        ck = checkpoint.load(path)
        load_ms.append(_clock() - t1)
        save_ms.append(t1 - t0)
    x = np.zeros((model.config.n_nodes, model.config.window))
    same = np.array_equal(predict(model, scaler, x), predict(ck.model, ck.scaler, x))
    return _median_ms(save_ms), _median_ms(load_ms), same


class Repeated:
    """Runs a set-up function again and again, keeping each part's timings."""

    def __init__(self, fn, ref: Reference):
        self.fn = fn
        self.ref = ref
        self.seconds: dict[str, list[float]] = {}
        self.total = Timings()

    def run(self):
        objects, parts = self.fn()
        self.total.add(parts["setup"], self.ref.time())
        for name, sec in parts.items():
            self.seconds.setdefault(name, []).append(sec)
        return objects

    def median_ms(self, name: str) -> float:
        return _median_ms(self.seconds[name])


def e2e(setup: Repeated, per_window: Timings, lat: Timings) -> tuple[dict, dict]:
    """End-to-end metrics at nominal host speed, and the same as measured."""
    def figures(setup_s, per_window_s, lat_s):
        return {
            "setup_s": statistics.median(setup_s),
            "windows_per_s": 1.0 / statistics.median(per_window_s),
            "predict_ms.p90": float(np.percentile(lat_s, 90)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return (figures(setup.total.scaled, per_window.scaled, lat.scaled),
            figures(setup.total.raw, per_window.raw, lat.raw))


# A run is a sequence of rounds: one epoch (train_*) or one evaluate chunk
# (forecast), each followed by one set-up repetition and a block of predict
# calls, so every end-to-end figure samples the whole run.


# -- train workloads ----------------------------------------------------------


def setup_train(csv_path: Path, cfg: ModelConfig):
    t0 = _clock()
    ds = load_csv(csv_path)
    t1 = _clock()
    splits = window_split(ds, WINDOW, HORIZON)
    t2 = _clock()
    model = SDGLModel(cfg)
    t3 = _clock()
    return (ds, splits, model), {"setup": t3 - t0, "load_csv": t1 - t0, "window_split": t2 - t1}


def measure_train(w: Workload, seed: int, d: Path, seconds: int, trace: bool) -> dict:
    cfg = model_config(w, seed)
    ref = Reference()
    setup = Repeated(lambda: setup_train(d / "series.csv", cfg), ref)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()  # make_windows spans inside window_split
    for _ in range(SETUP_FIRST):
        ds, splits, fresh_model = setup.run()
    if tracer:
        tracer.uninstall()

    measured = max(2, round(seconds / w.unit_s))
    epochs = 1 + measured
    # A traced run traces every second measured epoch; the untraced epochs
    # between them give the tracing overhead under the same machine load.
    traced = set(range(3, epochs + 1, 2)) if trace else set()
    n_train = len(splits.train)
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    if tracer:
        # replay the second step of each traced epoch: the first pays for
        # installing the wrappers
        tracer.replay_step = lambda k: k == min(1, steps_per_epoch - 1)
    ops = Ops()
    # predict latency does not depend on weight values, so the rounds time
    # the freshly built model while train() owns the trained one
    blocks = np.array_split(np.random.default_rng(seed).integers(0, len(splits.val),
                                                                 w.predict_calls), epochs)
    timed_predicts(fresh_model, splits.scaler, splits.val, blocks[0][:10], Ops(), ref,
                   Timings())  # warm-up
    lat, records = Timings(), []
    begin, end, replay_at = [_clock()], [], [0.0]
    step_refs: list[list[float]] = [[]]  # reference timings after each step, per epoch
    epoch_span = None  # the traced epoch in progress
    momentum_update = smodel.momentum_update

    def with_reference(fn):
        # train() ends every step with momentum_update; the reference kernel
        # runs right after it, outside the step's span when traced
        def after_step(emb):
            fn(emb)
            step_refs[-1].append(ref.time())
        return after_step

    def log(record):
        nonlocal epoch_span
        end.append(_clock())
        records.append(record)
        step_refs.append([])
        if epoch_span is not None:
            tracer.end(epoch_span)
            tracer.uninstall()
            epoch_span = None
            smodel.momentum_update = with_reference(momentum_update)
        if tracer:
            replay_at.append(tracer.replay_s)
        timed_predicts(fresh_model, splits.scaler, splits.val, blocks[record["epoch"] - 1],
                       ops, ref, lat)
        setup.run()
        if record["epoch"] + 1 in traced:
            smodel.momentum_update = momentum_update
            tracer.install()
            smodel.momentum_update = with_reference(smodel.momentum_update)
            epoch_span = tracer.begin_epoch(record["epoch"] + 1)
        begin.append(_clock())

    diverged = None
    smodel.momentum_update = with_reference(momentum_update)
    try:
        result = train(ds, replace(cfg, epochs=epochs), log=log)
    except DivergenceError as exc:
        diverged = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.uninstall()
        smodel.momentum_update = momentum_update
    ops.add(len(records) * (steps_per_epoch + math.ceil(len(splits.val) / EVAL_BATCH)),
            0 if diverged is None else 1)
    checks = {"fingerprint": json.loads((d / "prep.json").read_text())["fingerprint"]}
    if diverged:
        checks["error"] = diverged
        return finish(None, None, ops, checks, tracer, d)
    checks["finite_losses_and_forecasts"] = ops.failed == 0 and all(
        math.isfinite(r["train_loss"]) and math.isfinite(r["val_MAE"]) for r in records)
    checks["predict_matches_evaluate"] = predict_matches_evaluate(
        result.model, result.scaler, result.splits.val, blocks[0])

    # epoch e (1-based) runs from begin[e-1] to end[e-1] and holds the
    # reference timings step_refs[e-1]; epoch 1 is warm-up
    wall = [0.0] + [end[i] - begin[i] for i in range(epochs)]
    per_window = Timings()
    for e in range(2, epochs + 1):
        if e not in traced:
            refs = step_refs[e - 1]
            per_window.add((wall[e] - sum(refs)) / n_train, statistics.mean(refs))
    metrics_, measured_ = e2e(setup, per_window, lat)
    quality = {"val_mae": records[-1]["val_MAE"], "epochs": epochs}

    layers = None
    if tracer:
        traced_rates = [n_train / (wall[e] - (replay_at[e] - replay_at[e - 1])
                                   - sum(step_refs[e - 1]))
                        for e in sorted(traced)]
        save_ms, load_ms, same = checkpoint_io_ms(result.model, result.scaler, d / "model.sdgl")
        checks["checkpoint_round_trip"] = same
        layers = layer_metrics(tracer, "step")
        mw = [(s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == "data.make_windows"]
        mw = [sum(mw[i : i + 3]) for i in range(0, len(mw), 3)]  # 3 splits per window_split
        layers.update({
            "quality.mae": quality["val_mae"],
            "model.predict_ms.p50": float(np.percentile(lat.raw, 50)) * 1e3,
            "data.load_csv_ms": setup.median_ms("load_csv"),
            "data.window_split_ms": setup.median_ms("window_split"),
            "data.make_windows_ms": statistics.median(mw),
            "data.window_bytes": float(sum(b.inputs.nbytes + b.targets.nbytes
                                           for b in (splits.train, splits.val, splits.test))),
            "checkpoint.save_ms": save_ms,
            "checkpoint.load_ms": load_ms,
        })
        layers.update(overhead(measured_["windows_per_s"], statistics.median(traced_rates)))
    return finish(metrics_, measured_, ops, checks, tracer, d, layers, quality)


# -- forecast workload --------------------------------------------------------


def setup_forecast(ck_path: Path, csv_path: Path):
    t0 = _clock()
    ck = checkpoint.load(ck_path)
    t1 = _clock()
    ds = load_csv(csv_path)
    t2 = _clock()
    windows = sdata.make_windows(ds.values, WINDOW, HORIZON)
    t3 = _clock()
    return (ck, windows), {"setup": t3 - t0, "checkpoint_load": t1 - t0, "load_csv": t2 - t1,
                           "make_windows": t3 - t2}


def measure_forecast(w: Workload, seed: int, d: Path, seconds: int, trace: bool) -> dict:
    ref = Reference()
    setup = Repeated(lambda: setup_forecast(d / "model.sdgl", d / "series.csv"), ref)
    for _ in range(SETUP_FIRST):
        ck, windows = setup.run()
    model, scaler = ck.model, ck.scaler
    ops = Ops()
    chunks = [slice(i, min(i + CHUNK, len(windows))) for i in range(0, len(windows), CHUNK)]
    passes = max(2, round(seconds / w.unit_s))
    rounds = [(p, c) for p in range(passes) for c in chunks]
    idx = np.random.default_rng(seed).integers(0, len(windows), w.predict_calls)
    blocks = np.array_split(idx, len(rounds))

    def evaluate_chunk(c: slice, per_window: Timings) -> float:
        """Evaluate one chunk, one evaluate() batch per call; returns the MAE sum."""
        err = 0.0
        for b0 in range(c.start, c.stop, EVAL_BATCH):
            b = slice(b0, min(b0 + EVAL_BATCH, c.stop))
            sub = WindowBatch(windows.inputs[b], windows.targets[b], windows.starts[b])
            t0 = _clock()
            # looked up at call time, so a traced pass goes through the wrapper
            mae = smodel.evaluate(model, scaler, sub)["average"]["MAE"]
            dt = _clock() - t0
            ops.add(1, int(not math.isfinite(mae)))
            per_window.add(dt / (b.stop - b.start), ref.time())
            err += mae * (b.stop - b.start)
        return err

    evaluate_chunk(chunks[0], Timings())  # warm-up, untimed
    timed_predicts(model, scaler, windows, idx[:10], Ops(), ref, Timings())
    # a traced run traces every second pass, as measure_train does epochs
    tracer = Tracer() if trace else None
    per_window, traced_per_window, lat = Timings(), Timings(), Timings()
    maes = [0.0] * passes
    for r, (p, c) in enumerate(rounds):
        if trace and p % 2 == 1:
            tracer.install()
            try:
                maes[p] += evaluate_chunk(c, traced_per_window)
            finally:
                tracer.uninstall()
        else:
            maes[p] += evaluate_chunk(c, per_window)
        timed_predicts(model, scaler, windows, blocks[r], ops, ref, lat)
        setup.run()
    maes = [m / len(windows) for m in maes]  # MAE over each pass

    checks = {
        "fingerprint": json.loads((d / "prep.json").read_text())["fingerprint"],
        "finite_losses_and_forecasts": ops.failed == 0,
        "predict_matches_evaluate": predict_matches_evaluate(model, scaler, windows, idx),
        # evaluate is deterministic: every pass must give the same MAE
        "mae_repeats": max(maes) - min(maes) <= MAE_RTOL * abs(maes[0]),
    }
    metrics_, measured_ = e2e(setup, per_window, lat)
    quality = {"test_mae": maes[0]}
    layers = None
    if tracer:
        save_ms, _, same = checkpoint_io_ms(model, scaler, d / "resaved.sdgl")
        checks["checkpoint_round_trip"] = same
        layers = layer_metrics(tracer, "batch")
        layers.update({
            "quality.mae": quality["test_mae"],
            "model.predict_ms.p50": float(np.percentile(lat.raw, 50)) * 1e3,
            "data.load_csv_ms": setup.median_ms("load_csv"),
            "data.window_split_ms": 0.0,  # forecast windows the whole series directly
            "data.make_windows_ms": setup.median_ms("make_windows"),
            "data.window_bytes": float(windows.inputs.nbytes + windows.targets.nbytes),
            "checkpoint.save_ms": save_ms,
            "checkpoint.load_ms": setup.median_ms("checkpoint_load"),
        })
        layers.update(overhead(measured_["windows_per_s"],
                               1.0 / statistics.median(traced_per_window.raw)))
    return finish(metrics_, measured_, ops, checks, tracer, d, layers, quality)


def overhead(untraced: float, traced: float) -> dict:
    return {
        "trace.windows_per_s.untraced": untraced,
        "trace.windows_per_s.traced": traced,
        "trace.overhead_windows_per_s": traced - untraced,
        "trace.overhead_pct": 100.0 * (untraced - traced) / untraced,
    }


# -- result -------------------------------------------------------------------


def _ok(check) -> bool:
    return check.get("ok", False) if isinstance(check, dict) else bool(check)


def finish(e2e_metrics, measured, ops: Ops, checks: dict, tracer, d: Path, layers=None,
           quality=None) -> dict:
    correct = (e2e_metrics is not None and ops.failed == 0
               and all(_ok(c) for k, c in checks.items() if k != "error"))
    if layers is not None:
        chosen = {k: {"value": float(layers[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()}
        tracer.write(d / "trace.json")
    elif e2e_metrics is not None:
        chosen = {k: {"value": float(e2e_metrics[k]), "unit": u}
                  for k, u in END_TO_END_UNITS.items()}
    else:
        chosen = {}
    result = {"correct": bool(correct), "attempted": ops.attempted, "failed": ops.failed,
              "metrics": chosen, "checks": checks, "quality": quality or {},
              "measured": measured or {},
              "env": environment()}
    (d / "result.json").write_text(json.dumps(result, indent=1))
    return result


# -- entry --------------------------------------------------------------------


def prep(w: Workload, seed: int, d: Path) -> None:
    values = series(w, seed)
    save_csv(d / "series.csv", values)
    if w.kind == "forecast":
        out = train(SeriesDataset(values[: w.ckpt_rows]), model_config(w, seed, epochs=1))
        checkpoint.save(d / "model.sdgl", out.model, out.scaler)
    (d / "prep.json").write_text(json.dumps({"fingerprint": fingerprint.check()}))


def main() -> int:
    ap = argparse.ArgumentParser(description="prepare or measure one workload")
    ap.add_argument("phase", choices=("prep", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(FULL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    w = (TINY if args.tiny else FULL)[args.workload]
    if args.phase == "prep":
        prep(w, args.seed, args.dir)
        return 0
    measure = measure_train if w.kind == "train" else measure_forecast
    measure(w, args.seed, args.dir, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
