"""Command-line interface: train, eval, export-graphs, synth.

Configuration precedence is flags > config file > built-in defaults; every
command writes a manifest with the effective configuration, a dataset
fingerprint and wall-clock timings, sufficient to reproduce the run (``synth``'s
also records the seasonal forcing it drew: amp, phase and period). Its
``phase_seconds`` gives the time of each phase the command ran (load,
windowing, train, evaluate or generate, and write, the outputs and the
manifest's dataset digest), measured on the clock of ``wall_clock_seconds``.
A command only checks its inputs and computes its results in memory;
``_write_outputs`` then puts its files in place, so a failed command leaves
no output behind.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import logging
import os
import platform
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .data import (
    GenerationError,
    ParseError,
    PlantedGraphSpec,
    _in_place,
    load_csv,
    make_windows,
    save_csv,
    synth_generate,
    window_split,
)
from .model import ABLATION_FLAGS, EVAL_BATCH, DivergenceError, ModelConfig, evaluate, train
from .static_graph import ConfigError, build_static_graph

log = logging.getLogger("sdgl")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _setup_logging() -> None:
    level = logging.getLevelName(os.environ.get("SDGL_LOG", "INFO").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _text(content: str):
    """A writer that puts ``content`` in the file at its path."""
    return lambda path: path.write_text(content, encoding="utf-8")


def _environment() -> dict:
    """The numpy and BLAS build, the cores and the thread settings of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no ``mode``
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "usable_cores": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                         else None),
        **{var: os.environ.get(var)
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@contextmanager
def _phase(seconds: dict, name: str):
    """Store the time the block takes as ``seconds[name]``."""
    start = time.perf_counter()
    yield
    seconds[name] = time.perf_counter() - start


def _write_outputs(out_dir: Path, command: str, argv: list, entries: dict, data_path,
                   files: dict, started: float, seconds: dict) -> None:
    """Put ``files`` ({output key: (file name, writer)}) and the manifest in ``out_dir``.

    Each writer fills a temporary path in ``out_dir``. Only after all of them
    have succeeded is each temporary renamed over its file name, the manifest
    last; a file already at that name is first moved aside to ``.<name>.old``.
    On any failure the temporaries, the files already renamed and the
    directories this call made are removed, the files moved aside are moved
    back, and the error propagates. Once the manifest is in place the files
    moved aside are deleted. ``checkpoint.save`` and ``save_csv`` write the
    temporary they are handed, with no temporary of their own, so each file
    is renamed once. An output path that is a directory is refused before
    anything is written, since it would be moved aside like a file and could
    not be deleted. The manifest records ``argv``, the arguments the command
    was parsed from, and the command's ``entries`` (its ``config``, and
    ``synth``'s ``forcing``), and takes ``seconds``, the phase times so far,
    with the write phase added, and the time since ``started``, both on
    ``time.perf_counter``.
    """
    writing = time.perf_counter()
    manifest = {
        "command": command,
        "argv": argv,
        **entries,
        "dataset": None if data_path is None else {
            "path": str(data_path),
            "sha256": _sha256(data_path),
        },
        "environment": _environment(),
        "outputs": {key: str(out_dir / name) for key, (name, _) in files.items()},
    }

    def write_manifest(path: Path) -> None:
        # the last writer: every other output is in its temporary by now
        now = time.perf_counter()
        manifest["phase_seconds"] = {**seconds, "write": now - writing}
        manifest["wall_clock_seconds"] = now - started
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")

    jobs = [(out_dir / name, write) for name, write in files.values()]
    jobs.append((out_dir / "manifest.json", write_manifest))
    for path, _ in jobs:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", str(path))
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    on_disk: list[Path] = []  # what this call has put in out_dir so far
    aside: list[tuple[Path, Path]] = []  # (earlier file moved aside, its name)
    try:
        with _in_place():  # so checkpoint.save and save_csv make no temporary of their own
            for path, write in jobs:
                on_disk.append(path.with_name(f".{path.name}.tmp"))
                write(on_disk[-1])
        for k, (path, _) in enumerate(jobs):
            old = path.with_name(f".{path.name}.old")
            with suppress(FileNotFoundError):
                os.replace(path, old)
                aside.append((old, path))
            os.replace(on_disk[k], path)
            on_disk[k] = path
    except BaseException:
        for path in on_disk:
            path.unlink(missing_ok=True)
        for old, path in aside:
            os.replace(old, path)
        for d in made:
            d.rmdir()
        raise
    for old, _ in aside:
        old.unlink()
    log.info("%s: wrote %d files to %s", command, len(jobs), out_dir)


def _build_config(args, n_nodes: int) -> ModelConfig:
    """Flags over the config file over defaults; ``n_nodes`` is the dataset's.

    An error is prefixed with the config file when the setting it names (its
    first word) came from the file, that is was set there and not by a flag.
    """
    settings: dict = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text())
        # a file nested past the parser's depth limit raises RecursionError, and
        # an integer past Python's int-to-str limit a plain ValueError
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(settings, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object, "
                              f"got {type(settings).__name__}")
    # each config flag's dest is its ModelConfig field
    flags = {f.name: getattr(args, f.name) for f in fields(ModelConfig)
             if getattr(args, f.name, None) is not None}
    from_file = settings.keys() - flags.keys() - {"n_nodes"}
    try:
        return ModelConfig(**{**settings, **flags, "n_nodes": n_nodes})
    except ConfigError as exc:
        if str(exc).split(":")[0] in from_file:
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        raise
    except TypeError as exc:  # only the file can hold an unknown field
        raise ConfigError(f"config file {args.config}: {exc}") from exc


def _require_file(path, what: str = "data") -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {p}")
    return p


def _load_checkpoint_and_data(args):
    """Data path, dataset, model and scaler; the node counts must agree."""
    data_path = _require_file(args.data)
    dataset = load_csv(data_path)
    loaded = ckpt.load(_require_file(args.checkpoint, "checkpoint"))
    model = loaded.model
    if dataset.n_nodes != model.config.n_nodes:
        raise ConfigError(
            f"node-count mismatch: checkpoint has {model.config.n_nodes}, "
            f"dataset has {dataset.n_nodes}"
        )
    return data_path, dataset, model, loaded.scaler


# -- subcommands ---------------------------------------------------------------


_EPOCH_COLUMNS = ("train_loss", "val_MAE", "val_RMSE", "val_MAPE")


def cmd_train(args, seconds: dict) -> tuple[dict, Path | None, dict]:
    with _phase(seconds, "load"):
        data_path = _require_file(args.data)
        dataset = load_csv(data_path)
    config = _build_config(args, dataset.n_nodes)
    result = train(dataset, config, log=lambda row: log.info(
        "epoch %d: %s", row["epoch"], " ".join(f"{k}={row[k]}" for k in _EPOCH_COLUMNS)))
    seconds.update(result.seconds)
    lines = ["epoch," + ",".join(_EPOCH_COLUMNS)] + [
        ",".join([str(row["epoch"])] + ["" if row[k] is None else _fmt(row[k])
                                        for k in _EPOCH_COLUMNS])
        for row in result.history
    ]
    return {"config": asdict(config)}, data_path, {
        "checkpoint": ("checkpoint.sdgl",
                       lambda path: ckpt.save(path, result.model, result.scaler)),
        "epochs_log": ("epochs.csv", _text("".join(line + "\n" for line in lines))),
    }


def _metrics_lines(report: dict) -> list[str]:
    lines = []
    for k, row in enumerate(report["per_horizon"], start=1):
        for name, value in row.items():
            lines.append(f"horizon_{k}.{name}: {'undefined' if value is None else _fmt(value)}")
    for name, value in report["average"].items():
        lines.append(f"average.{name}: {'undefined' if value is None else _fmt(value)}")
    return lines


def cmd_eval(args, seconds: dict) -> tuple[dict, Path | None, dict]:
    with _phase(seconds, "load"):
        data_path, dataset, model, scaler = _load_checkpoint_and_data(args)
    with _phase(seconds, "windowing"):
        if args.split == "all":
            windows = make_windows(dataset.values, model.config.window, model.config.horizon)
        else:
            windows = getattr(window_split(dataset, model.config.window, model.config.horizon),
                              args.split)
    with _phase(seconds, "evaluate"):
        report = evaluate(model, scaler, windows)
    report_json = json.dumps(report, indent=2, sort_keys=True)
    text = "\n".join(_metrics_lines(report))
    print(report_json if args.format == "json" else text)
    return {"config": asdict(model.config)}, data_path, {
        "metrics_json": ("metrics.json", _text(report_json)),
        "metrics_text": ("metrics.txt", _text(text + "\n")),
    }


def cmd_export_graphs(args, seconds: dict) -> tuple[dict, Path | None, dict]:
    with _phase(seconds, "load"):
        data_path, dataset, model, scaler = _load_checkpoint_and_data(args)
    with _phase(seconds, "windowing"):
        windows = make_windows(dataset.values, model.config.window, model.config.horizon)
    indices = args.windows or []
    for idx in indices:
        if idx < 0 or idx >= len(windows):
            raise ConfigError(
                f"window index {idx} out of range [0, {len(windows) - 1}]"
            )
    if indices and "no_dyadj" in model.config.ablation:
        raise ConfigError(
            "checkpoint was trained without the dynamic branch; "
            "no dynamic matrices to export"
        )

    with _phase(seconds, "evaluate"):
        static = build_static_graph(model.embeddings.m_static).values.data
        files = {"static": ("static_adjacency.csv", partial(save_csv, values=static))}
        # the graphs ``forward`` propagates along, as forecasts run it: EVAL_BATCH
        # windows at a time
        for start in range(0, len(indices), EVAL_BATCH):
            chunk = indices[start : start + EVAL_BATCH]
            dynamic = model.forward(scaler.transform_windows(windows.inputs[chunk])).dynamic_graphs
            for idx, matrix in zip(chunk, dynamic.values.data):
                files[f"dynamic_{idx}"] = (f"dynamic_adjacency_{idx:06d}.csv",
                                           partial(save_csv, values=matrix))
    if args.threshold is not None:
        edges = [f"{i},{j},{_fmt(static[i, j])}\n"
                 for i, j in zip(*(static > args.threshold).nonzero())]
        files["edges"] = ("static_edges.csv", _text("source,target,weight\n" + "".join(edges)))
    return {"config": asdict(model.config)}, data_path, files


def _parse_intervals(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        a, _, b = part.partition(":")
        try:
            out.append((int(a), int(b)))
        except ValueError:
            raise ConfigError(f"bad interval {part!r}; expected start:end") from None
    return tuple(out)


def cmd_synth(args, seconds: dict) -> tuple[dict, Path | None, dict]:
    spec = PlantedGraphSpec(
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        alpha=args.alpha,
        seasonal_period=args.period,
        noise_std=args.noise,
        switch_intervals=_parse_intervals(args.switch),
        switch_fraction=args.switch_fraction,
    )
    with _phase(seconds, "generate"):
        result = synth_generate(spec, args.steps, args.seed)
    files = {
        "data": ("data.csv", partial(save_csv, values=result.dataset.values)),
        "truth": ("truth_adjacency.csv", partial(save_csv, values=result.adjacency)),
    }
    if result.secondary_adjacency is not None:
        files["secondary"] = ("secondary_adjacency.csv",
                              partial(save_csv, values=result.secondary_adjacency))
    files["schedule"] = ("schedule.json", _text(
        json.dumps({"switch_intervals": list(map(list, result.schedule))})))
    config = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "out_dir")}
    # the draws the series was generated with, so no reader replays the generator
    forcing = {"amp": result.amp, "phase": result.phase, "period": result.period}
    return {"config": config, "forcing": forcing}, None, files


# -- argument parsing ------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lambda", dest="lambda_reg", type=float,
                   help="graph-regularization weight in the hybrid loss")
    p.add_argument("--gamma", type=float, help="sparsity weight inside the regularizer")
    p.add_argument("--momentum", type=float)
    p.add_argument("--heads", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--ablate", dest="ablation", action="append", choices=ABLATION_FLAGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdgl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", default="runs/train")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out-dir", default="runs/eval")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("export-graphs", help="export learned adjacency matrices as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--windows", type=int, nargs="*", help="window indices for dynamic matrices")
    p.add_argument("--threshold", type=float, help="also write edges above this weight")
    p.add_argument("--out-dir", default="runs/graphs")
    p.set_defaults(fn=cmd_export_graphs)

    p = sub.add_parser("synth", help="generate a planted-graph synthetic dataset")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--steps", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-prob", type=float, default=0.2)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--period", type=int, default=24)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--switch", default="", help="switch intervals, e.g. 500:700,900:1100")
    p.add_argument("--switch-fraction", type=float, default=0.5)
    p.add_argument("--out-dir", default="runs/synth")
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    started, seconds = time.perf_counter(), {}
    try:
        entries, data_path, files = args.fn(args, seconds)
        _write_outputs(Path(args.out_dir), args.command, argv, entries, data_path, files,
                       started, seconds)
    except (ConfigError, ParseError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (DivergenceError, GenerationError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME
    except MemoryError as exc:  # a setting too large to allocate
        log.error("out of memory: %s", exc)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
