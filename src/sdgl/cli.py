"""Command-line interface: train, eval, export-graphs, synth.

Configuration precedence is flags > config file > built-in defaults; every
command writes a manifest with the effective configuration, a dataset
fingerprint and wall-clock timings, sufficient to reproduce the run.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import checkpoint as ckpt
from .data import (
    GenerationError,
    ParseError,
    PlantedGraphSpec,
    load_csv,
    make_windows,
    save_csv,
    synth_generate,
    window_split,
)
from .model import ABLATION_FLAGS, DivergenceError, ModelConfig, evaluate, train
from .static_graph import ConfigError, build_static_graph

log = logging.getLogger("sdgl")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _setup_logging() -> None:
    level = os.environ.get("SDGL_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_manifest(out_dir: Path, command: str, config: dict, data_path,
                    outputs: dict, started: float) -> Path:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "dataset": None if data_path is None else {
            "path": str(data_path),
            "sha256": _sha256(data_path),
        },
        "outputs": {k: str(v) for k, v in outputs.items()},
        "wall_clock_seconds": time.time() - started,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _build_config(args, n_nodes: int) -> ModelConfig:
    settings: dict = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object, "
                              f"got {type(loaded).__name__}")
        settings.update(loaded)
    overrides = {
        "seed": args.seed,
        "epochs": args.epochs,
        "lambda_reg": getattr(args, "lambda_reg", None),
        "gamma": args.gamma,
        "momentum": args.momentum,
        "heads": args.heads,
        "layers": args.layers,
        "horizon": args.horizon,
    }
    for key, value in overrides.items():
        if value is not None:
            settings[key] = value
    if args.ablate:
        settings["ablation"] = list(args.ablate)
    settings["n_nodes"] = n_nodes
    try:
        config = ModelConfig.from_dict(settings)
        config.validate()
    except TypeError as exc:  # a field of the wrong type, or an unknown one
        raise ConfigError(f"config file {args.config}: {exc}") from exc
    return config


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"data file not found: {p}")
    return p


def _load_checkpoint_and_data(args):
    """Data path, dataset, model and scaler; the node counts must agree."""
    data_path = _require_file(args.data)
    dataset = load_csv(data_path)
    loaded = ckpt.load(args.checkpoint)
    model = loaded.model
    if dataset.n_nodes != model.config.n_nodes:
        raise ConfigError(
            f"node-count mismatch: checkpoint has {model.config.n_nodes}, "
            f"dataset has {dataset.n_nodes}"
        )
    return data_path, dataset, model, loaded.scaler


# -- subcommands ---------------------------------------------------------------


def cmd_train(args) -> int:
    started = time.time()
    data_path = _require_file(args.data)
    dataset = load_csv(data_path)
    config = _build_config(args, dataset.n_nodes)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    epochs_log = out_dir / "epochs.csv"
    with open(epochs_log, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_MAE,val_RMSE,val_MAPE\n")

        def record(row):
            log.info("epoch %d: train_loss=%.6f val_MAE=%.6f",
                     row["epoch"], row["train_loss"], row["val_MAE"])
            cells = [str(row["epoch"])] + [
                "" if row[k] is None else _fmt(row[k])
                for k in ("train_loss", "val_MAE", "val_RMSE", "val_MAPE")
            ]
            fh.write(",".join(cells) + "\n")
            fh.flush()

        result = train(dataset, config, log=record)

    ckpt_path = out_dir / "checkpoint.sdgl"
    ckpt.save(ckpt_path, result.model, result.scaler)
    _write_manifest(out_dir, "train", config.to_dict(), data_path,
                    {"checkpoint": ckpt_path, "epochs_log": epochs_log}, started)
    log.info("checkpoint written to %s", ckpt_path)
    return EXIT_OK


def _metrics_lines(report: dict) -> list[str]:
    lines = []
    for k, row in enumerate(report["per_horizon"], start=1):
        for name, value in row.items():
            lines.append(f"horizon_{k}.{name}: {'undefined' if value is None else _fmt(value)}")
    for name, value in report["average"].items():
        lines.append(f"average.{name}: {'undefined' if value is None else _fmt(value)}")
    return lines


def cmd_eval(args) -> int:
    started = time.time()
    data_path, dataset, model, scaler = _load_checkpoint_and_data(args)
    if args.split == "all":
        windows = make_windows(dataset.values, model.config.window, model.config.horizon)
    else:
        windows = getattr(window_split(dataset, model.config.window, model.config.horizon),
                          args.split)
    report = evaluate(model, scaler, windows)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "metrics.json"
    text_path = out_dir / "metrics.txt"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    text_path.write_text("\n".join(_metrics_lines(report)) + "\n")
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_metrics_lines(report)))
    _write_manifest(out_dir, "eval", model.config.to_dict(), data_path,
                    {"metrics_json": json_path, "metrics_text": text_path}, started)
    return EXIT_OK


def cmd_export_graphs(args) -> int:
    started = time.time()
    data_path, dataset, model, scaler = _load_checkpoint_and_data(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = [f"node_{i}" for i in range(model.config.n_nodes)]

    outputs = {}
    static = build_static_graph(model.embeddings.m_static).values.data
    static_path = out_dir / "static_adjacency.csv"
    save_csv(static_path, static, header)
    outputs["static"] = static_path

    windows = make_windows(dataset.values, model.config.window, model.config.horizon)
    indices = args.windows or []
    for idx in indices:
        if idx < 0 or idx >= len(windows):
            raise ConfigError(
                f"window index {idx} out of range [0, {len(windows) - 1}]"
            )
    if indices:
        if "no_dyadj" in model.config.ablation:
            raise ConfigError(
                "checkpoint was trained without the dynamic branch; "
                "no dynamic matrices to export"
            )
        batch = scaler.transform_windows(windows.inputs[indices])
        out = model.forward(batch, training=False)
        for pos, idx in enumerate(indices):
            path = out_dir / f"dynamic_adjacency_{idx:06d}.csv"
            save_csv(path, out.dynamic_graphs.values.data[pos], header)
            outputs[f"dynamic_{idx}"] = path

    if args.threshold is not None:
        edge_path = out_dir / "static_edges.csv"
        with open(edge_path, "w", encoding="utf-8") as fh:
            fh.write("source,target,weight\n")
            for i, j in zip(*(static > args.threshold).nonzero()):
                fh.write(f"{i},{j},{_fmt(static[i, j])}\n")
        outputs["edges"] = edge_path

    _write_manifest(out_dir, "export-graphs", model.config.to_dict(), data_path,
                    outputs, started)
    log.info("exported %d files to %s", len(outputs), out_dir)
    return EXIT_OK


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


def cmd_synth(args) -> int:
    started = time.time()
    spec = PlantedGraphSpec(
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        alpha=args.alpha,
        seasonal_period=args.period,
        noise_std=args.noise,
        switch_intervals=_parse_intervals(args.switch),
        switch_fraction=args.switch_fraction,
    )
    result = synth_generate(spec, args.steps, args.seed if args.seed is not None else 0)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    data_path = out_dir / "data.csv"
    truth_path = out_dir / "truth_adjacency.csv"
    save_csv(data_path, result.dataset.values)
    save_csv(truth_path, result.adjacency)
    outputs = {"data": data_path, "truth": truth_path}
    if result.secondary_adjacency is not None:
        secondary_path = out_dir / "secondary_adjacency.csv"
        save_csv(secondary_path, result.secondary_adjacency)
        outputs["secondary"] = secondary_path
    schedule_path = out_dir / "schedule.json"
    schedule_path.write_text(json.dumps({"switch_intervals": list(map(list, result.schedule))}))
    outputs["schedule"] = schedule_path

    spec_dict = {
        "nodes": args.nodes, "steps": args.steps, "seed": args.seed,
        "edge_prob": args.edge_prob, "alpha": args.alpha, "period": args.period,
        "noise": args.noise, "switch": args.switch,
        "switch_fraction": args.switch_fraction,
    }
    _write_manifest(out_dir, "synth", spec_dict, None, outputs, started)
    log.info("synthetic dataset written to %s", data_path)
    return EXIT_OK


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
    p.add_argument("--ablate", action="append", choices=ABLATION_FLAGS)


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParseError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (DivergenceError, GenerationError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
