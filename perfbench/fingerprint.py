"""Fixed-seed forward and gradient fingerprint of one train_small batch.

    python3 perfbench/fingerprint.py           # compare with fingerprint.json
    python3 perfbench/fingerprint.py --write   # store a new reference

The fingerprint holds the loss, the regularizer, and for the prediction, the
dynamic graphs and every parameter gradient their L2 norm and their
projection on a fixed random unit vector. Comparison is relative with
``RTOL``: reordering a float64 sum (e.g. einsum to BLAS) moves these by
1e-12 at most, while a change to the math moves them by far more.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from sdgl import ModelConfig, PlantedGraphSpec, SDGLModel, hybrid_loss, synth_generate, window_split
from sdgl.autodiff import Tape, Tensor

REFERENCE = Path(__file__).resolve().parent / "fingerprint.json"
SEED = 7
RTOL = 1e-9


def _summary(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    probe = np.random.default_rng(12345).standard_normal(a.size)
    return {"norm": float(np.linalg.norm(a)), "probe": float(a @ probe / np.linalg.norm(probe))}


def compute() -> dict:
    """Forward + backward of the first 64 training windows, train_small config."""
    dataset = synth_generate(PlantedGraphSpec(n_nodes=10, edge_prob=0.2, alpha=0.7, noise_std=0.2),
                             t_total=400, seed=SEED).dataset
    cfg = ModelConfig(n_nodes=10, window=19, horizon=3, batch_size=64, channels=16, layers=2,
                      lambda_reg=2.0, gamma=0.001, seed=SEED)
    splits = window_split(dataset, cfg.window, cfg.horizon)
    x = splits.scaler.transform_windows(splits.train.inputs[:64])
    y = splits.scaler.transform_windows(splits.train.targets[:64])
    model = SDGLModel(cfg)
    tape = Tape()
    with tape:
        res = model.forward(Tensor(x), training=True)
        loss = hybrid_loss(res.prediction, Tensor(y), res.reg_loss, cfg.lambda_reg)
    tape.backward(loss)
    return {
        "loss": loss.item(),
        "reg_loss": res.reg_loss.item(),
        "prediction": _summary(res.prediction.data),
        "dynamic_graphs": _summary(res.dynamic_graphs.values.data),
        "grad": {name: _summary(p.grad) if p.grad is not None else None
                 for name, p in sorted(model.parameters().items())},
    }


def compare(got: dict, ref: dict) -> float:
    """Largest deviation found, in units of RTOL-scaled reference size.

    A value above 1 fails. Norms and scalars compare relative to themselves;
    a projection compares relative to its array's norm, which bounds it.
    """
    worst = 0.0

    def rel(a, b, scale):
        nonlocal worst
        worst = max(worst, abs(a - b) / (RTOL * max(abs(scale), 1e-300)))

    def summary(g, r):
        if (g is None) != (r is None):
            raise ValueError("gradient presence differs from the reference")
        if r is not None:
            rel(g["norm"], r["norm"], r["norm"])
            rel(g["probe"], r["probe"], r["norm"])

    rel(got["loss"], ref["loss"], ref["loss"])
    rel(got["reg_loss"], ref["reg_loss"], ref["reg_loss"])
    summary(got["prediction"], ref["prediction"])
    summary(got["dynamic_graphs"], ref["dynamic_graphs"])
    if sorted(got["grad"]) != sorted(ref["grad"]):
        raise ValueError("parameter names differ from the reference")
    for name, r in ref["grad"].items():
        summary(got["grad"][name], r)
    return worst


def check() -> dict:
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    try:
        worst = compare(compute(), ref)
    except ValueError as exc:
        return {"ok": False, "error": str(exc)}
    return {"ok": worst <= 1.0, "worst_over_rtol": worst, "rtol": RTOL}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="store a new reference")
    args = ap.parse_args()
    if args.write:
        REFERENCE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
        print(f"wrote {REFERENCE}")
        return 0
    result = check()
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
