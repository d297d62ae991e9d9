"""Frozen fixed-seed outputs of five model configs, in eval and training mode.

A refactor of the network must keep its forward values and gradients. This
test recomputes, for each config and mode, the loss, the prediction and every
parameter gradient of one batch, and compares them with
``reference_outputs.json``. Each array is stored as its L2 norm and its
projection on a fixed random unit vector; both must match within ``RTOL`` of
the array's norm. Reordering a float64 sum moves them by about 1e-13; a change
to the math moves them by far more.

To store new references after a change that is meant to alter the outputs:

    PYTHONPATH=src python3 tests/test_reference_outputs.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from sdgl.autodiff import Tape, Tensor
from sdgl.model import ModelConfig, SDGLModel, hybrid_loss

REFERENCE = Path(__file__).resolve().parent / "reference_outputs.json"
RTOL = 1e-11
BATCH = 6

BASE = dict(n_nodes=5, horizon=3, embed_dim=8, heads=2, channels=8, depth=2,
            dropout_keep=0.9, lambda_reg=0.5, gamma=0.01, seed=3)
CONFIGS = {
    "default": dict(window=19, layers=2),
    "no_dyadj": dict(window=19, layers=2, ablation=("no_dyadj",)),
    # the layers shorten 30 -> 24 -> 18 -> 6, so the skips of layers 1 and 2
    # are longer than the last layer's output
    "no_ifm_growth1.5": dict(window=30, layers=3, growth=1.5, ablation=("no_ifm",)),
    "growth3": dict(window=40, layers=2, growth=3.0),
    "ifm_plus_depth3": dict(window=19, layers=2, depth=3, ablation=("ifm_plus",)),
}
MODES = ("eval", "train")


def _summary(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    probe = np.random.default_rng(12345).standard_normal(a.size)
    return {"norm": float(np.linalg.norm(a)), "probe": float(a @ probe / np.linalg.norm(probe))}


def compute(name: str, mode: str) -> dict:
    """Loss, prediction and gradients of one fixed batch on a fresh model."""
    cfg = ModelConfig(**{**BASE, **CONFIGS[name]})
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((BATCH, cfg.n_nodes, cfg.window))
    y = rng.standard_normal((BATCH, cfg.n_nodes, cfg.horizon))
    model = SDGLModel(cfg)
    tape = Tape()
    with tape:
        res = model.forward(Tensor(x), training=mode == "train")
        loss = hybrid_loss(res.prediction, Tensor(y), res.reg_loss, cfg.lambda_reg)
    tape.backward(loss)
    return {
        "loss": loss.item(),
        "prediction": _summary(res.prediction.data),
        "grad": {k: _summary(p.grad) if p.grad is not None else None
                 for k, p in sorted(model.parameters().items())},
    }


def _reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _assert_summary(got, ref, what: str) -> None:
    assert (got is None) == (ref is None), f"{what}: gradient presence differs"
    if ref is None:
        return
    tol = RTOL * ref["norm"]
    assert abs(got["norm"] - ref["norm"]) <= tol, f"{what}: norm {got['norm']!r} vs {ref['norm']!r}"
    assert abs(got["probe"] - ref["probe"]) <= tol, f"{what}: probe {got['probe']!r} vs {ref['probe']!r}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_reference(name, mode):
    ref = _reference()[name][mode]
    got = compute(name, mode)
    assert abs(got["loss"] - ref["loss"]) <= RTOL * abs(ref["loss"])
    _assert_summary(got["prediction"], ref["prediction"], "prediction")
    assert sorted(got["grad"]) == sorted(ref["grad"])
    for k, r in ref["grad"].items():
        _assert_summary(got["grad"][k], r, f"grad {k}")


def test_reference_covers_every_config_and_mode():
    assert {name: sorted(modes) for name, modes in _reference().items()} == {
        name: sorted(MODES) for name in CONFIGS
    }


if __name__ == "__main__":
    out = {name: {mode: compute(name, mode) for mode in MODES} for name in sorted(CONFIGS)}
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
