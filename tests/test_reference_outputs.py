"""Frozen fixed-seed outputs of five model configs, in eval and training mode.

A refactor of the network must keep its forward values and gradients. This
test recomputes, for each config and mode, the loss, the prediction and every
parameter gradient of one batch, and compares them with
``reference_outputs.json``. Three configs also run ``train`` for two epochs
on a fixed series whose training windows are not a multiple of the batch
size (the ``trained`` mode): each state tensor and the last epoch's
validation MAE are compared. So the dropout stream is pinned across steps, a
short last batch and an epoch boundary, not only within one batch. Each array
is stored as its L2 norm and its projection on a fixed random unit vector;
both must match within ``RTOL`` of the array's norm. Reordering a float64 sum
moves them by about 1e-13; a change to the math moves them by far more.

Run as a script, it compares without pytest and exits 1 on a mismatch; only
``--write`` stores new references, after a change meant to alter the outputs:

    PYTHONPATH=src python3 tests/test_reference_outputs.py           # compare
    PYTHONPATH=src python3 tests/test_reference_outputs.py --write   # store
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sdgl.autodiff import Tape, Tensor
from sdgl.data import SeriesDataset
from sdgl.model import ModelConfig, SDGLModel, hybrid_loss, train

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
# the configs that also run the ``trained`` mode, and its run: 120 steps give
# 51 training windows, three batches of 16 and a last one of 3
TRAINED = ("default", "no_dyadj", "ifm_plus_depth3")
TRAIN_RUN = dict(batch_size=16, epochs=2)
SERIES_STEPS = 120


def _modes(name: str) -> tuple[str, ...]:
    return (*MODES, "trained") if name in TRAINED else MODES


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


def compute_trained(name: str) -> dict:
    """State and last validation MAE of a two-epoch ``train`` on a fixed series."""
    cfg = ModelConfig(**{**BASE, **CONFIGS[name], **TRAIN_RUN})
    series = np.random.default_rng(2024).standard_normal((SERIES_STEPS, cfg.n_nodes)).cumsum(axis=0)
    result = train(SeriesDataset(series), cfg)
    return {
        "val_MAE": result.history[-1]["val_MAE"],
        "state": {k: _summary(t.data) for k, t in result.model.state_tensors().items()},
    }


def _compute(name: str, mode: str) -> dict:
    return compute_trained(name) if mode == "trained" else compute(name, mode)


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


@pytest.mark.parametrize("name", TRAINED)
def test_trained_matches_reference(name):
    ref = _reference()[name]["trained"]
    got = compute_trained(name)
    assert abs(got["val_MAE"] - ref["val_MAE"]) <= RTOL * abs(ref["val_MAE"])
    assert sorted(got["state"]) == sorted(ref["state"])
    for k, r in ref["state"].items():
        _assert_summary(got["state"][k], r, f"state {k}")


def test_reference_covers_every_config_and_mode():
    assert {name: sorted(modes) for name, modes in _reference().items()} == {
        name: sorted(_modes(name)) for name in CONFIGS
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="store new references")
    args = ap.parse_args()
    if args.write:
        out = {name: {mode: _compute(name, mode) for mode in _modes(name)}
               for name in sorted(CONFIGS)}
        REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE}")
        return 0
    checks = {"coverage": test_reference_covers_every_config_and_mode}
    for name in sorted(CONFIGS):
        for mode in MODES:
            checks[f"{name}/{mode}"] = lambda name=name, mode=mode: test_matches_reference(name, mode)
    for name in TRAINED:
        checks[f"{name}/trained"] = lambda name=name: test_trained_matches_reference(name)
    failed = 0
    for what, check in checks.items():
        try:
            check()
        except (AssertionError, KeyError) as exc:
            failed += 1
            print(f"MISMATCH {what}: {exc!r}")
    print(f"{failed} mismatch(es) against {REFERENCE}" if failed else f"outputs match {REFERENCE}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
