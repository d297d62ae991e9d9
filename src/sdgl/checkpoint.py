"""Checkpoint persistence.

Little-endian binary layout:

    magic bytes  b"SDGL"
    u32          format version (currently 1)
    u64 + bytes  length-prefixed UTF-8 JSON header: config, step counter,
                 dropout RNG state, tensor count
    repeated     per-tensor record: u32 name length, name bytes, u32 rank,
                 rank x u64 dims, row-major f64 payload

Save followed by load reproduces forward outputs bit-identically.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import Scaler
from .model import ModelConfig, SDGLModel

MAGIC = b"SDGL"
VERSION = 1


class CheckpointError(ValueError):
    """File is not a valid checkpoint."""


@dataclass
class Checkpoint:
    model: SDGLModel
    scaler: Scaler
    step: int


def save(path, model: SDGLModel, scaler: Scaler) -> None:
    tensors = dict(model.state_tensors())
    tensors["scaler.mean"] = Tensor(scaler.mean)
    tensors["scaler.std"] = Tensor(scaler.std)
    header = {
        "config": model.config.to_dict(),
        "step": model.step_count,
        "rng": _encode_rng_state(model.dropout_rng.get_state()),
        "rng_seed": model.dropout_rng.seed,
        "tensor_count": len(tensors),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name, t in sorted(tensors.items()):
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            dims = t.data.shape
            fh.write(struct.pack("<I", len(dims)))
            for d in dims:
                fh.write(struct.pack("<Q", d))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def _read(fh, size: int, path, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CheckpointError(
            f"{path}: truncated in {what}: needs {size} bytes, {len(data)} left"
        )
    return data


def _unpack(fh, fmt: str, path, what: str) -> int:
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt), path, what))[0]


def _field(header: dict, key: str, kind: type, path):
    value = header.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CheckpointError(f"{path}: header field {key!r}: expected {kind.__name__}, "
                              f"got {value!r:.60}")
    return value


def load(path) -> Checkpoint:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not an SDGL checkpoint")
        version = _unpack(fh, "<I", path, "format version")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        hlen = _unpack(fh, "<Q", path, "header length")
        try:
            header = json.loads(_read(fh, hlen, path, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: header is not valid JSON: {exc}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, "
                                  "not an object")
        tensors: dict[str, np.ndarray] = {}
        for k in range(_field(header, "tensor_count", int, path)):
            nlen = _unpack(fh, "<I", path, f"name length of record {k}")
            name = _read(fh, nlen, path, f"name of record {k}").decode("utf-8", "replace")
            rank = _unpack(fh, "<I", path, f"rank of tensor {name!r}")
            dims = tuple(_unpack(fh, "<Q", path, f"shape of tensor {name!r}") for _ in range(rank))
            count = int(np.prod(dims)) if dims else 1
            payload = _read(fh, count * 8, path, f"tensor {name!r}")
            data = np.frombuffer(payload, dtype="<f8").reshape(dims)
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
            tensors[name] = data.astype(np.float64)

    config = _field(header, "config", dict, path)
    try:
        model = SDGLModel(ModelConfig.from_dict(config))
    except (TypeError, ValueError) as exc:  # an unknown, mistyped or invalid setting
        raise CheckpointError(f"{path}: header field 'config': {exc}") from None
    model.step_count = _field(header, "step", int, path)
    rng = _field(header, "rng", dict, path)
    try:
        model.dropout_rng.set_state(_decode_rng_state(rng))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: header field 'rng': {exc!r}") from None
    state = model.state_tensors()
    expected = {name: t.data.shape for name, t in state.items()}
    expected["scaler.mean"] = expected["scaler.std"] = (model.config.n_nodes,)
    unexpected = sorted(tensors.keys() - expected.keys())
    if unexpected:
        raise CheckpointError(f"{path}: unexpected tensor record {unexpected[0]!r}")
    for name, shape in expected.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor record {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}"
            )
    for name, t in state.items():
        t.data = tensors[name].copy()
    scaler = Scaler(tensors["scaler.mean"], tensors["scaler.std"])
    return Checkpoint(model=model, scaler=scaler, step=model.step_count)


def _encode_rng_state(state: dict) -> dict:
    """Philox state contains numpy integer arrays; make it JSON-safe."""

    def enc(v):
        if isinstance(v, dict):
            return {k: enc(x) for k, x in v.items()}
        if isinstance(v, np.ndarray):
            return {"__ndarray__": v.tolist(), "dtype": str(v.dtype)}
        if isinstance(v, (np.integer,)):
            return int(v)
        return v

    return enc(state)


def _decode_rng_state(state: dict):
    def dec(v):
        if isinstance(v, dict):
            if "__ndarray__" in v:
                return np.array(v["__ndarray__"], dtype=v["dtype"])
            return {k: dec(x) for k, x in v.items()}
        return v

    return dec(state)
