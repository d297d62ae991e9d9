"""Checkpoint persistence.

Little-endian binary layout:

    magic bytes  b"SDGL"
    u32          format version (currently 1)
    u64 + bytes  length-prefixed UTF-8 JSON header: config, step counter,
                 dropout RNG state, tensor count
    repeated     per-tensor record: u32 name length, name bytes, u32 rank
                 (at most 32), rank x u64 dims, row-major f64 payload; nothing follows
                 the last record

Save followed by load reproduces forward outputs bit-identically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import Scaler
from .model import ModelConfig, SDGLModel, state_shapes

MAGIC = b"SDGL"
VERSION = 1


class CheckpointError(ValueError):
    """File is not a valid checkpoint."""


@dataclass
class Checkpoint:
    model: SDGLModel
    scaler: Scaler


def save(path, model: SDGLModel, scaler: Scaler) -> None:
    tensors = dict(model.state_tensors())
    tensors["scaler.mean"] = Tensor(scaler.mean)
    tensors["scaler.std"] = Tensor(scaler.std)
    header = {
        "config": model.config.to_dict(),
        "step": model.step_count,
        "rng": model.dropout_rng.get_state(),
        "tensor_count": len(tensors),
    }
    # the Philox state holds ndarrays besides plain JSON values
    blob = json.dumps(header, sort_keys=True, default=lambda a: {
        "__ndarray__": a.tolist(), "dtype": str(a.dtype)}).encode("utf-8")
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
    """The next ``size`` bytes; a size beyond the end of the file is never read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise CheckpointError(f"{path}: truncated in {what}: needs {size} bytes, {left} left")
    return fh.read(size)


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
        # name -> (dims, flat values), reshaped only once the dims are the expected ones
        tensors: dict[str, tuple[tuple[int, ...], np.ndarray]] = {}
        for k in range(_field(header, "tensor_count", int, path)):
            nlen = _unpack(fh, "<I", path, f"name length of record {k}")
            name = _read(fh, nlen, path, f"name of record {k}").decode("utf-8", "replace")
            rank = _unpack(fh, "<I", path, f"rank of tensor {name!r}")
            if rank > 32:  # numpy before 2.0 allows at most 32 axes
                raise CheckpointError(f"{path}: tensor {name!r} has rank {rank}, more than 32")
            dims = tuple(_unpack(fh, "<Q", path, f"shape of tensor {name!r}") for _ in range(rank))
            payload = _read(fh, math.prod(dims) * 8, path, f"tensor {name!r}")
            data = np.frombuffer(payload, dtype="<f8")
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
            tensors[name] = dims, data.astype(np.float64)
        trailing = len(fh.read())
        if trailing:
            raise CheckpointError(f"{path}: {trailing} unexpected bytes after the last record")

    settings = _field(header, "config", dict, path)
    try:
        config = ModelConfig.from_dict(settings)
        config.validate()
    except (TypeError, ValueError) as exc:  # an unknown, mistyped or invalid setting
        raise CheckpointError(f"{path}: header field 'config': {exc}") from None
    # Each record is checked against the config before the model is built, so
    # the model allocates no more than the file holds. The expected tensors
    # come one at a time: a config asking for more than the file has fails at
    # the first one missing.
    scaler_shapes = [(name, (config.n_nodes,)) for name in ("scaler.mean", "scaler.std")]
    seen = set()
    for name, shape in itertools.chain(state_shapes(config), scaler_shapes):
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor record {name!r}")
        if tensors[name][0] != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tensors[name][0]}, expected {shape}"
            )
        seen.add(name)
    unexpected = sorted(tensors.keys() - seen)
    if unexpected:
        raise CheckpointError(f"{path}: unexpected tensor record {unexpected[0]!r}")
    model = SDGLModel(config)
    model.step_count = _field(header, "step", int, path)
    rng = _field(header, "rng", dict, path)
    # a damaged state fails in numpy's dtype parser (SyntaxError, TypeError), array
    # conversion (OverflowError, ValueError) or Philox state setter (IndexError, ...)
    try:
        model.dropout_rng.set_state(_decode_rng_state(rng))
    except (ArithmeticError, LookupError, SyntaxError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: header field 'rng': {exc!r}") from None
    values = {name: data.reshape(dims) for name, (dims, data) in tensors.items()}
    for name, t in model.state_tensors().items():
        t.data = values[name]
    scaler = Scaler(values["scaler.mean"], values["scaler.std"])
    return Checkpoint(model=model, scaler=scaler)


def _decode_rng_state(state: dict):
    def dec(v):
        if isinstance(v, dict):
            if "__ndarray__" in v:
                return np.array(v["__ndarray__"], dtype=v["dtype"])
            return {k: dec(x) for k, x in v.items()}
        return v

    return dec(state)
