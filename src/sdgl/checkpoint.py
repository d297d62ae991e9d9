"""Checkpoint persistence.

Little-endian binary layout:

    magic bytes  b"SDGL"
    u32          format version (currently 1)
    u64 + bytes  length-prefixed UTF-8 JSON header: config, tensor count
    repeated     per-tensor record: u32 name length, name bytes, u32 rank
                 (at most 32), rank x u64 dims, row-major f64 payload; each name
                 once, and nothing follows the last record

The records are the model's ``state_tensors``, the tensors its config's
forward pass reads (``model.state_shapes``), and the scaler's mean and std:
an ablated model's checkpoint has no record of the parts it does not read,
and a record the config does not name is refused.
``load`` copies each record into its view of the new model's state buffer.
Save followed by load reproduces the eval-mode forward pass bit-identically.
A checkpoint holds no training state: a loaded model's dropout stream starts
where a fresh model's does.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor
from .data import Scaler, _replacing
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
    model._attach()  # a tensor rebound to another shape raises before a file opens
    tensors = model.state_tensors()
    tensors["scaler.mean"] = Tensor(scaler.mean)
    tensors["scaler.std"] = Tensor(scaler.std)
    header = {"config": asdict(model.config), "tensor_count": len(tensors)}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with _replacing(path, "wb") as fh:
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


def _read(fh, end: int, size: int, path, what: str) -> bytes:
    """The next ``size`` bytes of a file of ``end`` bytes; a size beyond its end
    is never read."""
    left = end - fh.tell()
    if size > left:
        raise CheckpointError(f"{path}: truncated in {what}: needs {size} bytes, {left} left")
    return fh.read(size)


def _unpack(fh, end: int, fmt: str, path, what: str) -> int:
    return struct.unpack(fmt, _read(fh, end, struct.calcsize(fmt), path, what))[0]


def _field(header: dict, key: str, kind: type, path):
    value = header.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CheckpointError(f"{path}: header field {key!r}: expected {kind.__name__}, "
                              f"got {value!r:.60}")
    return value


def load(path) -> Checkpoint:
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size  # once: the file is read, never written
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not an SDGL checkpoint")
        version = _unpack(fh, end, "<I", path, "format version")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        hlen = _unpack(fh, end, "<Q", path, "header length")
        blob = _read(fh, end, hlen, path, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: header is not valid JSON: {exc}") from None
        except RecursionError:
            raise CheckpointError(f"{path}: header is nested past the JSON parser's "
                                  "recursion depth limit") from None
        except ValueError:  # the parser's one other error: its syntax is valid
            raise CheckpointError(f"{path}: header holds an integer past Python's int-to-str "
                                  f"limit of {sys.get_int_max_str_digits()} digits") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, "
                                  "not an object")
        # name -> (dims, flat values), reshaped only once the dims are the expected ones
        tensors: dict[str, tuple[tuple[int, ...], np.ndarray]] = {}
        for k in range(_field(header, "tensor_count", int, path)):
            nlen = _unpack(fh, end, "<I", path, f"name length of record {k}")
            name = _read(fh, end, nlen, path, f"name of record {k}").decode("utf-8", "replace")
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor record {name!r}")
            rank = _unpack(fh, end, "<I", path, f"rank of tensor {name!r}")
            if rank > 32:  # numpy before 2.0 allows at most 32 axes
                raise CheckpointError(f"{path}: tensor {name!r} has rank {rank}, more than 32")
            dims = tuple(_unpack(fh, end, "<Q", path, f"shape of tensor {name!r}")
                         for _ in range(rank))
            payload = _read(fh, end, math.prod(dims) * 8, path, f"tensor {name!r}")
            data = np.frombuffer(payload, dtype="<f8")
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
            tensors[name] = dims, data
        trailing = len(fh.read())
        if trailing:
            raise CheckpointError(f"{path}: {trailing} unexpected bytes after the last record")

    settings = _field(header, "config", dict, path)
    try:
        config = ModelConfig(**settings)
    except (TypeError, ValueError) as exc:  # an unknown, mistyped or invalid setting
        raise CheckpointError(f"{path}: header field 'config': {exc}") from None
    # Each record is checked against the config before the model is built, so a file
    # that lacks a tensor its config names allocates no model. Under ``no_dyadj`` the
    # model still holds the dynamic learner's two N x N weights, which the file does
    # not. The expected tensors come one at a time: the first one missing fails.
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
    values = {name: data.reshape(dims) for name, (dims, data) in tensors.items()}
    # ``save`` writes a scaler's std, which is floored, so a value below the floor is corrupt
    scaler = Scaler(values["scaler.mean"].copy(), values["scaler.std"])  # records are read-only
    low = scaler.std != values["scaler.std"]
    if low.any():
        raise CheckpointError(f"{path}: tensor 'scaler.std' holds {values['scaler.std'][low][0]}"
                              f", below the scaler's floor of {scaler.std[low][0]}")
    model = SDGLModel(config)
    for name, t in model.state_tensors().items():
        t.data[...] = values[name]
    return Checkpoint(model=model, scaler=scaler)
