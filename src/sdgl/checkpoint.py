"""Checkpoint persistence.

Little-endian binary layout:

    magic bytes  b"SDGL"
    u32          format version (currently 2)
    u64 + bytes  length-prefixed UTF-8 JSON header: {"config": ..., "crc32": ...}
    f64 payload  the model's state buffer, then the scaler's mean and std

The state buffer holds the model's ``state_tensors``, the tensors its config's
forward pass reads, in ``model.state_shapes`` order. The config fixes the
payload's length, so no name, shape or length is stored: ``load`` checks what
is left of the file against the config before it builds the model, then the
payload's CRC32, its finiteness and the scaler's std floor, and copies the
state into the new model's buffer. A file of another format fails by version.
``save`` refuses a scaler of another node count than the model's with
``ShapeError``, before it opens a file.
Save followed by load reproduces the eval-mode forward pass bit-identically.
A checkpoint holds no training state: a loaded model's dropout stream starts
where a fresh model's does.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import ShapeError
from .data import Scaler, _replacing
from .model import ModelConfig, SDGLModel, state_shapes

MAGIC = b"SDGL"
VERSION = 2


class CheckpointError(ValueError):
    """File is not a valid checkpoint."""


@dataclass
class Checkpoint:
    model: SDGLModel
    scaler: Scaler


def save(path, model: SDGLModel, scaler: Scaler) -> None:
    # a tensor rebound to another shape, or a scaler of another node count,
    # raises before a file opens
    model._attach()
    want = (model.config.n_nodes,)
    for name, a in (("scaler.mean", scaler.mean), ("scaler.std", scaler.std)):
        if a.shape != want:
            raise ShapeError(f"save: {name} has shape {a.shape}, the model's "
                             f"{want[0]} nodes need {want}")
    payload = np.concatenate([model._state, scaler.mean, scaler.std]).astype("<f8", copy=False)
    header = {"config": asdict(model.config), "crc32": zlib.crc32(payload)}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(b"".join((MAGIC, struct.pack("<IQ", VERSION, len(blob)), blob, payload)))


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
        settings = _field(header, "config", dict, path)
        crc = _field(header, "crc32", int, path)
        try:
            config = ModelConfig(**settings)
        except (TypeError, ValueError) as exc:  # an unknown, mistyped or invalid setting
            raise CheckpointError(f"{path}: header field 'config': {exc}") from None
        # checked before the model is built, so a config asking for more than the
        # file holds allocates nothing
        n = config.n_nodes
        size = 8 * (sum(math.prod(shape) for _, shape in state_shapes(config)) + 2 * n)
        left = end - fh.tell()
        if left != size:
            raise CheckpointError(f"{path}: payload is {left} bytes, its config needs {size}")
        payload = fh.read(size)
    got = zlib.crc32(payload)
    if got != crc:
        raise CheckpointError(f"{path}: payload's CRC32 is {got}, the header's crc32 is {crc}")
    values = np.frombuffer(payload, dtype="<f8")
    model = SDGLModel(config)
    state = model._state
    state[...] = values[:state.size]
    mean, std = values[state.size:].reshape(2, n)
    if not np.isfinite(values).all():
        arrays = {**{name: t.data for name, t in model.state_tensors().items()},
                  "scaler.mean": mean, "scaler.std": std}
        bad = next(name for name, a in arrays.items() if not np.isfinite(a).all())
        raise CheckpointError(f"{path}: tensor {bad!r} has non-finite values")
    # ``save`` writes a scaler's std, which is floored, so a value below the floor is corrupt
    scaler = Scaler(mean.copy(), std)  # the payload is read-only
    low = scaler.std != std
    if low.any():
        raise CheckpointError(f"{path}: tensor 'scaler.std' holds {std[low][0]}, "
                              f"below the scaler's floor of {scaler.std[low][0]}")
    return Checkpoint(model=model, scaler=scaler)
