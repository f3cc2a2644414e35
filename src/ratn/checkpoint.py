"""Binary checkpoint format for named float64 tensors.

Layout (all integers little-endian):

    magic   4 bytes         b"RATN"
    version u32             currently 1
    count   u64             number of tensors
    then per tensor:
        name_len u64, name (UTF-8)
        ndim     u64, dims u64 * ndim
        data     f64 * prod(dims), little-endian

Round trips are bit-exact. A JSON sidecar (<path>.json) carries the model
config and construction seed so a model can be rebuilt from the pair. Both
files, like every output file of the library, are written through
write_atomic. from_json builds the sidecar, and experiment specs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import types
import typing
from pathlib import Path

import numpy as np

from .transformer import ModelConfig, Seq2SeqModel

MAGIC = b"RATN"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint data."""


# the JSON values each annotation takes (a float keeps an int as written)
_KINDS = {int: ("an int", int), float: ("a number", (int, float)),
          bool: ("a bool", bool), str: ("a string", str),
          tuple: ("a list", (list, tuple)), dict: ("a mapping", dict)}


def json_fields(cls, mapping: dict, prefix: str = "") -> dict:
    """from_json of each value of a mapping that sets fields of dataclass cls;
    an unknown key fails. prefix is the mapping's key path and a dot."""
    hints = typing.get_type_hints(cls)
    unknown = [key for key in mapping if key not in hints]
    if unknown:
        raise ValueError(f"{prefix}{unknown[0]} is not a field of {cls.__name__}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in mapping
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{prefix}{missing[0]} is missing")
    return {key: from_json(hints[key], v, prefix + key) for key, v in mapping.items()}


def from_json(hint, value, path: str = ""):
    """A JSON value at key path checked against a type annotation and built
    into it: a dataclass from a mapping, a tuple from a list. A bool is not
    an int; a float keeps an int. A mismatch raises ValueError naming path."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else from_json(args[0], value, path)
    record = dataclasses.is_dataclass(hint)
    name, kinds = _KINDS[dict if record else origin or hint]
    if not isinstance(value, kinds) or (isinstance(value, bool) and hint is not bool):
        raise ValueError(f"{path or 'the top level'} must be {name}, got {value!r}")
    if record:
        return hint(**json_fields(hint, value, f"{path}." if path else ""))
    if origin is tuple:
        return tuple(from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if args:  # dict[str, V]
        return {k: from_json(args[1], v, f"{path}.{k}") for k, v in value.items()}
    return value


def write_atomic(path, content: str | bytes) -> None:
    """Replace path by content so that no reader or crash sees a torn file.

    The content goes to a temporary file in the same directory, is flushed
    and fsynced, then renamed over path. On any error the temporary file is
    removed and path keeps its old content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = content.encode("utf-8") if isinstance(content, str) else content
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tensors(path, named: dict[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(named))]
    for name, arr in named.items():
        data = np.asarray(arr, dtype="<f8")  # tobytes() emits C order
        encoded = name.encode("utf-8")
        parts += [struct.pack("<Q", len(encoded)), encoded,
                  struct.pack("<Q", data.ndim),
                  struct.pack(f"<{data.ndim}Q", *data.shape), data.tobytes()]
    write_atomic(path, b"".join(parts))


def _read_exact(f, n: int) -> bytes:
    # Checked before reading, so a corrupt length allocates nothing.
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, {left} left")
    return f.read(n)


def read_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != MAGIC:
            raise CheckpointError(f"bad magic bytes in {path}; not a checkpoint")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (count,) = struct.unpack("<Q", _read_exact(f, 8))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<Q", _read_exact(f, 8))
            try:
                name = _read_exact(f, name_len).decode("utf-8")
            except UnicodeDecodeError as err:
                raise CheckpointError(f"a tensor name is not UTF-8: {err}") from None
            if name in out:
                raise CheckpointError(f"tensor {name!r} is listed twice")
            (ndim,) = struct.unpack("<Q", _read_exact(f, 8))
            dims = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim))
            raw = _read_exact(f, 8 * math.prod(dims))
            try:  # a zero dim beside huge ones passes the length check
                out[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
            except ValueError:
                raise CheckpointError(f"tensor {name!r} has invalid dims {dims}") from None
        trailing = f.read(1)
        if trailing:
            raise CheckpointError("trailing bytes after last tensor")
    return out


@dataclasses.dataclass(frozen=True)
class Sidecar:
    """A checkpoint's <path>.json: the model's config and construction seed."""

    config: ModelConfig
    seed: int = 0


def save_model(model: Seq2SeqModel, path) -> None:
    """Write parameters plus a config/seed sidecar at <path>.json."""
    write_tensors(path, {k: t.data for k, t in model.parameters().items()})
    sidecar = dataclasses.asdict(Sidecar(model.config, model.seed))
    write_atomic(str(path) + ".json", json.dumps(sidecar, sort_keys=True, indent=1))


def load_model(path) -> Seq2SeqModel:
    """Rebuild a model from a checkpoint and its <path>.json sidecar.

    Every stored tensor must match the shape the sidecar's config implies;
    mismatches raise naming the offending tensor.
    """
    tensors = read_tensors(path)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise CheckpointError(f"no config sidecar at {sidecar_path}")
    try:  # not JSON, not a mapping, a missing config, or a mistyped value
        sidecar = from_json(Sidecar, json.loads(sidecar_path.read_text()))
    except ValueError as err:
        raise CheckpointError(f"sidecar {sidecar_path}: {err}") from None
    model = Seq2SeqModel(sidecar.config, seed=sidecar.seed)
    params = model.parameters()
    missing = set(params) - set(tensors)
    extra = set(tensors) - set(params)
    if missing or extra:
        raise CheckpointError(f"parameter names disagree with config: "
                              f"missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, tensor in params.items():
        if tensors[name].shape != tensor.data.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {tensors[name].shape}, "
                f"config implies {tensor.data.shape}")
        tensor.data = tensors[name]
    return model
