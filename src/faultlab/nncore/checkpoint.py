"""Versioned text checkpoints.

Format: canonical JSON (sorted keys, fixed indent). Float64 values survive a
save/load cycle bit-exactly because JSON text keeps Python's shortest
round-trip float representation, so saving the same model twice yields
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ConfigError, InvariantViolation

FORMAT_NAME = "faultlab-checkpoint"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    kind: str
    meta: dict[str, Any] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def _encode_array(arr: np.ndarray) -> dict[str, Any]:
    if arr.dtype == np.float64:
        dtype = "f8"
        data = [float(v) for v in arr.ravel()]
        if not all(np.isfinite(data)) and data:
            bad = [v for v in data if not np.isfinite(v)]
            raise InvariantViolation(f"refusing to checkpoint non-finite value {bad[0]!r}")
    elif np.issubdtype(arr.dtype, np.integer):
        dtype = "i8"
        data = [int(v) for v in arr.ravel()]
    else:
        raise ConfigError(f"unsupported checkpoint dtype {arr.dtype}")
    return {"dtype": dtype, "shape": list(arr.shape), "data": data}


def _decode_array(spec: dict[str, Any]) -> np.ndarray:
    """The inverse of `_encode_array`, refusing what it never writes."""
    dtype, shape = spec["dtype"], spec["shape"]
    if dtype not in ("f8", "i8"):
        raise ConfigError(f"unsupported checkpoint dtype {dtype!r}")
    if not (isinstance(shape, list) and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
        raise ConfigError(f"array shape must list sizes >= 0, got {shape!r}")
    try:
        arr = np.array(spec["data"], dtype=np.float64 if dtype == "f8" else np.int64)
    except OverflowError:
        raise ConfigError("array value outside int64") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError("non-finite array value")
    return arr.reshape(shape)


def checkpoint_text(ckpt: Checkpoint) -> str:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": ckpt.kind,
        "meta": ckpt.meta,
        "arrays": {name: _encode_array(a) for name, a in sorted(ckpt.arrays.items())},
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    Path(path).write_text(checkpoint_text(ckpt))


def load_checkpoint(path: str | Path, expect_kind: str | None = None) -> Checkpoint:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"not a checkpoint file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("checkpoint root must be a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise ConfigError(f"unknown checkpoint format {doc.get('format')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise ConfigError(
            f"checkpoint version {doc.get('version')!r} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    kind = doc.get("kind", "")
    if expect_kind is not None and kind != expect_kind:
        raise ConfigError(f"checkpoint kind {kind!r}, expected {expect_kind!r}")
    meta, specs = doc.get("meta", {}), doc.get("arrays", {})
    if not (isinstance(meta, dict) and isinstance(specs, dict)
            and all(isinstance(spec, dict) for spec in specs.values())):
        raise ConfigError("checkpoint meta and arrays must be JSON objects")
    arrays = {name: _decode_array(spec) for name, spec in specs.items()}
    return Checkpoint(kind=kind, meta=meta, arrays=arrays)
