"""Versioned checkpoints: canonical JSON around base64 array bytes.

Format, version 2: one JSON object with sorted keys and `indent=1`, holding
`format`, `version`, `kind`, `meta` (plain JSON) and `arrays`. Each array is
`{"dtype": "f8" | "i8", "shape": [...], "data": ...}`, where `data` is the
RFC 4648 base64 text of the array's little-endian 8-byte values in C order.
The file holds the values' bits, so a save/load cycle is bit-exact (-0.0 and
subnormals included) and saving the same model twice yields byte-identical
files. No non-finite float is ever written or read.

Why bytes: version 1 wrote every value as a decimal JSON number, and parsing
those was most of the model loading that each `faultlab infer` request pays.
On a 2-core x86 host (NumPy 2.4.6, one BLAS thread) the three files `infer`
reads at the default sizes (cpd, task2, task3: 13-14k values each) load in
0.26-0.33 ms each against 1.9-2.0 ms as decimals, encode in 0.25-0.32 ms
against 7.4-8.2 ms, and take 150/139/146 kB against 352/328/343 kB;
`cascade.load_models` fell from 6.1 to 0.95 ms. Version 1 files are refused
with a message to retrain: there is one decoder.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ConfigError, InvariantViolation

FORMAT_NAME = "faultlab-checkpoint"
FORMAT_VERSION = 2


@dataclass
class Checkpoint:
    kind: str
    meta: dict[str, Any] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def _encode_array(arr: np.ndarray) -> dict[str, Any]:
    if arr.dtype == np.float64:
        dtype = "f8"
        if not np.all(np.isfinite(arr)):
            bad = arr[~np.isfinite(arr)].flat[0]
            raise InvariantViolation(f"refusing to checkpoint non-finite value {float(bad)!r}")
    elif np.issubdtype(arr.dtype, np.integer):
        dtype = "i8"
    else:
        raise ConfigError(f"unsupported checkpoint dtype {arr.dtype}")
    raw = arr.astype("<" + dtype, casting="safe").tobytes()  # C order whatever the layout
    return {"dtype": dtype, "shape": list(arr.shape), "data": base64.b64encode(raw).decode()}


def _decode_array(spec: dict[str, Any]) -> np.ndarray:
    """The inverse of `_encode_array`, refusing what it never writes. The
    result is a fresh, writable, native-endian C-ordered array."""
    dtype, shape, data = spec["dtype"], spec["shape"], spec["data"]
    if dtype not in ("f8", "i8"):
        raise ConfigError(f"unsupported checkpoint dtype {dtype!r}")
    if not (isinstance(shape, list) and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
        raise ConfigError(f"array shape must list sizes >= 0, got {shape!r}")
    if not isinstance(data, str):
        raise ConfigError(f"array data must be base64 text, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ConfigError(f"array data is not base64: {exc}") from None
    need = 8 * math.prod(shape)  # math.prod, not np.prod: a huge shape must not wrap
    if len(raw) != need:
        raise ConfigError(f"array data holds {len(raw)} bytes, shape {shape} needs {need}")
    arr = np.frombuffer(raw, "<" + dtype).astype(dtype).reshape(shape)
    if dtype == "f8" and not np.all(np.isfinite(arr)):
        raise ConfigError("non-finite array value")
    return arr


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


def load_checkpoint(path: str | Path, expect_kind: str) -> Checkpoint:
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
            f"(expected {FORMAT_VERSION}); retrain the models with "
            f"`faultlab train-smtcnn` or `faultlab pipeline`"
        )
    kind = doc.get("kind", "")
    if kind != expect_kind:
        raise ConfigError(f"checkpoint kind {kind!r}, expected {expect_kind!r}")
    meta, specs = doc.get("meta", {}), doc.get("arrays", {})
    if not (isinstance(meta, dict) and isinstance(specs, dict)
            and all(isinstance(spec, dict) for spec in specs.values())):
        raise ConfigError("checkpoint meta and arrays must be JSON objects")
    arrays = {name: _decode_array(spec) for name, spec in specs.items()}
    return Checkpoint(kind=kind, meta=meta, arrays=arrays)
