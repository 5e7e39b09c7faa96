"""JSON-safe serialization helpers for engine checkpoints.

Everything a checkpoint stores must round-trip through ``json.dumps`` /
``json.loads`` **bit-identically**:

* floats survive exactly — Python's ``json`` emits ``repr`` (shortest
  round-trip) for ``float``, so ``loads(dumps(x)) == x`` for every
  finite double; non-finite values are rejected up front because JSON
  has no representation for them;
* numpy arrays are stored as ``{"shape": [...], "data": [...]}`` nested
  lists plus a dtype tag and rebuilt with ``np.asarray(...).reshape``;
* RNG streams are stored as the bit generator's ``state`` dict
  (arbitrary-precision ints are native JSON) and restored onto a fresh
  generator of the same bit-generator class.

A document these decoders cannot read raises
:class:`~repro.engine.kernel.CheckpointError`, so a damaged checkpoint
refuses the resume (``repro-sim`` exits 1) instead of crashing it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Sequence, Union

import numpy as np

from repro.engine.kernel import CheckpointError

__all__ = [
    "decode_array",
    "decode_float",
    "decode_rng",
    "encode_array",
    "encode_float",
    "encode_rng",
    "require_fields",
]


def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """Encode a numeric/bool numpy array as a JSON-safe dict."""
    a = np.asarray(arr)
    if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
        raise ValueError("cannot checkpoint a float array with NaN/inf entries")
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": a.ravel().tolist(),
    }


def decode_array(doc: Mapping[str, Any]) -> np.ndarray:
    """Rebuild an array written by :func:`encode_array`."""
    try:
        dtype = np.dtype(doc["dtype"])
        shape = tuple(int(s) for s in doc["shape"])
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed array document: {exc}") from None
    return np.asarray(data, dtype=dtype).reshape(shape)


def _jsonable_ints(value: Any) -> Any:
    """Recursively coerce numpy ints inside an RNG state dict."""
    if isinstance(value, dict):
        return {k: _jsonable_ints(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_ints(v) for v in value]
    if isinstance(value, np.ndarray):
        return [int(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def encode_rng(rng: np.random.Generator) -> Dict[str, Any]:
    """Capture a generator's full stream position."""
    return _jsonable_ints(dict(rng.bit_generator.state))


def decode_rng(doc: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a generator at the exact stream position of *doc*."""
    name = doc.get("bit_generator")
    cls = getattr(np.random, str(name), None)
    if cls is None:
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint")
    bg = cls()
    bg.state = dict(doc)
    return np.random.Generator(bg)


def require_fields(
    doc: Mapping[str, Any], fields: Sequence[str], where: str
) -> None:
    """Raise a uniform :class:`CheckpointError` when a state dict is
    missing *fields*."""
    missing = [f for f in fields if f not in doc]
    if missing:
        raise CheckpointError(f"{where} state is missing fields {missing}")


def encode_float(value: Union[float, int]) -> Union[float, None]:
    """Floats pass through; NaN is mapped to None (JSON-safe)."""
    f = float(value)
    if math.isnan(f):
        return None
    if math.isinf(f):
        raise ValueError("cannot checkpoint an infinite value")
    return f


def decode_float(value: Union[float, int, None]) -> float:
    """Inverse of :func:`encode_float`."""
    return float("nan") if value is None else float(value)

