"""The snapshot helpers of checkpoint/resume.

A resume replays the checkpoint's prefix and then checks the replayed
components against the snapshots the checkpoint carries
(:meth:`~repro.engine.kernel.ControlPlane.restore`).  A snapshot is a
JSON document; what it stores exactly (placement, counters) is written
as-is — Python's ``json`` emits ``repr`` for ``float``, so a finite
double survives bit for bit — and what it only needs to recognize (a
series, a ledger) is written as the sha256 of its bytes.

:func:`verify_snapshot` is the one check every component runs: any
difference — a changed value, a wrongly typed one, a missing field —
refuses the resume with :class:`~repro.engine.kernel.CheckpointError`,
so ``repro sim`` exits 1 instead of crashing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.engine.kernel import CheckpointError

__all__ = ["array_sha256", "encode_array", "verify_snapshot"]


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


def array_sha256(arr: np.ndarray) -> str:
    """sha256 of an array's bytes (C order)."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _first_difference(current: Any, expected: Any, path: str) -> Optional[str]:
    """Dotted path of the first place *expected* differs from *current*
    (walked in *current*'s order), or ``None`` when they are equal."""
    if isinstance(current, dict) and isinstance(expected, dict):
        for key in list(current) + [k for k in expected if k not in current]:
            where = f"{path}.{key}" if path else str(key)
            if key not in current or key not in expected:
                return where
            diff = _first_difference(current[key], expected[key], where)
            if diff is not None:
                return diff
        return None
    if (
        isinstance(current, list)
        and isinstance(expected, list)
        and len(current) == len(expected)
    ):
        for i, (mine, theirs) in enumerate(zip(current, expected)):
            diff = _first_difference(mine, theirs, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if type(current) is type(expected) and current == expected:
        return None
    return path or "(the whole snapshot)"


def verify_snapshot(current: Mapping[str, Any], expected: Any, where: str) -> None:
    """Refuse a resume whose replayed snapshot differs from the checkpoint's.

    Both sides are compared in their JSON form; the message names the
    first differing field (e.g. ``pods[1].peaks``).
    """
    diff = _first_difference(
        json.loads(json.dumps(current)), json.loads(json.dumps(expected)), ""
    )
    if diff is not None:
        raise CheckpointError(
            f"replayed {where} state does not match the checkpoint at {diff}; "
            "resume with the same trace, config and seed"
        )
