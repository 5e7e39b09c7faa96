"""Pluggable telemetry backends (exporters).

A backend receives finished telemetry records — structured events and
closed spans — as plain dicts.  The :class:`NullBackend` is the default
and advertises ``enabled = False``, which short-circuits every
instrumentation site before any record is even built, so disabled-mode
overhead is a single attribute check.

Backends:

* :class:`NullBackend` — drop everything (default; negligible overhead).
* :class:`InMemoryBackend` — keep records in a list (tests, notebooks).
* :class:`JsonlBackend` — one JSON object per line to a file; the format
  ``repro obs summarize`` reads back.
"""

from __future__ import annotations

import atexit
import json
import signal
import threading
import weakref
from pathlib import Path
from typing import IO, Dict, List, Mapping, Optional, Union

__all__ = [
    "TelemetryBackend",
    "NullBackend",
    "InMemoryBackend",
    "JsonlBackend",
    "close_open_backends",
    "install_sigterm_flush",
]


def _json_default(obj):
    """Coerce numpy scalars/arrays (and other oddballs) to JSON types."""
    if hasattr(obj, "tolist"):  # numpy scalar or array
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


class TelemetryBackend:
    """Base backend: a sink for event dicts.

    ``enabled`` is the master switch instrumentation sites check before
    doing any work; the base class (and :class:`NullBackend`) report
    False so all telemetry code paths stay dormant.
    """

    enabled: bool = False

    def emit(self, event: Mapping[str, object]) -> None:
        """Consume one finished record (event or span)."""

    def flush(self) -> None:
        """Push buffered records to their destination."""

    def close(self) -> None:
        """Flush and release resources; the backend is done after this."""

    def __enter__(self) -> "TelemetryBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullBackend(TelemetryBackend):
    """Drops every record; the zero-overhead default."""


class InMemoryBackend(TelemetryBackend):
    """Stores records in ``self.records`` — for tests and notebooks."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def emit(self, event: Mapping[str, object]) -> None:
        self.records.append(dict(event))

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        """All stored records whose ``kind`` field equals *kind*."""
        return [r for r in self.records if r.get("kind") == kind]

    def clear(self) -> None:
        """Drop all stored records."""
        self.records.clear()


#: Every not-yet-closed JsonlBackend, so interpreter shutdown (atexit)
#: and SIGTERM can flush buffered lines that would otherwise be lost —
#: a truncated final line in a run's event log is unrecoverable on the
#: write side (``read_jsonl_lenient`` only papers over it when reading).
_OPEN_JSONL: "weakref.WeakSet[JsonlBackend]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def close_open_backends() -> int:
    """Flush and close every still-open :class:`JsonlBackend`.

    Returns the number of backends closed.  Registered with ``atexit``
    when the first JSONL backend opens, so a run that never reaches its
    ``Telemetry.close()`` (early ``sys.exit``, unhandled exception past
    the telemetry scope) still ends with a complete final line.  Safe to
    call repeatedly.
    """
    closed = 0
    for backend in list(_OPEN_JSONL):
        try:
            backend.close()
        except Exception:  # never mask the real exit path at shutdown
            pass
        closed += 1
    return closed


def install_sigterm_flush() -> bool:
    """Turn SIGTERM into ``SystemExit(143)`` so telemetry scopes unwind.

    A plain SIGTERM kills the interpreter without running context
    managers or ``atexit`` hooks, which can truncate the final event-log
    line mid-write.  With this handler installed the signal raises in
    the main thread instead: ``with use_telemetry(...)`` blocks close
    their backends (emitting the final metrics record), and
    :func:`close_open_backends` runs via ``atexit`` as a backstop.

    Returns False (and installs nothing) off the main thread or where
    signals are unsupported; callers can ignore the result.
    """
    def _handler(signum, frame):
        raise SystemExit(128 + signum)

    try:
        signal.signal(signal.SIGTERM, _handler)
    except ValueError:  # not in the main thread
        return False
    return True


class JsonlBackend(TelemetryBackend):
    """Writes one JSON object per line to *path* (or an open stream).

    Numpy scalars and arrays in event fields are converted via
    ``tolist()`` so instrumentation sites can pass arrays directly.
    Open instances are tracked so :func:`close_open_backends` (run via
    ``atexit``) can flush them at interpreter shutdown.
    """

    enabled = True

    def __init__(self, path: Union[str, Path, IO[str]], mode: str = "w"):
        if hasattr(path, "write"):
            self._fh: IO[str] = path  # type: ignore[assignment]
            self._owns = False
            self.path: Optional[Path] = None
        else:
            self.path = Path(path)
            self._fh = open(self.path, mode, encoding="utf-8")
            self._owns = True
        self.n_written = 0
        self._lock = threading.Lock()
        global _ATEXIT_REGISTERED
        if not _ATEXIT_REGISTERED:
            atexit.register(close_open_backends)
            _ATEXIT_REGISTERED = True
        _OPEN_JSONL.add(self)

    def emit(self, event: Mapping[str, object]) -> None:
        line = json.dumps(event, default=_json_default) + "\n"
        with self._lock:  # one write call per record: lines stay whole
            self._fh.write(line)
            self.n_written += 1

    def flush(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()

    def close(self) -> None:
        _OPEN_JSONL.discard(self)
        with self._lock:
            if self._owns and not self._fh.closed:
                self._fh.close()
            elif not self._fh.closed:
                self._fh.flush()
