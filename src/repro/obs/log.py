"""Structured JSON-lines event logging, null by default.

Mirrors the metrics contract (:mod:`repro.obs.metrics`): every call
site guards on one ``log.enabled`` attribute check against the shared
:data:`NULL_LOGGER`, so an unconfigured pipeline pays nothing beyond
the bool test.  A :class:`JsonLinesLogger` writes one JSON object per
line — ``{"ts": ..., "level": ..., "event": ..., <fields>}`` — with
leveled filtering and bounded fields (field count and per-value string
length are capped so a pathological payload can't balloon the log).

Wired through ``repro serve/query --log-json PATH``; the event schema
is catalogued in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class EventLogger:
    """The disabled base: every emit is a no-op.

    Call sites hold a logger attribute (default :data:`NULL_LOGGER`)
    and guard hot paths with ``if log.enabled:``; cold paths may call
    the level methods unconditionally — they cost one method call.
    """

    enabled = False

    def debug(self, event: str, **fields) -> None:  # pragma: no cover
        pass

    def info(self, event: str, **fields) -> None:  # pragma: no cover
        pass

    def error(self, event: str, **fields) -> None:  # pragma: no cover
        pass

    def close(self) -> None:  # pragma: no cover
        pass


#: Shared disabled logger — the default for every ``log=`` parameter.
NULL_LOGGER = EventLogger()


class JsonLinesLogger(EventLogger):
    """Appends one JSON object per event to ``path``.

    ``min_level`` drops quieter events before serialization;
    ``max_fields``/``max_chars`` bound each record (extra fields are
    dropped with a ``"truncated_fields"`` marker, long values are cut
    to ``max_chars`` characters).  ``clock`` is injectable so tests can
    pin timestamps.
    """

    enabled = True

    def __init__(
        self,
        path,
        *,
        min_level: str = "info",
        max_fields: int = 32,
        max_chars: int = 256,
        clock=time.time,
    ) -> None:
        if min_level not in LEVELS:
            raise ValueError(
                f"unknown log level {min_level!r} "
                f"(expected one of {sorted(LEVELS)})"
            )
        self.path = Path(path)
        self.min_level = min_level
        self.max_fields = max_fields
        self.max_chars = max_chars
        self._threshold = LEVELS[min_level]
        self._clock = clock
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def _sanitize(self, value):
        """JSON-safe, bounded rendering of one field value."""
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, (int, float)):
            return value
        text = value if isinstance(value, str) else repr(value)
        if len(text) > self.max_chars:
            text = text[: self.max_chars] + "…"
        return text

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if LEVELS[level] < self._threshold:
            return
        record = {"ts": self._clock(), "level": level, "event": event}
        dropped = 0
        for key, value in fields.items():
            if len(record) >= self.max_fields + 3:
                dropped += 1
                continue
            record[key] = self._sanitize(value)
        if dropped:
            record["truncated_fields"] = dropped
        self._file.write(json.dumps(record, default=repr) + "\n")
        self._file.flush()

    def debug(self, event: str, **fields) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields) -> None:
        self._emit("info", event, fields)

    def error(self, event: str, **fields) -> None:
        self._emit("error", event, fields)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JsonLinesLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
