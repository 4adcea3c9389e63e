"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent). Spans are recorded around calls
into a layer's public functions, kept in memory, and written out once when
the run ends. A disabled tracer records nothing, so the untraced steps of a
run pay only for a context manager that yields immediately.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        # zero of the span times; perf_counter is a system-wide clock on
        # Linux, so a tracer in a child process can share it
        self.t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent: Optional[int] = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def durations(self, name: str,
                  parent: Optional[str] = None) -> List[float]:
        """Durations of the finished spans called ``name``; with ``parent``
        only those whose direct parent span is called ``parent``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and (parent is None or (s["parent"] is not None and
                     self.spans[s["parent"]]["name"] == parent))]

    def self_time(self, sid: int) -> float:
        """Span duration minus the time its direct children cover."""
        s = self.spans[sid]
        kids = sum(c["end"] - c["start"] for c in self.spans
                   if c["parent"] == sid and c["end"] is not None)
        return (s["end"] - s["start"]) - kids

    def records(self) -> List[Dict]:
        """Finished spans, each with its self time."""
        return [dict(s, self_s=self.self_time(s["id"])) for s in self.spans
                if s["end"] is not None]
