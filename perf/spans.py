"""In-memory span recorder for the traced replay.

Spans are recorded by the benchmark around its calls into each layer's
public functions; the program under test is not instrumented.  They stay in
memory until the run ends and are then written as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional


class Recorder:
    """Collects ``{id, name, start, end, parent, op_id}`` spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, op_id: Optional[str] = None) -> Iterator[dict]:
        """Time the enclosed block; nested spans get this one as parent."""
        parent = self.spans[self._stack[-1]] if self._stack else None
        entry = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "parent": parent["id"] if parent else None,
            "op_id": op_id if op_id is not None else (parent or {}).get("op_id"),
        }
        self.spans.append(entry)
        self._stack.append(entry["id"])
        try:
            yield entry
        finally:
            entry["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def add(
        self, name: str, start: float, end: float, op_id: Optional[str] = None
    ) -> None:
        """Book a top-level span from ``time.perf_counter()`` readings."""
        self.spans.append({
            "id": len(self.spans), "name": name,
            "start": start - self._origin, "end": end - self._origin,
            "parent": None, "op_id": op_id,
        })

    def seconds(self, name: str) -> float:
        """Total duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self, name: str) -> float:
        """Duration of the named spans minus what their children cover."""
        total = 0.0
        for span in self.spans:
            if span["name"] != name:
                continue
            children = sum(
                c["end"] - c["start"]
                for c in self.spans
                if c["parent"] == span["id"]
            )
            total += span["end"] - span["start"] - children
        return total

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
