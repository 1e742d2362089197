"""In-memory spans for the traced run, and the per-layer numbers drawn from them.

A span is (name, start, end, parent, op).  Names are "<layer>.<function>",
so the layer is the part before the first dot.  Times come from
time.perf_counter, which on Linux is the system-wide monotonic clock, so
spans recorded in a child interpreter line up with the parent's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "profiles", "hilbert", "engine", "lattices", "intmat", "toric")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                  "end": None, "parent": parent, "op": op}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def adopt(self, spans: list[dict], parent: int, op: int) -> None:
        """Append spans recorded by a child interpreter under span `parent`."""
        base = len(self.spans)
        for s in spans:
            self.spans.append({**s, "id": base + s["id"], "op": op,
                               "parent": parent if s["parent"] is None else base + s["parent"]})

    def busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s["name"].split(".", 1)[0] == layer)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
