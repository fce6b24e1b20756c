"""In-memory spans around the benchmark's own calls into ampo.

A span is (name, start, end, parent, op id). Spans live in flat arrays
while the run goes on and are written out once, at exit. Only the
benchmark's call sites are wrapped; nothing inside the package is
instrumented.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

from ampo import AmpoError


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.errors: dict[str, int] = {}
        self._stack = [-1]
        self.op_id = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.errors[name] = 0
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        t = time.perf_counter()
        self.end[sid] = t
        self._stack.pop()
        p = self.parent[sid]
        if p >= 0:
            self.child[p] += t - self.start[sid]

    def wrap(self, name: str, fn):
        """fn with a span around every call; AmpoError raised is counted."""

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            except AmpoError:
                self.errors[name] += 1
                raise
            finally:
                self.close(sid)

        return traced

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {n: [] for n in self.names}
        for i, nid in enumerate(self.name_id):
            out[self.names[nid]].append(self.end[i] - self.start[i])
        return out

    def self_time(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        out = dict.fromkeys(self.names, 0.0)
        for i, nid in enumerate(self.name_id):
            out[self.names[nid]] += self.end[i] - self.start[i] - self.child[i]
        return out

    def dump(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

