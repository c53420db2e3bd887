"""Benchmark-side spans: ``{id, parent, name, start, end}`` records.

Spans are recorded from *outside* the program, around calls into each
module's public functions, kept in memory, and written out when the
traced pass ends.  A name's self time is its spans' durations minus the
part their child spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager


class Recorder:
    """Collects spans; safe to use from several client threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [
            (s["end"] - s["start"]) * 1000.0
            for s in self.spans if s["name"] == name
        ]

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            totals[span["name"]] += own * 1000.0
        return dict(totals)


def layer_table(title: str, rows: list[tuple[str, float]],
                wall_ms: float) -> str:
    """Render ``(name, self ms)`` rows against the traced wall."""
    lines = [title, f"  {'layer':<34s} {'self ms':>12s} {'% of wall':>10s}"]
    for name, self_ms in rows:
        share = 100.0 * self_ms / wall_ms if wall_ms else 0.0
        lines.append(f"  {name:<34s} {self_ms:>12.3f} {share:>9.1f}%")
    total = sum(value for _, value in rows)
    lines.append(f"  {'= traced wall':<34s} {total:>12.3f} "
                 f"{100.0 * total / wall_ms if wall_ms else 0.0:>9.1f}%")
    return "\n".join(lines)
