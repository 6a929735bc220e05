"""In-memory spans and counts, and their reduction to per-layer metrics.

A span is (op, id, parent, name, start, end): the operation it belongs to,
its own id, the span that caused it (None at top level), the layer call it
wraps, and `time.perf_counter()` bounds in seconds. On Linux that clock is
CLOCK_MONOTONIC, shared by every process, so spans recorded by a CLI child
nest inside run.py's span of the same operation. Spans stay in memory
and are written out once, at the end of a run.
"""
from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        sid = len(self.spans)
        self.spans.append((self.op, sid, parent, name, start, end))
        return sid

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, 0.0, 0.0, parent)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, name, start, end)

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def adopt(self, spans: list[tuple[str, float, float]], parent: int) -> None:
        """Attach (name, start, end) spans recorded by a child process."""
        for name, start, end in spans:
            self.add(name, start, end, parent)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for op, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
            for op, name, value in self.counts:
                f.write(json.dumps({"op": op, "count": name, "value": value}) + "\n")

    @classmethod
    def read(cls, path: Path) -> "Tracer":
        out = cls()
        with open(path, encoding="utf-8") as f:
            for line in f:
                d = json.loads(line)
                if "count" in d:
                    out.counts.append((d["op"], d["count"], d["value"]))
                else:
                    out.spans.append((d["op"], d["id"], d["parent"], d["name"], d["start"], d["end"]))
        return out

    @classmethod
    def merge(cls, *tracers: "Tracer") -> "Tracer":
        """One tracer holding the spans and counts of several, ids renumbered."""
        out = cls()
        for tr in tracers:
            base = len(out.spans)
            out.spans += [(op, sid + base, None if parent is None else parent + base, name, s, e)
                          for op, sid, parent, name, s, e in tr.spans]
            out.counts += tr.counts
        return out


def metric_name(span_name: str) -> str:
    """`layer.call` -> `layer.call_ms`; `layer.call.variant` -> `layer.call_ms.variant`."""
    layer, call, *variant = span_name.split(".", 2)
    return ".".join([layer, call + "_ms", *variant])


def summarise(tr: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (median per operation) and median self time per span name.

    Durations of same-named spans in one operation are summed first. Self time
    is a span's duration minus the time its children cover; children of one
    span run one after another, so that is their summed duration.
    """
    per_op: dict[tuple, float] = {}
    self_per_op: dict[tuple, float] = {}
    child_ms: dict[int, float] = {}
    for op, sid, parent, name, start, end in tr.spans:
        if parent is not None:
            child_ms[parent] = child_ms.get(parent, 0.0) + (end - start) * 1e3
    for op, sid, parent, name, start, end in tr.spans:
        ms = (end - start) * 1e3
        per_op[(op, name)] = per_op.get((op, name), 0.0) + ms
        self_per_op[(op, name)] = self_per_op.get((op, name), 0.0) + ms - child_ms.get(sid, 0.0)

    def medians(table: dict[tuple, float]) -> dict[str, list[float]]:
        by_name: dict[str, list[float]] = {}
        for (_, name), v in table.items():
            by_name.setdefault(name, []).append(v)
        return by_name

    metrics = {metric_name(n): statistics.median(v)
               for n, v in medians(per_op).items() if "." in n}
    self_ms = {n: statistics.median(v) for n, v in medians(self_per_op).items()}

    # Parse self time: reader time minus a re-timed construction of its result.
    parse = []
    for (op, name), ms in per_op.items():
        if name == "io.read_ratings":
            parse.append((op, ms - per_op.get((op, "delphi.panel"), 0.0)))
        elif name == "io.read_matrix":
            parse.append((op, ms - per_op.get((op, "fahp.build_matrix"), 0.0)))
    if parse:
        by_op: dict = {}
        for op, ms in parse:
            by_op[op] = by_op.get(op, 0.0) + ms
        metrics["io.parse_self_ms"] = statistics.median(by_op.values())
    # Compile time: cold own-module import minus warm own-module import.
    if "cli.import_cold_ms" in metrics and "cli.import_warm_ms" in metrics:
        metrics["cli.compile_ms"] = metrics["cli.import_cold_ms"] - metrics["cli.import_warm_ms"]

    counts: dict[tuple, float] = {}
    for op, name, value in tr.counts:
        counts[(op, name)] = value
    for name, values in medians(counts).items():
        metrics[name] = statistics.median(values)
    return metrics, self_ms
