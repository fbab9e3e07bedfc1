"""In-memory span recorder for the traced pass.

A span is (name, start, end, parent index).  Spans are appended as calls
return and written out once, at the end of the run.  The traced pass is
single-threaded, so open spans form one stack and children never overlap:
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent); parent -1 at top
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._open: list = []

    def wrap(self, fn, name):
        """fn, recording one span per call.  `name` is a string, or a
        callable evaluated at entry that returns the span name."""
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name()
            idx = len(self.spans)
            self.spans.append(None)
            self._open.append(idx)
            parent = self._open[-2] if len(self._open) > 1 else -1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.spans[idx] = (span_name, t0, t1, parent)
        return traced

    def self_times(self) -> dict:
        """Per-name self time in seconds."""
        child = defaultdict(float)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for idx, (name, t0, t1, _parent) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[idx]
        return out

    def inclusive_times(self) -> dict:
        out: dict = defaultdict(float)
        for name, t0, t1, _parent in self.spans:
            out[name] += t1 - t0
        return out

    def to_json(self) -> dict:
        base = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], t0 - base, t1 - base, p]
                          for n, t0, t1, p in self.spans],
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


def write_traces(path: str, meta: dict, tracers: list) -> None:
    """Every traced pass of a run, as one gzipped JSON document."""
    doc = dict(meta, passes=[t.to_json() for t in tracers])
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
