"""In-memory span recorder for the traced benchmark run.

The tracer wraps functions at the attributes their callers look up
(a module global or a class method) and records one span per call:
repetition, name, start, end, parent span and a work count. Spans stay
in memory until the run writes them out. A span's self time is its
duration minus the part of it that its child spans cover.
"""

import functools
from contextlib import contextmanager
from time import perf_counter

# span record fields
REP, NAME, START, END, PARENT, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.rep = 0
        self._open = []

    def _record(self, name, count, fn, args, kwargs):
        rec = [self.rep, name, 0.0, 0.0,
               self._open[-1] if self._open else -1, count]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self._open.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count`` maps args to work done."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = count(*args, **kwargs) if count else 1
            return self._record(name, n, fn, args, kwargs)
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` once inside a span of its own."""
        return self._record(name, 1, fn, args, kwargs)

    @contextmanager
    def installed(self, points):
        """Wrap each ``(owner, attribute, span name, count)`` for the block."""
        saved = []
        try:
            for owner, attr, name, count in points:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def totals(self, rep) -> dict:
        """Per span name: calls, summed count, inclusive and self seconds."""
        mine = [i for i, s in enumerate(self.spans) if s[REP] == rep]
        covered = {}
        for i in mine:
            s = self.spans[i]
            if s[PARENT] >= 0:
                covered[s[PARENT]] = covered.get(s[PARENT], 0.0) + s[END] - s[START]
        out = {}
        for i in mine:
            s = self.spans[i]
            t = out.setdefault(s[NAME], {"calls": 0, "count": 0,
                                         "incl_s": 0.0, "self_s": 0.0})
            dur = s[END] - s[START]
            t["calls"] += 1
            t["count"] += s[COUNT]
            t["incl_s"] += dur
            t["self_s"] += dur - covered.get(i, 0.0)
        return out
