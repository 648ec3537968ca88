"""In-memory span tracer that wraps functions by the module attribute callers resolve.

`Tracer.wrap(module, "name", "span")` replaces `module.name` with a timed
wrapper while the tracer is installed, so every caller that looks the name up
in that module at call time is traced.  A name the module does not have (a
later refactor may drop or merge functions) is recorded as absent and its
span simply reports 0 calls.  Spans keep their parent, so a span's self time
is its duration minus the time its direct children cover, and the self times
of all spans add up to the time covered by the root spans.
"""

import contextlib
import inspect
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "work")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.work = None

    def as_dict(self):
        return {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "work": self.work or {},
        }


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._wraps = []      # (module, attr, span name, work function)
        self._patched = []    # (module, attr, original)

    def wrap(self, module, attr, span, work=None):
        """Register `module.attr` to be traced as `span` while installed.

        `work(arguments, result)` may return a dict of counts to sum into the
        span; `arguments` maps parameter names to the values of the call.
        """
        if not callable(getattr(module, attr, None)):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self._wraps.append((module, attr, span, work))

    @contextlib.contextmanager
    def installed(self):
        """Patch every registered name for the duration of the block."""
        for module, attr, span, work in self._wraps:
            original = getattr(module, attr)
            setattr(module, attr, self._traced(original, span, work))
            self._patched.append((module, attr, original))
        try:
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        return record

    def _close(self, record):
        record.end = time.perf_counter()
        self._stack.pop()

    def _traced(self, original, name, work):
        try:
            signature = inspect.signature(original) if work else None
        except (TypeError, ValueError):
            signature = None

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record.work = work(bound.arguments, result)
            return result

        traced.__wrapped__ = original
        return traced

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds and summed work counts."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out = {}
    for s, child in zip(spans, covered):
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": {}})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += (s.end - s.start) - child
        for key, value in (s.work or {}).items():
            agg["work"][key] = agg["work"].get(key, 0) + value
    return out


def root_seconds(spans):
    """Total duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
