"""In-memory spans recorded from outside the program.

A ``Tracer`` wraps functions where their callers look them up (a module
attribute), records one span per call and restores the originals on exit.
Spans stay in memory until the run writes them out.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    workload: str
    pass_no: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.pass_no = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None, under=None):
        """Return ``fn`` recording a span per call.  ``observe(attrs, args,
        kwargs, result)`` runs after the span has ended, so its cost is
        charged to the parent span.  With ``under`` set, only calls made
        inside an open span of that name are recorded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if under is not None and not any(
                    self.spans[i].name == under for i in self._stack):
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        self.workload, self.pass_no)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(span.attrs, args, kwargs, result)
            return result

        return traced

    def installed(self, targets):
        """Patch ``(module, attr, span_name, observe, under)`` targets for
        the duration of the block, then put every original back."""
        return patched((module, attr, functools.partial(self.wrap, name, observe=observe,
                                                        under=under))
                       for module, attr, name, observe, under in targets)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


@contextlib.contextmanager
def patched(patches):
    """Replace each ``module.attr`` by ``wrap(original)`` for the duration
    of the block, for ``(module, attr, wrap)`` in ``patches``, then put
    every original back."""
    saved = []
    try:
        for module, attr, wrap in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def inherited(spans, key: str) -> list:
    """Per span: ``attrs[key]`` of the span or of its nearest ancestor that
    has it, else None.  Parents always precede their children."""
    out = []
    for span in spans:
        value = span.attrs.get(key)
        if value is None and span.parent >= 0:
            value = out[span.parent]
        out.append(value)
    return out
