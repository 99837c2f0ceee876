"""Outside-in span tracer: wraps callables from the benchmark's own code.

A span records ``[name, start, end, parent, note]``, with ``parent`` the
index of the enclosing span (-1 for a root), in call order.  Self time
is a span's duration minus the durations of its direct children.  Nothing
here imports the program under test: the benchmark names the attributes to
wrap, and :meth:`Tracer.patched` restores every original on exit.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def _close(self, index, start, end) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[START] = start
        span[END] = end

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` timed as span ``name``.

        ``observe(result)`` runs after the span closes and its value is kept
        as the span's note (for example the rank of an iteration report).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, perf_counter())
            if observe is not None:
                self.spans[index][NOTE] = observe(result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """Time the enclosed block as span ``name``; yields its index."""
        index = self._open(name)
        start = perf_counter()
        try:
            yield index
        finally:
            self._close(index, start, perf_counter())

    @contextmanager
    def patched(self, points):
        """Replace each ``(owner, attribute, name[, observe])`` by its traced wrapper.

        The attribute must be defined on ``owner`` itself (a module or a
        class), so a renamed entry point fails loudly instead of going
        untraced.  Originals are restored even if the body raises.
        """
        originals = []
        try:
            for owner, attribute, name, *observe in points:
                original = vars(owner)[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, *observe))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus its direct children's durations."""
    own = [span[END] - span[START] for span in spans]
    selfs = list(own)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            selfs[span[PARENT]] -= own[index]
    return selfs

