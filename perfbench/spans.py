"""In-memory spans around the package's public functions.

A Tracer replaces each target function, on the name its caller binds, with a
wrapper that records one span per call: name, start, end and the span that
was open when it started.  Spans live in flat arrays until the run ends;
`summary` then derives per-name calls, total time and self time (a span's
duration minus the durations of its direct children).  Leaving the `with`
block puts every original function back.
"""

from __future__ import annotations

import contextlib
import time
from array import array


class Tracer:
    """Wrap `targets` while active: (span name, owner, attribute, counter).

    `owner` is a module or class whose `attribute` is a function.  `counter`
    is None or a callable (counts, args, result) that adds to `counts`,
    a dict of named whole-number counters.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.names = []
        self.counts = {}
        self._ids = {}
        self._name = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._open = -1
        self._saved = []

    def __enter__(self):
        try:
            for name, owner, attribute, counter in self.targets:
                original = getattr(owner, attribute)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(name, original, counter))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name_id):
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._open)
        self._end.append(0.0)
        self._open = index
        self._start.append(time.perf_counter())
        return index

    def _finish(self, index):
        self._end[index] = time.perf_counter()
        self._open = self._parent[index]

    def _wrap(self, name, function, counter):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            index = self._begin(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                self._finish(index)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the caller's own code."""
        index = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(index)

    def summary(self):
        """{span name: {"calls", "total_s", "self_s"}} over every span recorded."""
        spans = len(self._start)
        durations = [self._end[i] - self._start[i] for i in range(spans)]
        in_children = [0.0] * spans
        for i in range(spans):
            parent = self._parent[i]
            if parent >= 0:
                in_children[parent] += durations[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(spans):
            entry = stats[self.names[self._name[i]]]
            entry["calls"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - in_children[i]
        return stats
