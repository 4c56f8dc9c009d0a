"""In-memory spans for the traced pass.

A span is ``name, start, end, parent, op``: spans of one op share its
``op`` id and point at the span that caused them.  Nothing is written
until :meth:`Spans.write`, and a disabled recorder records nothing, so
the untraced pass pays one attribute read per boundary.
"""

import contextlib
import json
import threading
import time

now = time.perf_counter


class Spans:
    def __init__(self, enabled=True):
        self.enabled = enabled
        self.rows = []
        self._lock = threading.Lock()

    def add(self, name, start, end, parent=None, op=None):
        """Record a finished span; returns its id (``None`` if off)."""
        if not self.enabled:
            return None
        with self._lock:
            self.rows.append([name, start, end, parent, op])
            return len(self.rows) - 1

    @contextlib.contextmanager
    def span(self, name, parent=None, op=None):
        """Time the block as one span; yields the span id."""
        if not self.enabled:
            yield None
            return
        sid = self.add(name, now(), None, parent, op)
        try:
            yield sid
        finally:
            self.rows[sid][2] = now()

    def write(self, path, header):
        """Write every span once, with self time = duration minus the
        time its child spans cover."""
        covered = [0.0] * len(self.rows)
        for _name, start, end, parent, _op in self.rows:
            if parent is not None:
                covered[parent] += end - start
        spans = [
            {
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "op": op,
                "self_s": (end - start) - covered[sid],
            }
            for sid, (name, start, end, parent, op) in enumerate(self.rows)
        ]
        with open(path, "w") as out:
            json.dump(dict(header, spans=spans), out)


OFF = Spans(enabled=False)
