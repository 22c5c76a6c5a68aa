"""In-memory spans and counters recorded around voltpick's public functions.

The tracer replaces attributes of voltpick modules, classes or objects with
thin wrappers for the length of one traced iteration, then puts the
originals back.  Nothing inside the package changes.  Each span keeps its
name, start, end and the index of the span that was open when it began;
spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, func, *args, **kwargs):
        """Run func inside a span called name."""
        index = self.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            self.end(index)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, span: bool = True,
             observe=None) -> None:
        """Replace owner.attr with a wrapper until unwrap_all().

        Every call is counted.  With span=False no span is kept (for
        functions called hundreds of thousands of times).  observe(result,
        args) sees every result, for counts such as bytes or sites.
        """
        original = getattr(owner, attr)
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = self.begin(name) if span else -1
            try:
                result = original(*args, **kwargs)
            finally:
                if span:
                    self.end(index)
            if observe is not None:
                observe(result, args)
            return result

        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- queries ----------------------------------------------------------------

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of closed spans called name, optionally under a parent name."""
        out = []
        for span in self.spans:
            if span[0] != name or span[2] is None:
                continue
            if parent is not None and (span[3] < 0 or self.spans[span[3]][0] != parent):
                continue
            out.append(span[2] - span[1])
        return out

    def write(self, handle, iteration: int) -> None:
        """One JSON line per span; parent is an index within the same iteration."""
        for name, start, end, parent in self.spans:
            handle.write(json.dumps({"iteration": iteration, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def quantile(values, q: float) -> float:
    """Inclusive quantile; 0.0 for an empty list (the layer was not exercised)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
