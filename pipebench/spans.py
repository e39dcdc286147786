"""In-memory span tracer that instruments a program from outside.

`Tracer.wrap` replaces an attribute (a module function, a class method or an
instance attribute) with a wrapper that records one span per call: name,
start, end and the id of the span open when the call began.  Spans stay in
memory until `write`.  `restore` puts every original attribute back; callers
check `restored()` afterwards.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # each span is [id, parent_id, name, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span[0]:
            raise RuntimeError(f"span {span[2]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace owner.attr by a traced wrapper.

        on_call(tracer, args, kwargs, result) runs after each call returns and
        records counts at the same boundary as the span.
        """
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def restore(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def restored(self, originals: list[tuple[object, str, object]]) -> bool:
        """True when every (owner, attr, original) is back in place."""
        return all(vars(owner)[attr] is original for owner, attr, original in originals)

    def wrapped(self) -> list[tuple[object, str, object]]:
        return list(self._wrapped)

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name total self time and call count, and the most negative
        self time seen (0.0 when none is negative).

        A span's self time is its duration minus the durations of its direct
        children.  Calls here are synchronous and single-threaded, so children
        never overlap and this equals the duration minus the time they cover.
        """
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        worst = 0.0
        for sid, _, name, start, end in self.spans:
            own = (end - start) - child_time[sid]
            worst = min(worst, own)
            totals[name] += own
            calls[name] += 1
        return totals, calls, worst

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")
