"""In-memory span recorder that wraps module and class attributes.

Wrapping replaces an attribute with a function that records a span (name,
start, end, parent) around the original and hands the call's arguments and
result to an optional hook that updates exact counters. `restore()` puts
every original back. Nothing inside `src/maskterm` changes: only attributes
looked up at call time are seen, which is how the package calls its layers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT = range(4)


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.stack: list[int] = []           # indices of the open spans
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `before(recorder, args)` runs ahead of the span, so work it does (such as
        walking a graph to count it) is not charged to the wrapped layer.
        `after(recorder, result, args)` runs once the span has closed.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(self, result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def inside(self, name: str) -> bool:
        """True when a span named `name` is open at this point of the call stack."""
        return any(self.spans[i][NAME] == name for i in self.stack)

    # -- reading ----------------------------------------------------------------

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds, self seconds) per span name.

        Self time is a span's duration minus the time its child spans cover;
        spans come from one thread, so children never overlap each other.
        """
        inclusive: dict[str, float] = defaultdict(float)
        children: list[float] = [0.0] * len(self.spans)
        for span in self.spans:
            duration = span[END] - span[START]
            inclusive[span[NAME]] += duration
            if span[PARENT] >= 0:
                children[span[PARENT]] += duration
        own: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, children):
            own[span[NAME]] += span[END] - span[START] - covered
        return dict(inclusive), dict(own)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
