"""Span tracing from outside the program.

A `Tracer` replaces the names that callers look up at call time (module
globals such as `octainscribe.inscriber.multistart`, class attributes such
as `SmoothedBody.__init__`) with wrappers that record one span per call:
name, start, end, parent span and an optional note taken from the return
value.  Spans stay in memory until the run ends.  `restore` puts every
original object back.  Nothing in the program is edited.
"""

from __future__ import annotations

import math
import time

# Span fields, stored as lists so the end time can be filled in place.
NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = False
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, note=None):
        """Replace `owner.attr` by a recording wrapper.  `note(result)`
        turns the return value into the counters kept with the span."""
        original = vars(owner)[attr]
        spans, stack, perf_counter = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put back every wrapped name, most recent first, and check that
        each attribute is the original object again."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


def self_times(spans):
    """Duration of each span minus the part of it that its child spans
    cover.  Relies on spans being stored in start order, which the
    single-threaded call stack guarantees."""
    covered = [0.0] * len(spans)
    reach = [-math.inf] * len(spans)
    for span in spans:
        p = span[PARENT]
        if p < 0:
            continue
        parent = spans[p]
        lo = max(span[START], reach[p], parent[START])
        hi = min(span[END], parent[END])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def aggregate(spans):
    """Per span name: calls, total_s (outermost spans of that name only,
    so recursion is not counted twice), self_s and the list of
    (note, parent name) pairs.  Also, per (parent name, child name): the
    number of such child spans and of distinct parent spans having one."""
    selfs = self_times(spans)
    by_name = {}
    pairs = {}
    seen_pairs = set()
    for i, span in enumerate(spans):
        name, p = span[NAME], span[PARENT]
        parent_name = spans[p][NAME] if p >= 0 else None
        agg = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        if not _has_ancestor_named(spans, i, name):
            agg["total_s"] += span[END] - span[START]
        if span[NOTE] is not None:
            agg["notes"].append((span[NOTE], parent_name))
        if p >= 0:
            pair = pairs.setdefault((parent_name, name), [0, 0])
            pair[0] += 1
            if (p, name) not in seen_pairs:
                seen_pairs.add((p, name))
                pair[1] += 1
    return by_name, pairs


def _has_ancestor_named(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def write_spans(spans, path, t0=0.0):
    """One tab-separated line per span: index, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, s in enumerate(spans):
            fh.write(f"{i}\t{s[NAME]}\t{s[START] - t0:.9f}\t{s[END] - t0:.9f}\t{s[PARENT]}\n")
