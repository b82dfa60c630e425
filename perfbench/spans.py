"""In-memory span tracer that wraps fusiondet functions from outside.

A wrapped call records one span: name, start, end, parent span, op id and
the time its count hook took. Spans stay in a list until the run ends.
Count hooks run after the span closes and their time is excluded from every
span's self time, so counting work does not show up as layer time.

The wrappers replace the binding the caller actually looks up (for example
``decoder.sample_camera``, not ``rias.sample_camera``). ``disable`` puts the
originals back and ``enable`` the wrappers again; leaving the ``with`` block
restores every original.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

SETUP_OP = -1  # op id of spans recorded outside the timed ops


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id, hook seconds)
        self.stack = [-1]
        self.op = SETUP_OP
        self.op_counts = defaultdict(Counter)  # op id -> hook counters
        self.errors = Counter()  # layer -> exceptions that left a span
        self._patches = []

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, hook=None, span: bool = True):
        """Replace ``owner.attr`` by a recording wrapper.

        ``hook(counts, args, out)`` adds to the current op's counters. With
        ``span=False`` the wrapper only runs the hook.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = self._wrap(name, fn, hook) if span else self._count_only(fn, hook)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw, wrapped))

    def enable(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self):
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.disable()
        self._patches.clear()
        return False

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, 0.0)
            if hook is not None:
                hook(self.op_counts[self.op], args, out)
                spans[idx] = (name, t0, t1, parent, self.op, clock() - t1)
            return out

        return wrapper

    def _count_only(self, fn, hook):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(self.op_counts[self.op], args, out)
            return out

        return wrapper

    # -- summaries -----------------------------------------------------------

    def summarize(self, ops) -> tuple:
        """Busy seconds, self seconds and calls per span name over ``ops``.

        Self time is a span's duration minus the durations (and hook times)
        of its direct children.
        """
        ops = set(ops)
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, hook_s in self.spans:
            if parent >= 0:
                child[parent] += (t1 - t0) + hook_s
        busy, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, t0, t1, _, op, _) in enumerate(self.spans):
            if op in ops:
                busy[name] += t1 - t0
                self_s[name] += (t1 - t0) - child[i]
                calls[name] += 1
        return busy, self_s, calls

    def counts(self, ops) -> Counter:
        total = Counter()
        for op in ops:
            total.update(self.op_counts.get(op, {}))
        return total

    def write(self, path: str):
        """One tab-separated line per span; times in microseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_us\tend_us\tparent\top\thook_us\n")
            base = self.spans[0][1] if self.spans else 0.0
            for name, t0, t1, parent, op, hook_s in self.spans:
                fh.write(f"{name}\t{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}\t"
                         f"{parent}\t{op}\t{hook_s * 1e6:.1f}\n")
