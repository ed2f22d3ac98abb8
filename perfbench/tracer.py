"""In-memory span tracing and counters, installed by patching singosc from outside.

The benchmark never edits ``src/``.  A traced run replaces selected functions
(and ``ParamScalar`` methods) with wrappers that record one span per call:
``[name, start, end, parent index, unit id]``.  Spans stay in a list until the
run ends and are written out afterwards.  Counters are updated at the same
boundaries, so ratios such as the division hit rate are measured where the
work happens.

A hook whose target no longer exists raises ``HookTargetMissing`` at install
time: a renamed kernel must break the traced run, not blank a layer metric.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter


class HookTargetMissing(LookupError):
    """Raised when a hook names a function that the program no longer has."""


class Tracer:
    """Records spans and counts while its hooks are installed (use as ``with``)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.unit = ""
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._nested: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks: list[tuple] = []

    # -- hooks ---------------------------------------------------------------

    def hook(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace calls to ``owner.attr`` as spans called ``name``.

        ``before(args)`` runs ahead of each call and ``after(args, result)``
        after it; both feed the counters.  Every module of the program that
        bound the same function object (``from .poly import _raw_mul_into``)
        is patched as well.
        """
        self._hooks.append((owner, attr, name, before, after))

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, before, after in self._hooks:
                original = getattr(owner, attr, None)
                if not callable(original):
                    raise HookTargetMissing(
                        f"{getattr(owner, '__name__', owner)}.{attr} does not exist")
                wrapper = self._wrap(original, name, before, after)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in _program_modules():
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name: str, before, after):
        spans, stack, active, nested = self.spans, self._stack, self._active, self._nested

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            if active[name]:
                nested.add(idx)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.unit]
            spans.append(rec)
            stack.append(idx)
            active[name] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                active[name] -= 1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- spans the benchmark opens around its own calls ----------------------------

    def span(self, name: str, unit: str | None = None) -> "_Span":
        return _Span(self, name, unit)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    # -- results ---------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[0] == name)

    def busy(self, name: str) -> float:
        """Wall time inside spans called ``name``, counting recursive calls once."""
        return sum(rec[2] - rec[1] for idx, rec in enumerate(self.spans)
                   if rec[0] == name and idx not in self._nested)

    def self_times(self) -> dict[str, float]:
        """Per layer (the span-name prefix before the first dot): the summed
        duration of its spans minus the part covered by their direct children."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        out: dict[str, float] = {}
        for rec, value in zip(self.spans, own):
            layer = rec[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out

    def write(self, path, run_id: str) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, unit) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent,
                    "run": run_id, "unit": unit}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "unit", "rec", "saved_unit")

    def __init__(self, tracer: Tracer, name: str, unit: str | None):
        self.tracer, self.name, self.unit = tracer, name, unit

    def __enter__(self):
        t = self.tracer
        self.saved_unit = t.unit
        if self.unit is not None:
            t.unit = self.unit
        self.rec = [self.name, perf_counter(), 0.0,
                    t._stack[-1] if t._stack else -1, t.unit]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec[2] = perf_counter()
        self.tracer._stack.pop()
        self.tracer.unit = self.saved_unit


def _program_modules():
    return [module for key, module in list(sys.modules.items())
            if module is not None and (key == "singosc" or key.startswith("singosc."))]
