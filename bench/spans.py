"""Span recording around fedbench's public functions, and the arithmetic the
benchmark does on recorded spans.

A span is a tuple ``(name, start, end, parent, thread, cpu_s)``: wall times
from ``time.monotonic`` (one clock for every process on Linux, so child spans
compare with the parent's spawn and exit times), the index of the span that
caused it (-1 for none), the thread identifier and the thread CPU seconds the
call used. The tracer keeps spans in memory; the caller writes them out once
the program has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Iterable, NamedTuple


class Target(NamedTuple):
    """One entry point to wrap: ``attr`` is a function of ``module`` or a
    ``Class.method``; ``name`` is the span name, or a function of the call's
    positional arguments returning it; ``count`` optionally maps the
    arguments to a work count added to ``Tracer.counts[name]``."""

    module: str
    attr: str
    name: str | Callable[[tuple], str]
    count: Callable[[tuple], int] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.name(args) if callable(target.name) else target.name
            tid = threading.get_ident()
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
                # A pool thread's outermost span was caused by the span the
                # main thread is blocked in (run_round waiting on its clients).
                origin = stack or self._stacks.get(self._main) or [-1]
                parent = origin[-1]
                index = len(self.spans)
                self.spans.append(None)
                stack.append(index)
                if target.count is not None:
                    self.counts[name] = self.counts.get(name, 0) + target.count(args)
            cpu0 = time.thread_time()
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                cpu1 = time.thread_time()
                with self._lock:
                    stack.pop()
                    self.spans[index] = (name, t0, t1, parent, tid, cpu1 - cpu0)

        return traced

    def install(self, targets: Iterable[Target], package: str = "fedbench") -> None:
        """Wrap every target wherever ``package`` binds it.

        A module-level function is replaced in each loaded module of the
        package that imported it by name, so calls made through
        ``from .model import forward_loss_grad`` are traced too. A target
        that no longer exists raises AttributeError: a renamed entry point
        breaks the benchmark visibly instead of reading as zero calls.
        """
        for target in targets:
            module = importlib.import_module(target.module)
            owner, _, method = target.attr.partition(".")
            if method:
                cls = getattr(module, owner)
                setattr(cls, method, self.wrap(getattr(cls, method), target))
                continue
            original = getattr(module, target.attr)
            traced = self.wrap(original, target)
            for name, mod in list(sys.modules.items()):
                if name == package or name.startswith(package + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may run in parallel on pool threads; time two of them cover at
    once counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(index, ())]
        out.append((end - start) - union_length(k for k in kids if k[1] > k[0]))
    return out


class Layer(NamedTuple):
    calls: int
    seconds: float
    self_seconds: float
    cpu_seconds: float


def by_name(spans: list[tuple]) -> dict[str, Layer]:
    """Calls, total wall, total self time and total thread CPU per span name."""
    selfs = self_times(spans)
    acc: dict[str, list[float]] = {}
    for span, own in zip(spans, selfs):
        name, start, end, _, _, cpu = span
        row = acc.setdefault(name, [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
        row[3] += cpu
    return {name: Layer(int(r[0]), r[1], r[2], r[3]) for name, r in acc.items()}

