"""Span tracer that wraps terwlab's public functions from outside the package.

Layers are terwlab's modules.  ``Tracer.install`` replaces every public
function of every layer at each module attribute that binds it, so calls
through imported names (``terwlab.cli.spectral_data``) and through module
globals (``spectral.detect_q_polynomial`` inside ``spectral_data``) are both
recorded, and ``cli.main`` still runs its real path.  Spans stay in memory
as ``Span`` records; ``uninstall`` puts every original function back.

A tracer built with ``memory_layers`` also records, for each span of those
layers, the growth of tracemalloc's traced memory over its interval (peak
minus the level at entry).  tracemalloc runs only while such a span is
open, because it slows allocation-heavy Python code several times over;
timing passes use a tracer without memory layers.  Peaks are folded into
every open memory span before tracemalloc's peak is reset, so nested
spans see correct peaks.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("generators", "scheme", "spectral", "context", "decomposer", "predictor", "multiplicity", "qs", "cli")
PACKAGE = "terwlab"
OP = "op"


@dataclass
class Span:
    name: str  # "<layer>.<function>", or "op" for the benchmark's own per-op root
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into Tracer.spans
    op_id: str
    error: str | None = None  # exception class that left the span
    alloc: int = 0  # traced-memory growth over the span, bytes

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self, memory_layers=()):
        self.spans: list[Span] = []
        self.memory_layers = frozenset(memory_layers)
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # [span index, level at entry, peak so far] per open memory span
        self._patches: list[tuple] = []
        self._op_id = ""

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(home).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                traced = self._wrap(f"{layer}.{fn.__name__}", fn)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, binding, fn))
                            setattr(module, binding, traced)

    def uninstall(self) -> None:
        if self._mem:
            tracemalloc.stop()
            self._mem.clear()
        for module, binding, fn in reversed(self._patches):
            setattr(module, binding, fn)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(index, type(exc).__name__)
                raise
            tracer._exit(index, None)
            return result

        return traced

    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem:
            if peak > frame[2]:
                frame[2] = peak
        tracemalloc.reset_peak()
        return current

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        if name.split(".", 1)[0] in self.memory_layers:
            if not self._mem:
                tracemalloc.start()
            current = self._fold_peak()
            self._mem.append([index, current, current])
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._op_id))
        self._stack.append(index)
        return index

    def _exit(self, index: int, error: str | None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        span.error = error
        self._stack.pop()
        if self._mem and self._mem[-1][0] == index:
            self._fold_peak()
            _, base, peak = self._mem.pop()
            span.alloc = peak - base
            if not self._mem:
                tracemalloc.stop()

    @contextmanager
    def op(self, op_id: str):
        """Root span around one benchmark op; every layer span of the op nests in it."""
        self._op_id = op_id
        index = self._enter(OP)
        try:
            yield
        finally:
            self._exit(index, None)
            self._op_id = ""


# ---------------------------------------------------------------- analysis

def child_times(spans: list[Span]) -> list[int]:
    """The part of each span's interval that its child spans cover, in ns.

    Children of one span run one after another on one thread, so their
    coverage is the sum of their durations.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return covered


def self_times(spans: list[Span]) -> list[int]:
    """Span duration minus child-span coverage, in ns."""
    return [span.duration - c for span, c in zip(spans, child_times(spans))]


def is_layer_outermost(spans: list[Span], index: int) -> bool:
    layer = spans[index].layer
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].layer == layer:
            return False
        parent = spans[parent].parent
    return True


def origin_layer(spans: list[Span], op_indices: list[int], error: str) -> str | None:
    """Layer where an exception of class ``error`` that ended an op was raised.

    Start from the last span of the op that this exception left, then follow
    the failed child that ended last down to the innermost wrapped function.
    """
    failed = [i for i in op_indices if spans[i].error == error and spans[i].name != OP]
    if not failed:
        return None
    current = max(failed, key=lambda i: spans[i].end)
    while True:
        children = [i for i in failed if spans[i].parent == current]
        if not children:
            return spans[current].layer
        current = max(children, key=lambda i: spans[i].end)
