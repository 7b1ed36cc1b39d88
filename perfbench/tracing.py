"""Spans around the calls each workload makes into the program's layers.

The traced run wraps public functions at the module (or class) attribute
the workload reaches them through.  Each call records one span — name,
start, end, parent span and op id — in memory; nothing is written until
the run ends.  A layer's self time is its span time minus the part its
child spans cover, and op time that no layer span covers is reported as
``unattributed``.

Wrapping is undone after every traced op, so untraced ops of the same
run execute the unwrapped program.  A wrap point the program no longer
has is skipped and listed in :attr:`Tracer.missing`, so the benchmark
keeps running after the program is refactored.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module path, attribute path, span name, on_return)`` — the attribute
#: path may go through a class (``"SequentialEstimator.add"``);
#: ``on_return(tracer, args, kwargs, result)`` records counts.
WrapPoint = Tuple[str, str, str, Optional[Callable]]

OP_SPAN = "op"


class Tracer:
    """In-memory span recorder with install/uninstall of wrap points."""

    def __init__(self, points: List[WrapPoint]) -> None:
        self.points = points
        # Each span: [name, start, end, parent index, op id].
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._op = -1

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    @contextmanager
    def op(self, op_id: int):
        """One traced op: wrappers installed around it, an ``op`` span."""
        self._op = op_id
        self.install()
        root = self.begin(OP_SPAN)
        try:
            yield self
        finally:
            self.end(root)
            self.uninstall()

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str,
                 on_return: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr_path, name, on_return in self.points:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                label = f"{module_name}:{attr_path}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    self._wrapper(raw.__func__, name, on_return))
            else:
                wrapped = self._wrapper(raw, name, on_return)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name, summed over all ops."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out
