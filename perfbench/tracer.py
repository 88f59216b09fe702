"""In-process span tracer for the onephase modules.

`install()` wraps every public function (the names in each module's
`__all__`) of the layers in `LAYERS`, and rebinds the wrapper in every
loaded `onephase.*` namespace that imported the function by name, so
`from .field import evaluate` in another module is traced too.  No file
of the package changes.

Each call records a span (id, name, start, end, parent id, thread id) in
memory; `Tracer.dump` writes them with the work counters as JSON.  Parent
links follow the call stack of one thread, so a span started in a worker
thread of the sweep pool is a root of its own.

`self_times` turns spans into per-name call counts and self time, the
span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("potentials", "ode1d", "field", "solver", "variations", "fbcheck", "cli")

def _rows(p) -> int:
    shape = getattr(p, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) <= 1 else int(shape[0])


def _file_bytes(path) -> int:
    total = 0
    for candidate in (str(path), os.path.splitext(str(path))[0] + ".json"):
        if os.path.isfile(candidate):
            total += os.path.getsize(candidate)
    return total


def _interior_nodes(grid) -> int:
    count = 1
    for n in grid.shape:
        count *= max(n - 2, 0)
    return count


class Tracer:
    """Span and counter store for one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """Wrap fn so each call records a span; count(args, kwargs, result)
        may add to the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident())
                )
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def count_only(self, fn, count):
        """Wrap fn for its counter alone, recording no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counters, args, kwargs, result)
            return result

        return counted

    def dump(self, path) -> None:
        payload = {"spans": self.spans, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _count_minimize(c, args, kwargs, result) -> None:
    boundary = args[0] if args else kwargs["boundary"]
    iterations = result[1].iterations
    c["solver.iterations"] += iterations
    c["solver.node_iters"] += iterations * _interior_nodes(boundary.grid)


def _count_points(c, args, kwargs, result) -> None:
    p = args[1] if len(args) > 1 else kwargs["p"]
    c["field.table_points"] += _rows(p)


def _count_io(c, args, kwargs, result) -> None:
    path = args[-1] if args else kwargs["path"]
    c["field.io_bytes"] += _file_bytes(path)


def _count_rk4(c, args, kwargs, result) -> None:
    # Accepted steps: the scan stops early once V underflows, leaving the
    # remaining samples at zero.
    V = result[0]
    c["ode1d.rk4_steps"] += int((V[1:] != 0.0).sum())


_COUNTS = {
    "solver.minimize": _count_minimize,
    "field.evaluate": _count_points,
    "field.jacobian": _count_points,
    "field.hessian": _count_points,
    "field.save_field": _count_io,
    "field.load_field": _count_io,
}


def public_functions(module) -> list[tuple[str, object]]:
    """(name, function) for the functions a module lists in __all__."""
    out = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((name, obj))
    return out


def install() -> Tracer:
    """Wrap the public functions of every layer and rebind them everywhere."""
    import importlib

    tracer = Tracer()
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"onephase.{layer}")
        for name, fn in public_functions(module):
            key = f"{layer}.{name}"
            wrapped[fn] = tracer.wrap(key, fn, _COUNTS.get(key))
        # The RK4 integrator is private; it is wrapped for its step counter
        # only, so its time stays in the public caller's self time.
        scan = getattr(module, "_rk4_scan", None)
        if inspect.isfunction(scan):
            wrapped[scan] = tracer.count_only(scan, _count_rk4)
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "onephase" or modname.startswith("onephase.")):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    return tracer


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time).

    Self time is a span's duration minus the union of its children's
    intervals clipped to the span, so overlapping children are not
    subtracted twice.
    """
    children: dict[object, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, name, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, total) for name, (calls, total) in out.items()}
