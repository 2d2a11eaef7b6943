"""Span tracing of redar's layers from outside the package.

``Tracer.installed()`` replaces every public function of the layer
modules with a timing wrapper, at each module attribute that holds it:
``redar.bounds.frequency_response`` is wrapped as well as
``redar.linalg.frequency_response``, because a caller looks a function
up in its own module's namespace.  While ``Tracer.op(i)`` is open, each
call appends a span (name, start, end, parent, op) to an in-memory
list; outside it the wrappers only forward the call.  Calls made while
checking outputs are therefore not recorded.

Self time of a span is its duration minus the durations of its direct
children.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = (
    "systems",
    "varx",
    "realization",
    "linalg",
    "kalman",
    "bounds",
    "experiments",
    "serialize",
)

# Work done by a call, as an exact count, for the functions whose cost
# scales with it: (args, kwargs, result) -> int.
WORK = {
    "linalg.frequency_response": lambda a, k, r: int(np.size(a[1] if len(a) > 1 else k["zs"])),
    "systems.simulate": lambda a, k, r: len(r),
    "realization.run_predictor": lambda a, k, r: int(r.shape[0]),
    # T * p * n_z * 8: the bytes of the regressor matrix D.
    "varx.build_regressors": lambda a, k, r: int(r[0].nbytes),
}


def public_functions():
    """{"layer.name": function} for every public function of the layers."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"redar.{layer}")
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                out[f"{layer}.{name}"] = value
    return out


class Tracer:
    """Span collector for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, work]
        self._stack: list[int] = []
        self._op: int | None = None

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(len(self.spans))
            span = [name, time.perf_counter(), 0.0, parent, self._op, 0]
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place inside the block, originals restored after."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions().items()}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "redar" or mod_name.startswith("redar."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    @contextlib.contextmanager
    def op(self, index: int):
        """Record spans under op ``index`` (-1 for set-up) inside the block."""
        self._op = index
        try:
            yield self
        finally:
            self._op = None
            self._stack.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "work")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def totals(self, ops) -> dict[str, dict[str, float]]:
        """Per function over the spans of ``ops``: calls, work, self and
        inclusive seconds.  Inclusive time counts only the outermost call
        of a function, so recursion is not counted twice."""
        ops = set(ops)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, op, work) in enumerate(self.spans):
            if op not in ops:
                continue
            row = out.setdefault(name, {"calls": 0, "work": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["work"] += work
            row["self_s"] += (end - start) - child[i]
            if not self._has_ancestor(parent, name):
                row["incl_s"] += end - start
        return out

    def _has_ancestor(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

