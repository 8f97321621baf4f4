"""Spans recorded around chei2d's public layer entry points, from outside.

The tracer replaces public functions and methods with timing wrappers
for the duration of a traced pass and puts the originals back after it.
A function is replaced under every name a ``chei2d`` module holds it by,
so calls that go through ``from .x import f`` are seen too.  Names a
later version of the package no longer has are skipped.

Spans stay in memory as ``[id, name, parent, start, end, note]`` lists.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

# (module, attribute) pairs traced besides the names chei2d.cli imports.
EXTRA_FUNCTIONS = (
    ("chei2d.ranking", "pagerank"),
    ("chei2d.ranking", "rank_order"),
    ("chei2d.spamfilter", "filtered_cheirank"),
    ("chei2d.spamfilter", "filter_links_by_prob"),
)
# (module, class, method names) traced as methods.
METHODS = (
    ("chei2d.ranking", "StochasticOperator", ("__init__", "apply")),
    ("chei2d.graph", "DirectedGraph", ("reverse", "from_links")),
)


def _chei2d_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "chei2d" or n.startswith("chei2d."))]


def _layer_name(fn) -> str:
    module = fn.__module__.removeprefix("chei2d.")
    return f"{module}.{fn.__qualname__}"


def apply_bytes(op) -> int:
    """Computed memory traffic of one CSR matrix-vector product: values,
    column indices and row pointers read once, the input vector gathered
    once per stored value, the output written once."""
    matrix = getattr(op, "matrix", None)
    n = int(op.node_count)
    if matrix is None or not hasattr(matrix, "indptr"):
        return 0
    nnz = int(matrix.nnz)
    idx = matrix.indices.dtype.itemsize
    val = matrix.data.dtype.itemsize
    return nnz * (val + idx + 8) + (n + 1) * matrix.indptr.dtype.itemsize + n * 8


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._wrapped: set[tuple] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        rec = [len(self.spans), name, stack[-1] if stack else None,
               time.perf_counter(), None, None]
        self.spans.append(rec)
        stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                if note is not None:
                    rec[5] = note(args[0])
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
        return traced

    # -- installing wrappers --------------------------------------------

    def _replace_everywhere(self, original, name: str) -> None:
        wrapper = self.wrap(original, name)
        for module in _chei2d_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr: str) -> None:
        raw = cls.__dict__.get(attr)
        if (cls, attr) in self._wrapped:
            return
        if isinstance(raw, classmethod):
            fn, rewrap = raw.__func__, classmethod
        elif inspect.isfunction(raw):
            fn, rewrap = raw, (lambda f: f)
        else:
            return
        note = apply_bytes if attr == "apply" else None
        self._wrapped.add((cls, attr))
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, rewrap(self.wrap(fn, _layer_name(fn), note)))

    def install(self) -> None:
        import chei2d.cli

        done = set()
        for value in list(vars(chei2d.cli).values()):
            module = getattr(value, "__module__", "") or ""
            if not module.startswith("chei2d.") or module == "chei2d.cli":
                continue
            if inspect.isfunction(value) and id(value) not in done:
                done.add(id(value))
                self._replace_everywhere(value, _layer_name(value))
            elif inspect.isclass(value):
                for attr, raw in list(vars(value).items()):
                    if isinstance(raw, classmethod) and not attr.startswith("_"):
                        self._replace_method(value, attr)
        for module_name, attr in EXTRA_FUNCTIONS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if inspect.isfunction(fn) and id(fn) not in done:
                done.add(id(fn))
                self._replace_everywhere(fn, _layer_name(fn))
        for module_name, cls_name, attrs in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            if inspect.isclass(cls):
                for attr in attrs:
                    self._replace_method(cls, attr)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._wrapped.clear()


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {rec[0]: rec[4] - rec[3] for rec in spans}
    for rec in spans:
        if rec[2] is not None and rec[2] in own:
            own[rec[2]] -= rec[4] - rec[3]
    return own


def subtree(spans: list[list], root_id: int) -> list[list]:
    """The span ``root_id`` and every span nested under it."""
    keep = {root_id}
    out = []
    for rec in spans:  # parents are recorded before their children
        if rec[0] in keep or rec[2] in keep:
            keep.add(rec[0])
            out.append(rec)
    return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, and the notes."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for rec in spans:
        entry = out.setdefault(rec[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "note": 0})
        entry["calls"] += 1
        entry["total_s"] += rec[4] - rec[3]
        entry["self_s"] += own[rec[0]]
        if rec[5]:
            entry["note"] += rec[5]
    return out
