"""In-memory span recording and the wrappers that produce the spans.

A span is one call into a timed entry point: ``(span_id, parent_id,
name, start_ns, end_ns)``, with ``parent_id`` the span that was open on
the same thread when the call began (0 for a root). Spans stay in
memory and are written out once, when the traced process ends or is
asked to dump.

A generator entry point (``Table.scan``) is timed as one span whose
duration is the time spent inside the generator across all of its
``next`` calls; its parent is the span that pulled the first row, which
is the consumer that iterates it (``hash_join``), and calls made while
it runs are its children. Its start and end are therefore not an
interval; only its duration is meaningful.

Wrappers patch the attribute the caller resolves at call time: the
class attribute for methods, and for functions every module global
(and every registry dict value) that holds the original object, since
``from m import f`` copies the reference into the importing module.
They are applied by :func:`after_import` when the program itself first
imports the module, so a traced process imports nothing the program
would not, and each import is paid where the program pays it.
"""

from __future__ import annotations

import functools
import importlib.abc
import itertools
import sys
import threading
import time

_now = time.perf_counter_ns


class Recorder:
    """Per-thread span stacks feeding one shared span list."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int = 1) -> None:
        """Bump a plain counter (no span)."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def record(self, span_id, parent, name, start, end) -> None:
        # list.append is atomic under the interpreter lock.
        self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn):
        """A timing wrapper for a plain function or method."""
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else 0
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                recorder.record(span_id, parent, name, start, end)

        return timed

    def wrap_generator(self, name: str, fn, on_rows=None):
        """A wrapper for a generator function: one span per generator,
        its duration the time spent inside the generator's ``next``.
        ``on_rows(n)`` is called with the number of items it yielded."""
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not recorder.enabled:
                return inner
            return recorder._timed_iter(name, inner, on_rows)

        return timed

    def _timed_iter(self, name, inner, on_rows):
        stack = self._stack()
        spent = 0
        rows = 0
        span_id = parent = first = None
        try:
            while True:
                start = _now()
                if span_id is None:
                    parent = stack[-1] if stack else 0
                    span_id = next(self._ids)
                    first = start
                # Open while the generator runs, so calls it makes
                # (a page fault on the first row) become its children.
                stack.append(span_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    spent += _now() - start
                rows += 1
                yield item
        finally:
            if span_id is not None:
                self.record(span_id, parent, name, first, first + spent)
            if on_rows is not None:
                on_rows(rows)


def self_times(spans) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) ns and self ns.

    A span's self time is its duration minus the durations of its
    direct children. Children of one parent never overlap (they ran one
    after another on the parent's thread), so their sum is the part of
    the parent's interval they cover.
    """
    child_ns: dict[int, int] = {}
    for _sid, parent, _name, start, end in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict[str, dict] = {}
    for sid, _parent, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        duration = end - start
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - child_ns.get(sid, 0)
    return out


def root_ns(spans) -> int:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _sid, parent, _n, start, end in spans if not parent)


def _unwrap(member):
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__, type(member)
    return member, None


def patch_method(recorder: Recorder, cls, attr: str, name: str) -> None:
    """Replace ``cls.attr`` (function, classmethod or staticmethod)."""
    fn, kind = _unwrap(cls.__dict__[attr])
    timed = recorder.wrap(name, fn)
    setattr(cls, attr, kind(timed) if kind is not None else timed)


def patch_function(recorder: Recorder, module, attr: str, name: str,
                   prefix: str = "repro") -> None:
    """Replace the function ``module.attr`` everywhere a caller can
    resolve it: every loaded ``prefix*`` module global and every
    module-level dict value bound to the same object."""
    original = getattr(module, attr)
    timed = recorder.wrap(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith(prefix):
            continue
        namespace = getattr(mod, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = timed
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = timed


class _PostImport(importlib.abc.MetaPathFinder):
    """Runs callbacks right after a named module has executed, before
    the import statement that loaded it binds any of its names."""

    def __init__(self) -> None:
        self.pending: dict[str, list] = {}

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        callbacks = self.pending.pop(name)
        loader = spec.loader
        exec_module = loader.exec_module

        def exec_then_patch(module):
            exec_module(module)
            for callback in callbacks:
                callback(module)

        loader.exec_module = exec_then_patch
        return spec


_post_import = _PostImport()


def after_import(name: str, callback) -> None:
    """Call ``callback(module)`` once module ``name`` has been imported:
    now if it already is, else when the program first imports it."""
    module = sys.modules.get(name)
    if module is not None:
        callback(module)
        return
    if _post_import not in sys.meta_path:
        sys.meta_path.insert(0, _post_import)
    _post_import.pending.setdefault(name, []).append(callback)
