"""Runtime span tracer: wrap named callables and sum per-layer self time.

The benchmark measures layers without editing the program: a
:class:`Tracer` replaces each public callable of a layer with a wrapper
that opens a span around the call, and puts the original back on
:meth:`Tracer.restore`.

A layer's *self time* is its spans' total duration minus the part of
those spans covered by timed child spans.  The current span lives in a
:class:`contextvars.ContextVar`, so each asyncio task and thread keeps
its own span stack and concurrent tasks never count as each other's
children.

Coroutines are timed one of two ways:

* ``awaited=True`` -- one span from call to completion, waiting
  included (the time a caller waited for the layer, e.g. a score
  dispatched to a worker process);
* otherwise -- only the time the coroutine itself executes, summed over
  its steps (the work, e.g. decoding a frame, not the wait for bytes).

Functions are often imported by name (``from m import f``), so wrapping
``m.f`` alone misses callers that hold their own reference.
:meth:`Tracer.install_function` also rebinds every loaded module global
under the given package prefixes that holds the original.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer"]

_now = time.perf_counter_ns


class _Span:
    __slots__ = ("layer", "child_ns")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_ns = 0


class Tracer:
    """Accumulates calls and self time per layer name."""

    def __init__(self, packages: tuple[str, ...] = ("repro",)):
        self.packages = packages
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._restore: list[tuple[object, str, object]] = []
        self._flush_path: Path | None = None

    # -- accounting --------------------------------------------------------
    def _close(self, span: _Span, duration_ns: int, parent) -> None:
        self.self_ns[span.layer] += duration_ns - span.child_ns
        self.calls[span.layer] += 1
        if parent is not None:
            parent.child_ns += duration_ns

    def snapshot(self) -> dict:
        return {
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    # -- wrappers ----------------------------------------------------------
    def wrap(self, fn, layer, *, awaited: bool = False, on_result=None):
        """A traced stand-in for ``fn``.

        ``layer`` is a name, or a callable mapping the call's positional
        arguments to a name (one wrapper, several layers).  A call made
        while a span of the same layer is open is not a new span, so
        recursion and ``super()`` chains count once.  ``on_result(tracer,
        result)`` runs after each outermost call.
        """
        name_of = layer if callable(layer) else (lambda args: layer)
        current = self._current

        if inspect.iscoroutinefunction(fn):
            if awaited:
                @functools.wraps(fn)
                async def awaited_wrapper(*args, **kwargs):
                    name = name_of(args)
                    parent = current.get()
                    if parent is not None and parent.layer == name:
                        return await fn(*args, **kwargs)
                    span = _Span(name)
                    token = current.set(span)
                    t0 = _now()
                    try:
                        return await fn(*args, **kwargs)
                    finally:
                        elapsed = _now() - t0
                        current.reset(token)
                        self._close(span, elapsed, parent)
                return awaited_wrapper

            @functools.wraps(fn)
            async def busy_wrapper(*args, **kwargs):
                return await _BusyAwaitable(self, name_of(args),
                                            fn(*args, **kwargs))
            return busy_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            parent = current.get()
            if parent is not None and parent.layer == name:
                return fn(*args, **kwargs)
            span = _Span(name)
            token = current.set(span)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now() - t0
                current.reset(token)
                self._close(span, elapsed, parent)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def flush_after(self, fn):
        """``fn`` unchanged, except that a forked child process writes its
        tracer snapshot after each call (children never reach the
        parent's final dump)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if self._flush_path is not None:
                    self.dump(self._flush_path)
        return wrapper

    # -- installation ------------------------------------------------------
    def install_method(self, cls: type, attr: str, layer, **opts) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            traced = type(raw)(self.wrap(raw.__func__, layer, **opts))
        else:
            traced = self.wrap(raw, layer, **opts)
        setattr(cls, attr, traced)
        self._restore.append((cls, attr, raw))

    def install_function(self, module, name: str, layer=None, *,
                         flush: bool = False, **opts) -> None:
        """Wrap ``module.name`` and every by-name import of it."""
        original = getattr(module, name)
        traced = (self.flush_after(original) if flush
                  else self.wrap(original, layer, **opts))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(self.packages):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- child processes ---------------------------------------------------
    def follow_forks(self, out_dir: str | Path) -> None:
        """Make forked children start from zero and write their own
        snapshot to ``out_dir/layers-<pid>.json`` at each flush point."""
        out_dir = Path(out_dir)

        def after_in_child() -> None:
            self.reset()
            self._flush_path = out_dir / f"layers-{os.getpid()}.json"

        os.register_at_fork(after_in_child=after_in_child)

    def dump(self, path: str | Path, extra: dict | None = None) -> None:
        payload = self.snapshot()
        if extra:
            payload.update(extra)
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)


class _BusyAwaitable:
    """Drives a coroutine step by step, timing only the steps."""

    __slots__ = ("tracer", "layer", "coro")

    def __init__(self, tracer: Tracer, layer: str, coro):
        self.tracer = tracer
        self.layer = layer
        self.coro = coro

    def __await__(self):
        current = self.tracer._current
        parent = current.get()
        if parent is not None and parent.layer == self.layer:
            return (yield from self.coro.__await__())
        span = _Span(self.layer)
        coro = self.coro
        busy = 0
        value, error = None, None
        try:
            while True:
                token = current.set(span)
                t0 = _now()
                try:
                    if error is not None:
                        step = coro.throw(error)
                    else:
                        step = coro.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    busy += _now() - t0
                    current.reset(token)
                try:
                    value, error = (yield step), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # cancellation included
                    value, error = None, exc
        finally:
            self.tracer._close(span, busy, parent)
