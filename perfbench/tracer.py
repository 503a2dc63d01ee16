"""Outside-in layer tracing for the benchmark's traced runs.

The program under test carries no benchmark hooks.  Instead, before a
traced unit starts, :class:`LayerTracer` replaces the public entry points
of each layer (the table in :mod:`layers`) with timing wrappers, at the
module or class level, and puts the originals back afterwards.  Every
call into a wrapped function records one span (bin, parent span, start,
end) in flat arrays held in memory; :meth:`LayerTracer.profile` turns the
spans into self time per bin, and :meth:`LayerTracer.write` saves them.

A bin's self time is its spans' duration minus the time their child
spans cover.  The run is single-threaded and wrappers nest strictly, so
the covered time is the sum of the children's durations.  The root span
around each unit has no bin; its self time is the unattributed time.

Functions are patched wherever a loaded ``repro`` module holds a
reference to them, so ``from x import f`` bindings see the wrapper too.
Methods are patched on the class that defines them, so bound methods
taken after installation (timer callbacks, handler tables) are wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT_BIN = "root"


class LayerTracer:
    """Install timing wrappers, collect spans, compute self time per bin."""

    def __init__(self, bins) -> None:
        # bins: sequence of (bin name, [target, ...]); see layers.BINS.
        self.bin_names = [ROOT_BIN] + [name for name, _targets in bins]
        self._bins = bins
        self.span_bin = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        # (owner, attribute, original) for every patch, to undo them.
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans.

    def _open(self, bin_id: int) -> int:
        index = len(self.span_start)
        self.span_bin.append(bin_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """The root span around one traced unit."""
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, bin_id: int):
        span_bin = self.span_bin
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # A generator does its work when resumed, inside whichever
            # span consumes it: each resume is one span.
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    index = len(span_start)
                    span_bin.append(bin_id)
                    span_parent.append(stack[-1])
                    span_start.append(clock())
                    span_end.append(0.0)
                    stack.append(index)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span_end[index] = clock()
                        stack.pop()
                    yield item

            wrapper = generator_wrapper
        else:
            def wrapper(*args, **kwargs):
                index = len(span_start)
                span_bin.append(bin_id)
                span_parent.append(stack[-1])
                span_start.append(clock())
                span_end.append(0.0)
                stack.append(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span_end[index] = clock()
                    stack.pop()

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__module__ = fn.__module__
        return wrapper

    # ------------------------------------------------------------------ #
    # Installation.

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn, wrapper) -> None:
        for name, module in sorted(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in sorted(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every target of every bin.

        Call once the workload has run untraced, so every module it
        imports lazily is loaded and its ``from x import f`` copies are
        found and patched.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for bin_id, (_name, targets) in enumerate(self._bins, start=1):
            for target in targets:
                for owner, attr in resolve(target):
                    value = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                    wrapper = self._wrap(value, bin_id)
                    if isinstance(owner, type):
                        self._patch(owner, attr, wrapper)
                    else:
                        self._patch_function(value, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Results.

    def profile(self) -> dict:
        """Self seconds and call count per bin, over every span so far.

        Returns ``{"bins": {name: {"self_s", "calls"}}, "unattributed_s",
        "wall_s"}`` where ``wall_s`` is the total of the root spans.
        """
        if len(self._stack) != 1:
            raise RuntimeError("profile() called with spans still open")
        n_bins = len(self.bin_names)
        bins = np.frombuffer(self.span_bin, dtype=np.uint16).astype(np.intp)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        durations = (np.frombuffer(self.span_end, dtype=np.float64)
                     - np.frombuffer(self.span_start, dtype=np.float64))
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent],
                              weights=durations[has_parent],
                              minlength=len(durations))
        self_time = durations - covered
        bin_self = np.bincount(bins, weights=self_time, minlength=n_bins)
        bin_calls = np.bincount(bins, minlength=n_bins)
        return {
            "bins": {name: {"self_s": float(bin_self[i]),
                            "calls": int(bin_calls[i])}
                     for i, name in enumerate(self.bin_names) if i},
            "unattributed_s": float(bin_self[0]),
            "wall_s": float(durations[bins == 0].sum()),
        }

    def write(self, path: Path) -> None:
        """Save every span (bin, parent, start, end) and the bin names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, bin_names=np.array(self.bin_names),
                     bin=np.frombuffer(self.span_bin, dtype=np.uint16),
                     parent=np.frombuffer(self.span_parent, dtype=np.int64),
                     start=np.frombuffer(self.span_start, dtype=np.float64),
                     end=np.frombuffer(self.span_end, dtype=np.float64))


def resolve(target: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs a target string names.

    ``"pkg.mod:func"`` is a module function; ``"pkg.mod:Class.meth"`` a
    method defined on that class; ``"pkg.mod:Class.*"`` every public
    function defined on the class; ``"pkg.mod:Class+.meth"`` the method
    on the class and on every subclass that defines its own.
    """
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, dot, attr = path.partition(".")
    if not dot:
        fn = getattr(module, owner_name)
        if not inspect.isfunction(fn):
            raise TypeError(f"{target} is not a function")
        return [(module, owner_name)]
    with_subclasses = owner_name.endswith("+")
    cls = getattr(module, owner_name.rstrip("+"))
    classes = [cls]
    if with_subclasses:
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop()
            if sub not in classes:
                classes.append(sub)
                pending.extend(sub.__subclasses__())
        classes.sort(key=lambda c: (c.__module__, c.__qualname__))
    pairs = []
    for owner in classes:
        for name, value in sorted(vars(owner).items()):
            if not inspect.isfunction(value):
                continue
            if attr == "*" and not name.startswith("_") or name == attr:
                pairs.append((owner, name))
    if not pairs:
        raise LookupError(f"{target} names no function")
    return pairs
