"""Span tracing from outside the program: wrappers around public names.

:class:`Tracer` patches attributes of classes and modules (never of
instances, never private names) with wrappers that record one span per call
— name, start, end and the span that caused it — keeps the spans in memory,
and restores the identical original objects when the ``with`` block ends.
Timed runs never install a tracer; one separate traced pass per workload
gives the per-layer numbers.

A span's *self time* is its duration minus the part its direct children
cover, so work the tracer itself adds inside a span (it encodes every sent
message once to measure wire bytes) is recorded as a ``trace.*`` child span
and never counted as time of the layer that was interrupted.

A target that no longer exists is skipped with a warning and listed in
:attr:`Tracer.missing`; metrics derived from it are reported as unavailable
instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from collections.abc import Callable
from typing import NamedTuple

__all__ = ["Span", "Tracer", "resolve"]

#: marks a patched attribute that *owner* inherited rather than defined
_INHERITED = object()


class Span(NamedTuple):
    """One recorded call: who, when, and the index of the causing span."""

    name: str
    start: float
    end: float
    parent: int | None


def resolve(path: str) -> tuple[object, str]:
    """Split ``"pkg.module:Class.attr"`` into (owner object, attribute name).

    Raises :class:`LookupError` when the module, the class or the attribute
    is gone — the caller turns that into a warning.
    """
    module_name, _, qualname = path.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"{path}: {error}") from error
    *parents, attr = qualname.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise LookupError(f"{path}: no attribute {part!r}")
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise LookupError(f"{path}: no attribute {attr!r}")
    return owner, attr


class Tracer:
    """Context manager that installs span-recording wrappers and removes them.

    Spans are kept as four parallel columns (a traced pass records several
    hundred thousand of them); :meth:`spans` renders them as tuples.

    Parameters
    ----------
    clock:
        The time source of every span.  The benchmark passes
        :meth:`perf.hostclock.HostClock.work_now`, which calibration bursts
        do not advance; tests pass a fake.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._planned: list[tuple[str, str | Callable[..., str], Callable | None]] = []

    # -- declaring targets ----------------------------------------------
    def add(
        self,
        path: str,
        name: str | Callable[..., str],
        before: Callable[..., None] | None = None,
    ) -> None:
        """Plan a wrapper around the public callable at *path*.

        *name* is the span name, or a function of the call's arguments that
        returns it (evaluated **before** the call, from public fields only).
        *before*, if given, also runs before the call, inside the new span —
        whatever it does is its own business to record as a child span.
        """
        self._planned.append((path, name, before))

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span now; returns its index for :meth:`close`."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the span opened as *index* (and any left open inside it)."""
        now = self.clock()
        stack = self._stack
        while stack:
            top = stack.pop()
            self.ends[top] = now
            if top == index:
                return

    def _wrap(
        self,
        original: Callable,
        name: str | Callable[..., str],
        before: Callable | None,
    ) -> Callable:
        open_span, close_span = self.open, self.close
        if isinstance(name, str) and before is None:
            # the hot case (hundreds of thousands of calls): no indirection
            @functools.wraps(original)
            def plain(*args, **kwargs):
                index = open_span(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(index)

            return plain

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = open_span(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                if before is not None:
                    before(*args, **kwargs)
                return original(*args, **kwargs)
            finally:
                close_span(index)

        return wrapper

    # -- installing -----------------------------------------------------
    def __enter__(self) -> Tracer:
        for path, name, before in self._planned:
            try:
                owner, attr = resolve(path)
            except LookupError as error:
                warnings.warn(f"trace target skipped: {error}", stacklevel=2)
                self.missing.append(path)
                continue
            # the raw attribute (a plain function for methods), so that
            # restoring puts back the identical object; an inherited one is
            # shadowed on *owner* and the shadow deleted again
            original = vars(owner).get(attr, _INHERITED)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, before))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------
    def spans(self) -> list[Span]:
        """Every recorded span, in the order they were opened."""
        return [
            Span(*row) for row in zip(self.names, self.starts, self.ends, self.parents)
        ]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent is not None:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")
