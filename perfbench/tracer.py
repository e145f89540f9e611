"""Outside-in span tracer: wraps the program's functions from the benchmark.

The program under test is not edited. Instead each layer's entry point is
replaced, for the duration of a ``with Tracer(...)`` block, by a wrapper
that records a span. A function must be wrapped at the name its caller
looks it up under: ``repro.core.exact`` does ``from repro.core.ratios
import candidate_in``, so wrapping ``repro.core.ratios.candidate_in``
would record nothing; the probe names ``repro.core.exact`` instead.

Spans stay in memory (name, start, end, parent, run id, counts) and are
written out by the caller when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """Where to wrap and what to call the span.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``. ``counts``
    maps the call's ``(args, kwargs, result)`` to counts stored on the span.
    """

    target: str
    span: str
    counts: Callable[[tuple, dict, Any], dict[str, float]] | None = None


def _resolve(target: str) -> tuple[Any, str]:
    mod_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(mod_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs probes on enter, restores every original on exit."""

    def __init__(self, probes: list[Probe]) -> None:
        self.probes = probes
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- span recording ----------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order at {span.name}")
        return span

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span around one solve; each root starts a new run id."""
        self.run += 1
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrapper(self, probe: Probe, orig: Callable) -> Callable:
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(probe.span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span = self._close(idx)
            if probe.counts is not None:
                span.counts.update(probe.counts(args, kwargs, result))
            return result

        return traced

    # -- install / restore -------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for probe in self.probes:
                owner, attr = _resolve(probe.target)
                orig = vars(owner).get(attr)
                if not callable(orig):
                    raise LookupError(f"cannot trace {probe.target}: no such function")
                setattr(owner, attr, self._wrapper(probe, orig))
                self._saved.append((owner, attr, orig))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        """Write spans as JSON lines, one span per line."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run sequentially (single thread), so their
    intervals do not overlap and their durations can be summed.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]
