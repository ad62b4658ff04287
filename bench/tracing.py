"""In-memory spans and counts recorded around roomsense's public calls.

The tracer patches functions and methods of an imported ``roomsense`` from
the outside and restores them on ``close``; the program itself carries no
tracing code. A span is (name, start, end, parent, thread); a span opened on
a thread with no open span (a ``tune`` worker) takes the current stage as its
parent. Spans whose names are in ``CONTAINERS`` group work without being
attributed to a layer: a stage's unattributed share is the part of its wall
time covered by no other span.
"""

from __future__ import annotations

import contextlib
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

CONTAINER_PREFIXES = ("stage.", "models.")
CONTAINERS = {"cli.main", "training.train_classifier", "training.train_autoencoder",
              "search.random_search"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def is_container(name: str) -> bool:
    return name in CONTAINERS or name.startswith(CONTAINER_PREFIXES)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples: list[tuple[str, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stage: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self._stack())

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples.append((key, value))

    def _open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        parent = stack[-1][0] if stack else self._stage
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)  # reserved; filled when the span closes
        stack.append((sid, name))
        return sid, parent, time.perf_counter()

    def _close(self, sid: int, name: str, parent: int | None, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans[sid] = Span(name, start, end, parent, threading.get_ident())

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span of one benchmark stage; worker threads' root spans attach to it."""
        sid, parent, start = self._open(f"stage.{name}")
        self._stage = sid
        try:
            yield
        finally:
            self._close(sid, f"stage.{name}", parent, start)
            self._stage = None

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` recording a span; hooks see (args, kwargs[, result])."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            sid, parent, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, parent, start)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def patch_function(self, module: str, attr: str, name: str, before=None, after=None):
        """Replace ``module.attr`` in every loaded module that imported it by name."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(name, original, before, after)
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, before=None, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__, before, after))
        else:
            replacement = self.wrap(name, raw, before, after)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def close(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reading -------------------------------------------------------------

    def mark(self) -> tuple[int, Counter, int]:
        return len(self.spans), Counter(self.counts), len(self.samples)

    def since(self, mark: tuple[int, Counter, int]):
        """Spans (keyed by id), counts and samples recorded after ``mark``."""
        first, counts, n_samples = mark
        spans = {first + i: s for i, s in enumerate(self.spans[first:]) if s is not None}
        samples: dict[str, list[float]] = defaultdict(list)
        for key, value in self.samples[n_samples:]:
            samples[key].append(value)
        return spans, self.counts - counts, samples


def self_seconds(spans: dict[int, Span], name: str) -> float:
    """Total duration of ``name`` spans minus the time of their direct children."""
    child_time = defaultdict(float)
    for s in spans.values():
        if s.parent in spans:
            child_time[s.parent] += s.seconds
    return sum(s.seconds - child_time[i] for i, s in spans.items() if s.name == name)


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = -math.inf
    for start, end in sorted(intervals):
        if start > cur_end:
            total += cur_end - cur_start if cur_end > cur_start else 0.0
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end > cur_start:
        total += cur_end - cur_start
    return total


def stage_unattributed(spans: list[Span]) -> dict[str, float]:
    """Per stage, the share of its wall time that no attributed span covers."""
    out = {}
    for stage in (s for s in spans if s.name.startswith("stage.")):
        inside = [(max(s.start, stage.start), min(s.end, stage.end)) for s in spans
                  if not is_container(s.name) and s.end > stage.start and s.start < stage.end]
        covered = union_seconds(inside)
        out[stage.name[len("stage."):]] = max(0.0, 1.0 - covered / stage.seconds)
    return out
