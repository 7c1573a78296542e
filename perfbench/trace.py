"""In-memory spans around the program's layer boundaries.

The benchmark wraps public functions of the program (never edits it):
:meth:`Tracer.wrap` swaps a function on its owner for a timing wrapper and
:meth:`Tracer.restore` puts every original back.  Each span records its
name, start, end, parent span and request id (the value uid where the
boundary sees one).  Aggregates (count, total and self time per name) are
kept for every span; the records themselves up to :data:`MAX_SPANS`, written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span records kept for the dump (split over the two traced threads);
#: aggregates count every span regardless.
MAX_SPANS = 200_000

_MISSING = object()


class _ThreadSpans:
    """One thread's span stack, aggregates and records (no locking on the hot path)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list = []
        self.next_id = 0
        #: name -> [count, total_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        self.durations: Dict[str, List[float]] = {}
        self.records: List[Tuple[str, float, float, int, Any, int]] = []


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self._keep: Tuple[str, ...] = ()

    # -- recording ----------------------------------------------------------
    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadSpans(len(self._threads))
                self._threads.append(state)
            for name in self._keep:
                state.durations[name] = []
            self._local.state = state
        return state

    def begin(self, name: str) -> list:
        state = self._state()
        stack = state.stack
        state.next_id += 1
        span_id = (state.index << 40) | state.next_id
        frame = [name, time.perf_counter(), 0.0, span_id, stack[-1][3] if stack else 0, state]
        stack.append(frame)
        return frame

    def end(self, frame: list, rid: Any = None) -> float:
        end = time.perf_counter()
        name, start, children, span_id, parent, state = frame
        stack = state.stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        entry = state.totals.get(name)
        if entry is None:
            entry = state.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        kept = state.durations.get(name)
        if kept is not None:
            kept.append(duration)
        if len(state.records) < MAX_SPANS // 2:
            state.records.append((name, start, end, parent, rid, span_id))
        return duration

    def cancel(self, frame: list) -> None:
        """Drop a begun span without recording it."""
        frame[5].stack.pop()

    @property
    def totals(self) -> Dict[str, List[float]]:
        """name -> [count, total_s, self_s] over every thread."""
        merged: Dict[str, List[float]] = {}
        for state in self._threads:
            for name, (count, total, self_time) in state.totals.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_time
        return merged

    def durations(self, name: str) -> List[float]:
        """Every duration (seconds) of span ``name``, if it was kept."""
        return [d for state in self._threads for d in state.durations.get(name, ())]

    @property
    def records(self) -> List[Tuple[str, float, float, int, Any, int]]:
        return sorted((r for state in self._threads for r in state.records), key=lambda r: r[1])

    # -- wrapping -----------------------------------------------------------
    def keep_durations(self, *names: str) -> None:
        """Keep every duration of these span names (call before any span starts)."""
        self._keep += names

    def _install(self, owner: Any, attr: str, wrapper: Callable) -> Callable:
        original = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} has no own attribute {attr!r}")
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return original

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid: Optional[Callable[..., Any]] = None,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``rid(*args)`` derives the request id.  ``before(start, *args)`` sees
        each call as it starts and ``after(start, end, result, *args)`` once
        it returns (boundary-specific bookkeeping such as hand-off times).
        """
        original = self._install(owner, attr, None)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            if before is not None:
                before(frame[1], *args)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                start = frame[1]
                tracer.end(frame, rid(*args) if rid is not None else None)
                if after is not None:
                    after(start, time.perf_counter(), result, *args)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Time each item a generator function yields as one span ``name``."""
        original = self._install(owner, attr, None)
        tracer = self

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                frame = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.cancel(frame)  # the exhausted call decoded nothing
                    return
                except BaseException:
                    tracer.end(frame)
                    raise
                tracer.end(frame)
                yield item

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------
    def mean_self_us(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[2] / entry[0] * 1e6 if entry and entry[0] else 0.0

    def mean_us(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[1] / entry[0] * 1e6 if entry and entry[0] else 0.0

    def total_s(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[1] if entry else 0.0

    def count(self, name: str) -> int:
        entry = self.totals.get(name)
        return int(entry[0]) if entry else 0

    def table(self) -> List[str]:
        lines = [f"{'span':<22} {'count':>9} {'total_ms':>10} {'self_ms':>10} {'self_us/call':>12}"]
        totals = self.totals
        for name in sorted(totals):
            count, total, self_time = totals[name]
            lines.append(
                f"{name:<22} {int(count):>9} {total * 1e3:>10.1f} {self_time * 1e3:>10.1f} "
                f"{self_time / count * 1e6:>12.2f}"
            )
        return lines

    def dump(self, path: str) -> int:
        records = self.records
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, rid, span_id in records:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": rid,
                }) + "\n")
        return len(records)
