"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``. It observes a layer by rebinding a
public name in the module that calls it (``dpfed.dpsgd.compose``,
``dpfed.federation.encode``, ``WorkerReplica.make_release``, ...) to a
wrapper, and restores the original object afterwards. ``Patches`` owns
the rebinding; ``Tracer`` owns the spans.

Every span has a name, a start, an end, a parent and a thread. Self time
is computed as the span's duration minus the time its child spans cover;
children run on the parent's thread and nest, so that is the sum of the
children's durations, kept online on a per-thread stack. Spans of very
hot leaf calls (millions per run) are only aggregated: they count toward
calls, total and self time and toward their parent's child time, but no
record is kept for them.
"""

from __future__ import annotations

import functools
import threading
from array import array
from collections import defaultdict
from time import perf_counter


class Patches:
    """Rebinds attributes and restores them in reverse order."""

    def __init__(self):
        self._stack: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._stack.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> list[tuple[object, str, object]]:
        """Undo every rebinding, newest first; returns what was undone."""
        undone = []
        while self._stack:
            owner, attr, original = self._stack.pop()
            setattr(owner, attr, original)
            undone.append((owner, attr, original))
        return undone


def not_restored(bindings: list[tuple[object, str, object]]) -> list[str]:
    """Names in ``bindings`` whose current object is not the recorded original."""
    bad = []
    for owner, attr, original in bindings:
        current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if current is not original:
            bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return bad


class _ThreadBuffer:
    """One thread's spans, open-span stack and aggregates; no locking needed."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[list] = []  # [child_time, recorded index or nearest recorded ancestor]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.series: dict[str, list] = defaultdict(list)


class Tracer:
    """Collects spans from wrapped callables across threads."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def wrap(self, name: str, fn, measure=None, record: bool = True):
        """A wrapper of ``fn`` that records a span named ``name``.

        ``measure(buffer, args, kwargs, result, seconds)`` may add counters
        for the call. ``record=False`` aggregates without keeping a span.
        """
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else None
            if record:
                index = len(buf.starts)
                buf.name_ids.append(name_id)
                buf.parents.append(parent[1] if parent is not None else -1)
                buf.starts.append(0.0)
                buf.ends.append(0.0)
            else:
                index = parent[1] if parent is not None else -1
            frame = [0.0, index]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                buf.calls[name] += 1
                buf.total[name] += dur
                buf.self_time[name] += dur - frame[0]
                if record:
                    buf.starts[index] = t0
                    buf.ends[index] = t1
            if measure is not None:
                measure(buf, args, kwargs, result, dur)
            return result

        return traced

    # -- reading the trace -------------------------------------------------

    def buffers(self) -> list[_ThreadBuffer]:
        with self._lock:
            return list(self._buffers)

    def calls(self, name: str) -> int:
        return sum(b.calls.get(name, 0) for b in self.buffers())

    def total(self, name: str) -> float:
        return sum(b.total.get(name, 0.0) for b in self.buffers())

    def self_time(self, name: str, threads=None) -> float:
        return sum(
            b.self_time.get(name, 0.0)
            for b in self.buffers()
            if threads is None or threads(b.thread_name)
        )

    def counter(self, name: str) -> float:
        return sum(b.counters.get(name, 0.0) for b in self.buffers())

    def series(self, name: str) -> list:
        out: list = []
        for b in self.buffers():
            out.extend(b.series.get(name, ()))
        return out

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for b in self.buffers():
            for name, s in b.self_time.items():
                out[name] += s
        return dict(out)

    def span_count(self) -> int:
        return sum(len(b.starts) for b in self.buffers())

    def write_spans(self, path) -> int:
        """Write every recorded span as TSV: id, parent, thread, name, start, end."""
        n = 0
        with open(path, "w") as out:
            out.write("span\tparent\tthread\tname\tstart_s\tend_s\n")
            for k, b in enumerate(self.buffers()):
                tag = f"t{k}"
                for i in range(len(b.starts)):
                    parent = b.parents[i]
                    parent_id = f"{tag}:{parent}" if parent >= 0 else "-"
                    out.write(
                        f"{tag}:{i}\t{parent_id}\t{b.thread_name}\t{self._names[b.name_ids[i]]}\t"
                        f"{b.starts[i]!r}\t{b.ends[i]!r}\n"
                    )
                    n += 1
        return n
