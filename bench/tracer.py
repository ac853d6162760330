"""In-memory span recorder and the aggregation that turns spans into
per-layer numbers.

A traced child process (``launch.py``) wraps public prsrg callables with
``Tracer.wrap``. Each call records one span (name, start, end, parent) with
``perf_counter_ns`` into per-thread arrays, plus optional notes (name,
value) taken from the call's arguments or result. Nothing is written until
``Tracer.dump`` runs after the command finishes. The benchmark process then
reads the dump with ``load`` and summarises it with ``Summary``.

Spans on one thread nest strictly, so a span's self time is its duration
minus the summed durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from array import array
from collections import Counter
from pathlib import Path


class _ThreadBuffer:
    __slots__ = ("name", "start", "end", "parent", "stack", "notes", "main")

    def __init__(self, main: bool):
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.notes: dict[int, int] = {}
        self.main = main


class Tracer:
    """Records spans and notes; one buffer per thread, merged at dump."""

    def __init__(self):
        self._names: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()

    def _id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def _buf(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread()
                                is threading.main_thread())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def open(self, nid: int) -> int:
        buf = self._buf()
        i = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0)
        buf.stack.append(i)
        buf.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        t = time.perf_counter_ns()
        buf = self._local.buf
        buf.end[i] = t
        buf.stack.pop()

    def note(self, name: str, value: int) -> None:
        notes = self._buf().notes
        nid = self._id(name)
        notes[nid] = notes.get(nid, 0) + int(value)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        i = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.

        ``owner`` is a module or a class; wrap the attribute where its caller
        looks it up, since ``from x import f`` binds f at import time.
        ``note(tracer, args, result)`` may record counts after each call.
        """
        fn = owner.__dict__[attr]
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if note is not None:
                note(tracer, args, out)
            return out

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        """Write spans as a JSON header plus raw arrays (``path``.bin)."""
        path = Path(path)
        head = {"names": sorted(self._names, key=self._names.get),
                "threads": []}
        with open(path.with_suffix(".bin"), "wb") as fh:
            for buf in self._buffers:
                head["threads"].append({
                    "spans": len(buf.name), "main": buf.main,
                    "notes": {str(k): v for k, v in buf.notes.items()}})
                for arr in (buf.name, buf.start, buf.end, buf.parent):
                    arr.tofile(fh)
        path.write_text(json.dumps(head))


def load(path) -> "Summary":
    path = Path(path)
    head = json.loads(path.read_text())
    threads = []
    with open(path.with_suffix(".bin"), "rb") as fh:
        for t in head["threads"]:
            arrs = []
            for code in ("H", "q", "q", "i"):
                a = array(code)
                a.fromfile(fh, t["spans"])
                arrs.append(a)
            threads.append((t, arrs))
    return Summary(head["names"], threads)


class Summary:
    """Per-name calls, total time, self time and notes over all threads."""

    def __init__(self, names: list[str], threads):
        self.names = names
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.notes: Counter[str] = Counter()
        self.main_root_ns = 0
        self._threads = threads
        for info, (name, start, end, parent) in threads:
            for nid, v in info["notes"].items():
                self.notes[names[int(nid)]] += v
            child = [0] * len(name)
            for i in range(len(name)):
                p = parent[i]
                if p >= 0:
                    child[p] += end[i] - start[i]
            for i in range(len(name)):
                d = end[i] - start[i]
                n = names[name[i]]
                self.calls[n] += 1
                self.total_ns[n] += d
                self.self_ns[n] += d - child[i]
                if parent[i] < 0 and info["main"]:
                    self.main_root_ns += d

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def span_durations_s(self, name: str) -> list[float]:
        out = []
        for _, (names, start, end, _) in self._threads:
            out.extend((end[i] - start[i]) / 1e9 for i in range(len(names))
                       if self.names[names[i]] == name)
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (at any depth) inside an ``ancestor`` span."""
        count = 0
        for _, (names, _, _, parent) in self._threads:
            inside = [False] * len(names)
            for i in range(len(names)):
                p = parent[i]
                inside[i] = p >= 0 and (
                    inside[p] or self.names[names[p]] == ancestor)
                count += inside[i] and self.names[names[i]] == name
        return count
