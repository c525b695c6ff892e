"""Shared pieces of the repo benchmark: spans, statistics, process control.

Everything here belongs to the benchmark, not to the program under test:
spans are recorded by the benchmark's own code around calls into the
program's public entry points, kept in memory, and written out once at
the end of a traced run.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import signal
import statistics
import time
from typing import Dict, List, Optional, Sequence

from repro import obs

#: Flush policy of every daemon the benchmark starts (the daemon's own
#: defaults, spelled out so both sides of any comparison use the same).
JOURNAL_FSYNC_EVERY = 8
SNAPSHOT_EVERY = 256


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span store: name, start, end, parent, trace id.

    ``span`` is a context manager for the benchmark's own calls;
    ``add`` records a span measured elsewhere (a program ``Recorder``
    phase, a daemon op record) under a parent the benchmark chose.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, trace: object = None) -> int:
        span_id = next(self._ids)
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "trace": trace,
        })
        return span_id

    def span(self, name: str, parent: Optional[int] = None,
             trace: object = None) -> "_Live":
        return _Live(self, name, parent, trace)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus
        the part its direct children cover."""
        child_s: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = (
                    child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_s.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s, default=str) + "\n")


class _Live:
    __slots__ = ("_tracer", "_name", "_parent", "_trace", "_start", "id")

    def __init__(self, tracer, name, parent, trace):
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._trace = trace
        self.id: Optional[int] = None

    def __enter__(self) -> "_Live":
        # Reserve the id on entry so children can name their parent
        # before this span ends.
        self.id = next(self._tracer._ids)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.spans.append({
            "id": self.id, "name": self._name, "start": self._start,
            "end": time.perf_counter(), "parent": self._parent,
            "trace": self._trace,
        })


class MemorySink:
    """A sink for a program :class:`repro.obs.Recorder` that keeps its
    event records (spans, per-component solves) in memory."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def write(self, record) -> None:
        self.events.append(dict(record))

    def close(self) -> None:
        pass


def memory_recorder():
    """A live program recorder plus the in-memory sink it writes to."""
    sink = MemorySink()
    return obs.Recorder(sink=sink), sink


class GcWatch:
    """Cyclic-GC pauses and collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> "GcWatch":
        import gc

        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        import gc

        gc.callbacks.remove(self)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(samples: Sequence[float]):
    """The highest percentile with at least ten samples beyond it, as
    ``(label, value)`` — e.g. ``("p99.0", 0.012)`` — or ``(None, None)``
    when there are too few samples to have one."""
    n = len(samples)
    if n < 11:
        return None, None
    ordered = sorted(samples)
    return f"p{100.0 * (n - 10) / n:.1f}", ordered[n - 11]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else math.nan


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def become_subreaper() -> None:
    """Adopt orphaned grandchildren (a killed daemon's workers), so the
    benchmark can wait for every process it caused to start."""
    PR_SET_CHILD_SUBREAPER = 36
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def kill_group(proc) -> None:
    """SIGKILL a process started with ``start_new_session=True`` together
    with every process in its group, and wait until all have ended."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 30.0
    while True:
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if not _group_has_live_members(pgid):
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"process group {pgid} did not exit")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _group_has_live_members(pgid: int) -> bool:
    """Whether a non-zombie process is still in group *pgid* (a zombie
    whose parent is not this process cannot be reaped from here)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
