"""Batch workloads: ``pipeline.clean`` called directly in this process.

``batch-300k``
    Serial ``clean`` of a 300k-row clustered-conflict table.
``hard-parallel``
    ``clean(..., parallel=2)`` of six independent hard components.

Every timed ``clean`` starts from a table with no derived cache, so
each call pays the conflict-index build, as a ``fdrepair s-repair``
user does.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import time
import tracemalloc

from repro import ConflictIndex, FDSet, Table, clean, satisfies
from repro.datagen.synthetic import clustered_conflicts_table

from common import GcWatch, Tracer, median, memory_recorder, tail

SCHEMA = ("A", "B", "C")
FDS = "A -> B; B -> C"

PHASES = ("index", "decompose", "plan", "solve", "merge")


def build_300k(seed: int) -> Table:
    return clustered_conflicts_table(
        SCHEMA, 300_000, clusters=3000, cluster_size=12, seed=seed
    )


def build_hard(seed: int) -> Table:
    """Six independent components of 120 tuples each, shaped as in
    ``benchmarks/bench_shards.py``.  Component ``c`` draws its value
    pattern from ``Random(100 + c)``, so every seed solves the same six
    conflict graphs; the seed relabels the values, assigns the tuple ids
    and shuffles the row order.  Solve time varies several-fold between
    random 120-tuple components, so fixing the graphs is what lets runs
    with different seeds compare like with like."""
    rows = []
    for c in range(6):
        shape = random.Random(100 + c)
        for _ in range(120):
            rows.append((
                c, shape.randrange(4), shape.randrange(8), shape.randrange(3),
                1.0 + (len(rows) % 3),
            ))
    rng = random.Random(seed)
    rng.shuffle(rows)
    ids = rng.sample(range(1_000_000), len(rows))
    tag = f"s{seed}"
    return Table(
        SCHEMA,
        {tid: (f"{tag}a{c}.{a}", f"{tag}b{c}.{b}", f"{tag}x{c}.{x}")
         for tid, (c, a, b, x, _w) in zip(ids, rows)},
        {tid: row[4] for tid, row in zip(ids, rows)},
    )


WORKLOADS = {
    # name: (table builder, clean's parallel argument, builds per call)
    "batch-300k": (build_300k, None, 1),
    "hard-parallel": (build_hard, 2, 5),
}


def digest(table: Table) -> str:
    return hashlib.sha256(table.to_string().encode("utf-8")).hexdigest()


def _build(build, seed: int, repeats: int, setup_times: list) -> Table:
    """Build the input table *repeats* times, recording each build's
    seconds (``setup_s`` is their median over the run).  A new table
    carries no derived cache, so the ``clean`` that follows pays the
    conflict-index build, as a ``fdrepair s-repair`` user does."""
    table = None
    for _ in range(repeats):
        table = None  # release the previous copy before building anew
        start = time.perf_counter()
        table = build(seed)
        setup_times.append(time.perf_counter() - start)
    return table


def _drop_derived(table, fds) -> None:
    table.clear_derived_cache()
    if table.cached_conflict_index(fds) is not None:
        raise RuntimeError("derived cache survived clear_derived_cache")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    build, parallel, repeats = WORKLOADS[name]
    fds = FDSet(FDS)
    setup_times = []

    checks = {}
    if name == "hard-parallel":
        # The oracle: a serial clean, outside the timed region.
        serial = clean(_build(build, seed, repeats, setup_times), fds)
        expected = digest(serial.cleaned)
        checks["serial_satisfies"] = satisfies(serial.cleaned, fds)
        del serial

    untraced, traced = [], []
    layer = _LayerTotals()
    distances, ratio_bounds, mismatches = set(), [], 0
    table = last = None
    deadline = time.perf_counter() + seconds
    i = 0
    while (time.perf_counter() < deadline or not untraced
           or (trace and not traced)):
        # One input and one result alive at a time bounds peak memory;
        # collecting their cycles before the next build (untimed) starts
        # every call from the heap a fresh process would have.  Building
        # the input inside the loop spreads the set-up samples over the
        # whole run, as the timed calls are.
        table = last = None
        gc.collect()
        table = _build(build, seed, repeats, setup_times)
        # A traced run alternates untraced and traced calls, so the
        # tracing overhead is measured against the same conditions.
        if trace and i % 2 == 1:
            last, secs = layer.traced_clean(table, fds, parallel, i)
            traced.append(secs)
        else:
            start = time.perf_counter()
            last = clean(table, fds, parallel=parallel)
            secs = time.perf_counter() - start
            untraced.append(secs)
        i += 1
        distances.add(last.distance)
        ratio_bounds.append(last.ratio_bound)
        if name == "hard-parallel" and digest(last.cleaned) != expected:
            mismatches += 1
    wall = sum(untraced)

    if name == "hard-parallel":
        checks["parallel_equals_serial_digest"] = mismatches == 0
    else:
        checks["output_satisfies_fds"] = satisfies(last.cleaned, fds)
        checks["output_is_subset"] = last.cleaned.is_subset_of(table)
        checks["distance_equals_lower_bound"] = (
            last.distance == last.report.lower_bound
        )
        checks["distance_equals_deleted_weight"] = (
            table.dist_sub(last.cleaned) == last.distance
        )
    checks["same_distance_every_call"] = len(distances) == 1

    label, tail_s = tail(untraced)
    p50_s = median(untraced)
    calls = f"{len(untraced)} calls"
    out = {
        "checks": checks,
        "attempted": len(untraced) + len(traced),
        "failed": 0,
        "report": {
            "setup_s": (median(setup_times), "s",
                        f"median of {len(setup_times)} table builds"),
            "clean_s_p50": (p50_s, "s", calls),
            "clean_s_tail": (
                tail_s, "s",
                f"{label} of {calls}" if label
                else f"needs more than 10 calls, {calls}",
            ),
            "ops_per_s": (len(untraced) / wall, "1/s",
                          f"{calls} in {wall:.2f} s of clean"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB", "benchmark process; clean's worker processes excluded",
            ),
            "ratio_bound_max": (max(ratio_bounds), "ratio", calls),
            "failed_share": (0.0, "share", f"0 of {calls} failed"),
        },
    }
    if trace:
        layer.index_layer(table, fds)
        out["layers"] = layer.metrics(
            parallel or 1, median(traced) / p50_s - 1.0, last
        )
        out["tracer"] = layer.tracer
    return out


class _LayerTotals:
    """Per-layer figures of one run: sums over its traced ``clean`` calls
    plus the once-per-run index measurements and work counts."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.calls = 0
        self.sums = {}
        self.once = {}
        self.offset = time.time() - time.perf_counter()

    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def _span(self, event, parent, i) -> int:
        """Place a program ``Recorder`` span on the benchmark's clock."""
        end = event["ts"] - self.offset
        return self.tracer.add(event["name"], end - event["dur_s"], end,
                               parent=parent, trace=i)

    def traced_clean(self, table, fds, parallel, i):
        recorder, sink = memory_recorder()
        with GcWatch() as gc_watch:
            with self.tracer.span("bench.clean", trace=i) as root:
                start = time.perf_counter()
                result = clean(table, fds, parallel=parallel,
                               recorder=recorder)
                secs = time.perf_counter() - start
        self.calls += 1
        # Hang the program's phase spans under the benchmark's span.
        spans = [e for e in sink.events if e["type"] == "span"]
        clean_span = self._span(
            next(e for e in spans if e["name"] == "pipeline.clean"),
            root.id, i,
        )
        phases = {p: 0.0 for p in PHASES}
        for event in spans:
            phase = event["name"][len("phase."):]
            if event["name"].startswith("phase.") and phase in phases:
                phases[phase] += event["dur_s"]
                self._span(event, clean_span, i)
        for phase, dur in phases.items():
            self._add(f"pipeline.{phase}_s", dur)
        self._add("pipeline.wall_s", secs)
        self._add("pipeline.unattributed_s", secs - sum(phases.values()))
        self._add("runtime.gc_pause_s", gc_watch.pause_s)
        self._add("runtime.gc_collections", gc_watch.collections)
        solves = [e["actual_s"] for e in sink.events if e["type"] == "solve"]
        self._add("exec.solve_busy_s", sum(solves))
        self._add("exec.longest_component_s", max(solves, default=0.0))
        self.once["decompose.downgraded"] = sum(
            1 for e in sink.events
            if e["type"] == "solve" and e.get("downgraded")
        )
        return result, secs

    def index_layer(self, table, fds) -> None:
        """Time ``ConflictIndex`` and ``components()`` directly on a
        table with no derived cache, then take one allocation peak."""
        builds, comps = [], []
        for _ in range(2):
            _drop_derived(table, fds)
            start = time.perf_counter()
            index = ConflictIndex(table, fds)
            mid = time.perf_counter()
            index.components()
            comps.append(time.perf_counter() - mid)
            builds.append(mid - start)
            self.once["conflict_index.edges"] = index.num_edges
            self.once["conflict_index.conflicting_tuples"] = len(
                index.conflicting_tuples()
            )
            del index
        self.once["conflict_index.build_s"] = median(builds)
        self.once["conflict_index.components_s"] = median(comps)
        _drop_derived(table, fds)
        tracemalloc.start()
        try:
            ConflictIndex(table, fds).components()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.once["conflict_index.alloc_peak_mb"] = peak / 2**20

    def metrics(self, workers: int, overhead: float, result) -> dict:
        out = {k: v / self.calls for k, v in self.sums.items()}
        out.update(self.once)
        solve_s = out["pipeline.solve_s"]
        out["exec.parallel_efficiency"] = (
            out["exec.solve_busy_s"] / (workers * solve_s) if solve_s else 0.0
        )
        report = result.report
        out["decompose.components"] = report.component_count
        out["decompose.largest"] = report.largest_component
        out["decompose.exact_components"] = report.exact_components
        out["obs.trace_overhead"] = overhead
        out["traced_calls"] = self.calls
        return out
