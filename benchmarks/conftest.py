"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file reproduces one experiment of DESIGN.md's
per-experiment index (E1–E15).  Benchmarks both *time* the operation via
pytest-benchmark and *assert* the paper's qualitative claim (who wins, by
roughly what factor, where the crossovers fall).  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the paper-style result tables each experiment prints.

``print_table`` (and the shared FD-set constants) live in
:mod:`repro.testing`; they are re-exported here so the benchmarks'
``from conftest import print_table`` keeps working under the benchmarks
rootdir.

Machine-readable results: benchmarks call :func:`record_bench` to append
median wall times per configuration into ``BENCH_<name>.json`` (written
to ``$BENCH_JSON_DIR``, default the working directory).  The CI
bench-smoke job uploads these files as artifacts, so the perf trajectory
of the repo is recorded run over run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

import pytest

from repro.testing import (  # noqa: F401 — re-exported for bench modules
    DELTA_A_IFF_B_TO_C,
    DELTA_SSN,
    EXAMPLE_38,
    print_table,
    random_small_table,
)

__all__ = [
    "DELTA_A_IFF_B_TO_C",
    "DELTA_SSN",
    "EXAMPLE_38",
    "print_table",
    "random_small_table",
    "measure_median",
    "measure_best",
    "bench_environment",
    "record_bench",
]


def bench_environment() -> Dict[str, object]:
    """The environment fingerprint stamped into every ``BENCH_*.json``.

    The CI regression gate compares fresh results against committed
    baselines; a comparison across different Python versions measures
    the environment, not the change under test.  Stamping the
    fingerprint lets the gate *skip* (rather than fail) cross-environment
    comparisons: python ``major.minor`` must match for the gate to
    judge, CPU count mismatches only warn (they move absolute times but
    rarely flip a within-run speedup).
    """
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "cpu_count": os.cpu_count(),
    }


#: Wall-clock origin for the currently running benchmark test; reset by
#: the autouse fixture below so :func:`record_bench` can stamp how many
#: seconds the *whole* bench (data generation, warm-ups, every arm)
#: cost — the number one needs to budget a CI bench-smoke job, which
#: none of the per-arm timings contain.
_TEST_START = time.perf_counter()


@pytest.fixture(autouse=True)
def _bench_wall_clock():
    global _TEST_START
    _TEST_START = time.perf_counter()
    yield


def measure_median(fn: Callable, repeats: int = 3) -> Tuple[object, float, list]:
    """Run *fn* *repeats* times; return (last result, median seconds,
    all wall times)."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times), times


def measure_best(
    fn: Callable, repeats: int = 5, warmup: int = 1
) -> Tuple[object, float, list]:
    """Run *fn* *warmup* untimed times then *repeats* timed times; return
    (last result, best seconds, all timed wall times).

    The measurement the CI speedup gates use: a 3-run *median* still
    moves ~60% between runs on a loaded CI box (two slow runs out of
    three shift it wholesale), while the *minimum* of five warm runs
    estimates the code's intrinsic cost — noise only ever adds time, so
    the fastest observation is the most repeatable one.  Gates compare
    best-vs-best of their two arms.
    """
    result = None
    for _ in range(warmup):
        result = fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, min(times), times


def record_bench(
    json_name: str,
    config: str,
    median_s: float,
    runs_s: Optional[Sequence[float]] = None,
    **extra,
) -> None:
    """Merge one configuration's result into ``BENCH_<name>.json``.

    Read-modify-write so every test contributes to one file per suite;
    keys are configuration names, values hold ``median_s`` — the
    suite's headline seconds for that configuration (historically a
    median, best-of-5 for the gated benches since the measure_best
    switch; the field name stays put so the CI perf trajectory remains
    one series) — plus ``wall_s``, the wall-clock seconds from the
    enclosing test's start to this record (data generation and warm-ups
    included), and whatever context the benchmark adds.  Every
    write refreshes the file's ``environment`` stamp
    (:func:`bench_environment`) so the regression gate can recognise —
    and skip — cross-environment comparisons.
    """
    path = os.path.join(os.environ.get("BENCH_JSON_DIR", "."), json_name)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        data = {}
    data["environment"] = bench_environment()
    results = data.setdefault("results", {})
    entry = {
        "median_s": round(median_s, 6),
        "wall_s": round(time.perf_counter() - _TEST_START, 3),
    }
    if runs_s is not None:
        entry["runs_s"] = [round(t, 6) for t in runs_s]
    entry.update(extra)
    results[config] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
