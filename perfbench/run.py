"""The repo benchmark: one command, four workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-300k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` is a separate run that records spans around the program's
public entry points and reports the per-layer metrics.  Every run checks
the program's outputs; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the reasoning.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: The end-to-end metrics every run prints, by name with unit; the ones
#: ``BENCHMARK.json`` lists also go into the JSON result.
REPORTED = (
    "setup_s", "clean_s_p50", "clean_s_tail", "ops_per_s",
    "write_p50_ms", "write_tail_ms", "repair_p50_ms", "repair_tail_ms",
    "read_p50_ms", "read_tail_ms", "recovery_s", "peak_rss_mb",
    "ratio_bound_max", "failed_share",
)

#: Per-layer figures printed with a traced run but not part of its JSON.
INFO_LAYERS = {"traced_calls", "server.joined_ops", "server.join_mismatches"}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")

    # The program under test comes from the checkout's src/; without it
    # there is nothing to measure, and the run fails before any result.
    src = os.path.join(ROOT, "src")
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: repro was imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import batch
    import common
    import daemon

    common.become_subreaper()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace = bool(args.trace)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: python {platform.python_version()} "
          f"({platform.python_implementation()}), nproc {os.cpu_count()}, "
          f"{platform.system()} {platform.machine()}")
    if args.workload in batch.WORKLOADS:
        result = batch.run(args.workload, args.seed, args.seconds, trace)
    else:
        print(f"daemon: flush policy fsync every "
              f"{common.JOURNAL_FSYNC_EVERY} journal records, snapshot "
              f"every {common.SNAPSHOT_EVERY}; closed loop over "
              f"{daemon.CONNECTIONS} connections from one process")
        result = daemon.run(ROOT, out_dir, args.workload, args.seed,
                            args.seconds, trace)
    sys.stdout.flush()

    checks = result["checks"]
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'MISMATCH'}")
    correct = all(checks.values())

    metrics = {}
    report = result["report"]
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if not trace:
        print("end-to-end ([gated] ones carry a bound in BENCHMARK.json):")
        for name in REPORTED:
            value, unit, note = report.get(
                name, (None, "", "not applicable to this workload")
            )
            if name in gated:
                if unit != gated[name]:
                    raise RuntimeError(f"{name} measured in {unit}, "
                                       f"BENCHMARK.json says {gated[name]}")
                metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {_fmt(value)} {unit}"
                  + (" [gated]" if name in gated else "")
                  + (f"  ({note})" if note else ""))
    else:
        layers = result["layers"]
        known = {m["name"] for m in spec["per_layer"]}
        unknown = set(layers) - known - INFO_LAYERS
        if unknown:
            raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: "
                               f"{sorted(unknown)}")
        print("per-layer (0 where the workload leaves the layer idle):")
        for m in spec["per_layer"]:
            value = layers.get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']} = {_fmt(value)} {m['unit']}")
        for name in sorted(INFO_LAYERS & set(layers)):
            print(f"  {name} = {_fmt(layers[name])}")
        if layers.get("pipeline.wall_s"):
            parts = sum(layers.get(f"pipeline.{p}_s", 0.0) for p in (
                "index", "decompose", "plan", "solve", "merge",
                "unattributed",
            ))
            print(f"pipeline: phase self times + unattributed = "
                  f"{parts:.6f} s, traced repair wall = "
                  f"{layers['pipeline.wall_s']:.6f} s")
        tracer = result["tracer"]
        spans_path = os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl"
        )
        tracer.write(spans_path)
        print(f"self time by span ({len(tracer.spans)} spans, "
              f"written to {os.path.relpath(spans_path, ROOT)}):")
        for name, secs in sorted(tracer.self_times().items(),
                                 key=lambda kv: -kv[1]):
            print(f"  {name}: {secs:.4f} s")

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
