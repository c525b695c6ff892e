"""Daemon workloads: ``fdrepair serve`` driven over TCP by a closed loop.

``daemon-resident``
    ``serve --parallel 2``: all twelve tenants stay resident.
``daemon-evicting``
    ``serve --parallel 2 --shards 2 --max-resident 6``: half the tenants
    are frozen at any time, and solves go through the shard RPC layer.

One run: start the daemon and seed every tenant (set-up, repeated and
the median kept), drive the op mix for the run's seconds from one
process over two connections, check every tenant's repair against a
``clean`` of the generator's own model, SIGKILL the daemon, and time
its recovery from the state directory.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from repro import FDSet, Table, clean
from repro.state import JOURNAL_NAME, SNAPSHOT_NAME

from common import (
    JOURNAL_FSYNC_EVERY,
    SNAPSHOT_EVERY,
    Tracer,
    kill_group,
    median,
    tail,
    vm_hwm_mb,
)

SCHEMA = ["A", "B", "C"]
FDS = "A -> B; B -> C"
TENANTS = 12
CLUSTERS = 100
CLUSTER_SIZE = 12
FILLER_ROWS = 2300
FILLER_GROUP = 40
CONNECTIONS = 2
#: Tenant popularity: tenant r is picked in proportion to 1/(r+1),
#: rounded to a deck of TENANT_DECK picks.
TENANT_DECK = 62
#: Op mix: 40% append, 10% delete, 20% repair, 30% status, as a deck.
OP_DECK = ("append",) * 4 + ("delete",) + ("repair",) * 2 + ("status",) * 3
CLASS = {"append": "write", "delete": "write", "repair": "repair",
         "status": "read"}
SETUP_REPEATS = 3
REPLY_TIMEOUT_S = 30.0
RECOVERY_REPEATS = 3

WORKLOADS = {
    "daemon-resident": ["--parallel", "2"],
    "daemon-evicting": ["--parallel", "2", "--shards", "2",
                        "--max-resident", "6"],
}


def tenant_name(t: int) -> str:
    return f"t{t:02d}"


def seed_rows(seed: int, t: int):
    """One tenant's seed: conflict clusters plus consistent filler,
    shuffled, with ids 0..n-1."""
    rng = random.Random(seed * 1000 + t)
    p = tenant_name(t)
    rows = [
        [f"{p}a{i}", f"{p}b{i}.{j % 3}", f"{p}x{i}"]
        for i in range(CLUSTERS) for j in range(CLUSTER_SIZE)
    ]
    rows += [
        [f"{p}f{n // FILLER_GROUP}", f"{p}g{n // FILLER_GROUP}",
         f"{p}y{n // FILLER_GROUP}"]
        for n in range(FILLER_ROWS)
    ]
    rng.shuffle(rows)
    return rows


class Client:
    """One TCP connection speaking the daemon's JSONL protocol, one
    request in flight at a time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._connect()

    def _connect(self) -> None:
        # A request with no reply within the timeout is a failed op.
        self.sock = socket.create_connection(("127.0.0.1", self.port),
                                             timeout=REPLY_TIMEOUT_S)
        self.file = self.sock.makefile("rwb")

    def reconnect(self) -> None:
        self.close()
        self._connect()

    def call(self, request: dict):
        """Send one request; the decoded reply, or ``None`` when the
        daemon closed the connection without replying."""
        line = json.dumps(request, separators=(",", ":")).encode() + b"\n"
        try:
            self.file.write(line)
            self.file.flush()
            reply = self.file.readline()
        except OSError:
            return None
        return json.loads(reply) if reply else None

    def close(self) -> None:
        for closer in (self.file.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class Daemon:
    """One ``fdrepair serve`` process (and its workers or shards) in its
    own process group."""

    def __init__(self, root: str, workload: str, state_dir: str,
                 log_path: str, trace_path: Optional[str] = None) -> None:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--state-dir", state_dir,
            "--journal-fsync", str(JOURNAL_FSYNC_EVERY),
            "--snapshot-every", str(SNAPSHOT_EVERY),
            *WORKLOADS[workload],
        ]
        if trace_path:
            cmd += ["--trace", trace_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.port = self._read_banner()

    def _read_banner(self) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=120):
                self.kill()
                raise RuntimeError("daemon printed no listening banner")
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            self.kill()
            raise RuntimeError(f"unexpected daemon banner {line!r}")
        return int(line.rsplit(":", 1)[1])

    def kill(self) -> None:
        kill_group(self.proc)
        self.proc.stdout.close()
        self._log.close()


class Counts:
    """Ops one client attempted and saw fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Acknowledged lines per tenant (the daemon's op records for
        #: them precede the load's in its trace).
        self.acked: Dict[str, int] = {}


def seed_tenants(port: int, seed: int, counts: Counts) -> None:
    """Open every tenant with its whole seed in one ``open`` line, each
    tenant on its own new connection, as separate clients would.  A line
    the daemon drops without a reply is a failed op; the rows are then
    resent in halves on a new connection until every line is
    acknowledged."""
    for t in range(TENANTS):
        name = tenant_name(t)
        rows = seed_rows(seed, t)
        pending = [(0, len(rows))]
        opened = False
        client = Client(port)
        try:
            while pending:
                lo, hi = pending.pop()
                request = {"tenant": name, "session": "main",
                           "seq": counts.attempted,
                           "rows": rows[lo:hi], "ids": list(range(lo, hi))}
                if opened:
                    request.update(op="append", repair=False)
                else:
                    request.update(op="open", schema=SCHEMA, fds=FDS)
                counts.attempted += 1
                reply = client.call(request)
                if reply is not None and reply.get("ok"):
                    opened = True
                    counts.acked[name] = counts.acked.get(name, 0) + 1
                    continue
                counts.failed += 1
                if reply is None:
                    client.reconnect()
                if hi - lo < 2:
                    raise RuntimeError(
                        f"daemon refused a one-row seed line: {reply}"
                    )
                mid = (lo + hi) // 2
                pending += [(mid, hi), (lo, mid)]
        finally:
            client.close()


def set_up(root: str, workload: str, seed: int, state_dir: str,
           log_path: str, trace_path: Optional[str] = None):
    """Spawn a daemon on a fresh state dir and seed every tenant;
    returns the daemon, the set-up seconds and the op counts."""
    shutil.rmtree(state_dir, ignore_errors=True)
    os.makedirs(state_dir)
    counts = Counts()
    daemon = Daemon(root, workload, state_dir, log_path, trace_path)
    try:
        seed_tenants(daemon.port, seed, counts)
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - daemon.started, counts


class Deck:
    """Draws without replacement from a reshuffled deck, so every stretch
    of a run carries the intended mix (not just its expectation)."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng = rng
        self.items = list(items)
        self.left: List = []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class Generator:
    """One closed-loop client thread.  Thread *k* owns the seed ids of
    parity *k* and the ids it appends, so the two threads' writes to a
    tenant commute and each thread's model of its own rows is exact."""

    def __init__(self, port: int, seed: int, k: int) -> None:
        self.rng = random.Random(seed * 1000 + 100 + k)
        self.k = k
        self.client = Client(port)
        self.deadline = 0.0
        self.next_id = (k + 1) * 10_000_000
        self.owned: List[Dict[int, list]] = []
        self.live: List[List[int]] = []
        for t in range(TENANTS):
            rows = seed_rows(seed, t)
            mine = {i: rows[i] for i in range(k, len(rows), CONNECTIONS)}
            self.owned.append(mine)
            self.live.append(list(mine))
        harmonic = sum(1.0 / (r + 1) for r in range(TENANTS))
        self.tenants = Deck(self.rng, [
            t for t in range(TENANTS)
            for _ in range(round(TENANT_DECK / (t + 1) / harmonic))
        ])
        self.op_deck = Deck(self.rng, OP_DECK)
        self.samples: Dict[str, List[float]] = {"write": [], "repair": [],
                                                "read": []}
        self.ops: List[tuple] = []
        self.ratio_bound_max = 1.0
        self.counts = Counts()
        self.end = 0.0
        self.error: Optional[BaseException] = None

    def _append_request(self, t: int) -> tuple:
        p = tenant_name(t)
        rows, ids = [], []
        for _ in range(self.rng.randint(1, 6)):
            if self.rng.random() < 0.5:
                i = self.rng.randrange(CLUSTERS)
                rows.append([f"{p}a{i}", f"{p}b{i}.{self.rng.randrange(3)}",
                             f"{p}x{i}"])
            else:
                g = self.rng.randrange(FILLER_ROWS // FILLER_GROUP)
                rows.append([f"{p}f{g}", f"{p}g{g}", f"{p}y{g}"])
            ids.append(self.next_id)
            self.next_id += 1
        return {"op": "append", "rows": rows, "ids": ids,
                "repair": False}, (rows, ids)

    def _delete_request(self, t: int) -> tuple:
        live = self.live[t]
        ids = []
        for _ in range(min(self.rng.randint(1, 3), len(live))):
            j = self.rng.randrange(len(live))
            live[j], live[-1] = live[-1], live[j]
            ids.append(live.pop())
        return {"op": "delete", "ids": ids}, ids

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # reported by the caller
            self.error = exc
        finally:
            self.client.close()

    def _loop(self) -> None:
        seq = 0
        while time.perf_counter() < self.deadline:
            t = self.tenants.draw()
            op = self.op_deck.draw()
            if op == "append":
                request, delta = self._append_request(t)
            elif op == "delete" and self.live[t]:
                request, delta = self._delete_request(t)
            else:
                if op == "delete":
                    op = "status"
                request = {"op": op}
            seq += 1
            request.update(tenant=tenant_name(t), session="main",
                           seq=f"{self.k}.{seq}")
            self.counts.attempted += 1
            start = time.perf_counter()
            reply = self.client.call(request)
            end = time.perf_counter()
            ok = reply is not None and reply.get("ok") is True
            if not ok:
                self.counts.failed += 1
                if reply is None:
                    self.client.reconnect()
                continue
            self.samples[CLASS[op]].append(end - start)
            self.ops.append((tenant_name(t), request["seq"], op, start, end))
            if op == "append":
                rows, ids = delta
                for tid, row in zip(ids, rows):
                    self.owned[t][tid] = row
                    self.live[t].append(tid)
            elif op == "delete":
                for tid in delta:
                    del self.owned[t][tid]
            elif op == "repair":
                self.ratio_bound_max = max(self.ratio_bound_max,
                                           reply["ratio_bound"])
        self.end = time.perf_counter()


def load(port: int, seed: int, seconds: float):
    gens = [Generator(port, seed, k) for k in range(CONNECTIONS)]
    threads = [threading.Thread(target=g.run) for g in gens]
    start = time.perf_counter()
    for g in gens:
        g.deadline = start + seconds
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for g in gens:
        if g.error is not None:
            raise g.error
    wall = max(g.end for g in gens) - start
    return gens, wall


def _call_ok(client: Client, request: dict) -> dict:
    reply = client.call(request)
    if reply is None or not reply.get("ok"):
        raise RuntimeError(f"{request['op']} failed: {reply}")
    return reply


def _status_all(client: Client) -> Dict[str, dict]:
    out = {}
    for t in range(TENANTS):
        out[tenant_name(t)] = _call_ok(
            client, {"op": "status", "tenant": tenant_name(t),
                     "session": "main"}
        )
    return out


def recover(root: str, workload: str, state_dir: str, log_path: str):
    """Restart on *state_dir*; seconds from spawn until a ``stats``
    reply shows every tenant session recovered."""
    daemon = Daemon(root, workload, state_dir, log_path)
    try:
        client = Client(daemon.port)
        while True:
            stats = _call_ok(client, {"op": "stats"})
            if stats["recovered_sessions"] >= TENANTS:
                break
            time.sleep(0.001)
        secs = time.perf_counter() - daemon.started
    except BaseException:
        daemon.kill()
        raise
    return daemon, client, secs, stats


def run(root: str, out_dir: str, name: str, seed: int, seconds: float,
        trace: bool) -> dict:
    fds = FDSet(FDS)
    state_root = os.path.join(out_dir, f"{name}-state")
    log_path = os.path.join(out_dir, f"{name}-daemon.log")
    shutil.rmtree(state_root, ignore_errors=True)
    os.makedirs(state_root)
    state_dir = os.path.join(state_root, "live")
    try:
        if trace:
            return _traced(root, out_dir, name, seed, seconds, state_dir,
                           log_path, fds)
        return _measured(root, name, seed, seconds, state_dir, log_path,
                         fds)
    finally:
        shutil.rmtree(state_root, ignore_errors=True)


def _measured(root, name, seed, seconds, state_dir, log_path, fds,
              trace_path=None, setups=SETUP_REPEATS,
              recoveries=RECOVERY_REPEATS) -> dict:
    setup_times = []
    for i in range(setups):
        daemon, secs, seed_counts = set_up(
            root, name, seed, state_dir, log_path,
            trace_path if i == setups - 1 else None,
        )
        setup_times.append(secs)
        if i < setups - 1:
            daemon.kill()
    checks = {}
    try:
        gens, wall = load(daemon.port, seed, seconds)
        client = Client(daemon.port)
        stats = _call_ok(client, {"op": "stats"})
        # Each tenant's repair against a clean of the generator's model.
        ratio_bound_max = max(g.ratio_bound_max for g in gens)
        model_ok = True
        for t in range(TENANTS):
            rows = {}
            for g in gens:
                rows.update(g.owned[t])
            reply = _call_ok(client, {"op": "repair",
                                      "tenant": tenant_name(t),
                                      "session": "main"})
            ratio_bound_max = max(ratio_bound_max, reply["ratio_bound"])
            model = Table(tuple(SCHEMA),
                          {tid: tuple(r) for tid, r in rows.items()})
            expected = clean(model, fds)
            if (reply["distance"] != expected.distance
                    or reply["tuples"] != len(rows)):
                model_ok = False
        checks["repair_equals_clean_of_model"] = model_ok
        before = _status_all(client)
        client.close()
        peak_rss = vm_hwm_mb(daemon.proc.pid)
    finally:
        daemon.kill()
    snapshot_bytes = _size(os.path.join(state_dir, SNAPSHOT_NAME))
    journal_ratio = _journal_bytes_per_request_byte(
        os.path.join(state_dir, JOURNAL_NAME)
    )

    # Recovery: restart on copies of the killed daemon's state dir.
    copies = []
    for j in range(recoveries):
        copy = f"{state_dir}.r{j}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(state_dir, copy)
        copies.append(copy)
    recovery_times, recovered = [], {}
    for j, copy in enumerate(copies):
        daemon, client, secs, recovered = recover(root, name, copy, log_path)
        recovery_times.append(secs)
        try:
            if j == recoveries - 1:
                checks["status_after_recovery_equals_before"] = (
                    _status_all(client) == before
                )
        finally:
            client.close()
            daemon.kill()

    attempted = sum(g.counts.attempted for g in gens)
    failed = sum(g.counts.failed for g in gens)
    checks["no_load_op_failed"] = failed == 0
    samples = {c: sum((g.samples[c] for g in gens), [])
               for c in ("write", "repair", "read")}
    completed = sum(len(s) for s in samples.values())
    all_attempted = attempted + seed_counts.attempted
    all_failed = failed + seed_counts.failed
    report = {
        "setup_s": (median(setup_times), "s",
                    f"median of {setups} daemon starts, each until every "
                    f"tenant is seeded"),
        "ops_per_s": (completed / wall, "1/s",
                      f"{completed} ops in {wall:.2f} s, closed loop, "
                      f"{CONNECTIONS} connections"),
    }
    for cls in ("write", "repair", "read"):
        label, value = tail(samples[cls])
        report[f"{cls}_p50_ms"] = (median(samples[cls]) * 1e3, "ms",
                                   f"{len(samples[cls])} ops")
        report[f"{cls}_tail_ms"] = (
            value * 1e3 if value is not None else None, "ms",
            f"{label} of {len(samples[cls])} ops",
        )
    if recoveries:
        report["recovery_s"] = (median(recovery_times), "s",
                                f"median of {recoveries} restarts")
    report["peak_rss_mb"] = (
        peak_rss, "MB", "daemon VmHWM; worker and shard children excluded"
    )
    report["ratio_bound_max"] = (ratio_bound_max, "ratio",
                                 f"{len(samples['repair']) + TENANTS} repairs")
    report["failed_share"] = (
        all_failed / all_attempted, "share",
        f"{all_failed} of {all_attempted} ops, "
        f"{seed_counts.failed} of them over-limit seed lines",
    )
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "report": report,
        # Raw material for the traced run's per-layer metrics.
        "raw": {
            "gens": gens, "stats": stats, "recovered": recovered,
            "snapshot_bytes": snapshot_bytes, "journal_ratio": journal_ratio,
            "seed_counts": seed_counts,
            "load_ops": completed,
        },
    }


def _journal_bytes_per_request_byte(path: str) -> float:
    """Bytes of the live journal segment over the bytes of the request
    lines its records came from, as the client encoded them."""
    journal = request = 0
    with open(path, "rb") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn final line of the killed daemon
            journal += len(line)
            sent = {"op": record["op"], "tenant": record["tenant"],
                    "session": record["session"], "seq": "0.0000",
                    **record["payload"]}
            request += len(json.dumps(sent, separators=(",", ":"))) + 1
    return journal / request if request else 0.0


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _traced(root, out_dir, name, seed, seconds, state_dir, log_path,
            fds) -> dict:
    """Per-layer run: an untraced reference load, then the same load
    with the daemon's ``--trace`` on and the client's ops as spans; each
    gets half the run's seconds, so a traced run takes as long as an
    untraced one."""
    seconds /= 2
    reference = _measured(root, name, seed, seconds, state_dir, log_path,
                          fds, setups=1, recoveries=0)
    trace_path = os.path.join(out_dir, f"{name}-daemon-trace.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    out = _measured(root, name, seed, seconds, state_dir, log_path, fds,
                    trace_path=trace_path, setups=1, recoveries=1)
    raw = out.pop("raw")
    reference.pop("raw")
    tracer = Tracer()
    layers = _server_layers(raw, trace_path, tracer)
    layers.update(_stats_layers(raw))
    if name == "daemon-evicting":
        layers["shard.spawn_s"] = _shard_spawn_s()
    layers["obs.trace_overhead"] = (
        reference["report"]["ops_per_s"][0] / out["report"]["ops_per_s"][0]
        - 1.0
    )
    out["layers"] = layers
    out["tracer"] = tracer
    out["checks"].update(
        {f"reference_{k}": v for k, v in reference["checks"].items()}
    )
    return out


def _server_layers(raw, trace_path: str, tracer: Tracer) -> dict:
    """Join each client op to the daemon's op record for it (per
    session, in order), and roll up the daemon's repair phase spans."""
    from repro import obs

    records = obs.read_trace(trace_path)
    by_tenant: Dict[str, List[dict]] = {}
    phases: Dict[str, float] = {}
    repair_spans = 0
    repair_s = 0.0
    busy, longest = 0.0, 0.0
    for rec in records:
        kind = rec.get("type")
        if kind == "op" and rec.get("tenant"):
            by_tenant.setdefault(rec["tenant"], []).append(rec)
        elif kind == "span" and rec.get("name") == "session.repair":
            repair_spans += 1
            repair_s += rec["dur_s"]
        elif (kind == "span" and rec.get("parent") == "session.repair"
              and str(rec.get("name", "")).startswith("phase.")):
            key = f"pipeline.{rec['name'][6:]}_s"
            phases[key] = phases.get(key, 0.0) + rec["dur_s"]
        elif kind == "solve":
            busy += rec.get("actual_s", 0.0)
            longest = max(longest, rec.get("actual_s", 0.0))

    client_ops: Dict[str, List[tuple]] = {}
    for g in raw["gens"]:
        for op in g.ops:
            client_ops.setdefault(op[0], []).append(op)
    acked = raw["seed_counts"].acked
    server_s: Dict[str, List[float]] = {"write": [], "repair": [],
                                        "read": []}
    transport: List[float] = []
    joined = mismatched = 0
    for tenant, ops in client_ops.items():
        # A session's ops run in arrival order, so order by send time.
        ops.sort(key=lambda op: op[3])
        server = by_tenant.get(tenant, [])[acked.get(tenant, 0):]
        for (_, seq, op, start, end), rec in zip(ops, server):
            if rec["op"] != op:
                mismatched += 1
                continue
            joined += 1
            trace_id = f"{tenant}/main/{seq}"
            client_span = tracer.add(f"client.{op}", start, end,
                                     trace=trace_id)
            # The daemon's op time, placed at the end of the client span
            # (the reply leaves the daemon just after it is timed).
            tracer.add(f"server.{op}", end - rec["dur_s"], end,
                       parent=client_span, trace=trace_id)
            server_s[CLASS[op]].append(rec["dur_s"])
            transport.append(end - start - rec["dur_s"])
    out = {f"server.{c}_p50_ms": median(v) * 1e3 if v else 0.0
           for c, v in server_s.items()}
    out["protocol.transport_p50_ms"] = (
        median(transport) * 1e3 if transport else 0.0
    )
    out["server.joined_ops"] = joined
    out["server.join_mismatches"] = mismatched
    if repair_spans:
        for key, total in phases.items():
            out[key] = total / repair_spans
        out["pipeline.wall_s"] = repair_s / repair_spans
        out["pipeline.unattributed_s"] = (
            repair_s - sum(phases.values())
        ) / repair_spans
        out["exec.solve_busy_s"] = busy / repair_spans
        solve_s = phases.get("pipeline.solve_s", 0.0)
        out["exec.parallel_efficiency"] = (
            busy / (2 * solve_s) if solve_s else 0.0
        )
    out["exec.longest_component_s"] = longest
    return out


def _stats_layers(raw) -> dict:
    stats = raw["stats"]
    ops = raw["load_ops"]
    journal = stats.get("journal", {})
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    supervision = stats.get("pool_supervision", {})
    shards = stats.get("pool_kind") == "shards"
    out = {
        "session.cache_hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "session.solves": misses,
        "session.evictions": stats["evictions"],
        "session.rehydrations_per_op": stats["rehydrations"] / ops,
        "server.errors": stats["errors"],
        "state.journal_appends": journal.get("appends", 0),
        "state.fsyncs": journal.get("fsyncs", 0),
        "state.snapshots": stats["snapshots"],
        "state.snapshot_bytes": raw["snapshot_bytes"],
        "state.journal_bytes_per_request_byte": raw["journal_ratio"],
        "state.replayed_ops": raw["recovered"].get("replayed_ops", 0),
    }
    if shards:
        out["shard.retries"] = supervision.get("retries", 0)
        out["shard.rerouted"] = supervision.get("rerouted", 0)
        out["shard.degraded_local"] = supervision.get("degraded_local", 0)
        out["shard.rpcs_per_op"] = supervision.get("rpcs", 0) / ops
    else:
        out["exec.worker_deaths"] = supervision.get("worker_deaths", 0)
        out["exec.retries"] = supervision.get("retries", 0)
        out["exec.degraded"] = supervision.get("degraded", 0)
    return out


def _shard_spawn_s() -> float:
    """Seconds for ``ShardedExecutor(2).start()``, median of two."""
    from repro.shard import ShardedExecutor

    times = []
    for _ in range(2):
        executor = ShardedExecutor(2)
        try:
            start = time.perf_counter()
            if not executor.start():
                raise RuntimeError("shard fleet failed to start")
            times.append(time.perf_counter() - start)
        finally:
            executor.close()
    return median(times)
