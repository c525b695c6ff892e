"""The stdio JSONL transport of the supervised executor: shard hosts.

:class:`~repro.exec.SupervisedExecutor` runs on two transports.  The
multiprocessing one (:class:`~repro.exec.PersistentWorkerPool`) forks
workers from the caller; this module is the other — **shard hosts**:
spawned ``python -m repro.shard`` subprocesses that speak the
:mod:`repro.protocol` JSONL envelope over their stdio pipes, the same
framing a real deployment would put behind TCP shard endpoints.  Running
them here as local children means the whole RPC failure matrix — lost
requests, lost replies, stalls, crashes — exists and is deterministically
injectable today, without a network.

A shard host runs :func:`repro.exec.worker_loop`, the one worker loop;
this module only frames messages (pickled blobs inside the envelope, so
row values and results cross byte-identically) and fires the shard fault
sites.  Dispatch and supervision are the executor's: a pull queue, RPC
deadlines with capped-backoff resends (``rpc_timeout_s``,
``rpc_retries``), heartbeat pings that fail a silent shard over, respawn
with the parent-side mirror replayed, degradation to approx after the
retry budget, and local execution once every shard is abandoned.  FD
conflict components are independent and every solver is a pure function
of its component's rows, so none of this can change an answer; the
chaos suite (``tests/test_shards.py``) pins byte-identity with serial.

Fault sites (see :mod:`repro.faults`): ``shard.rpc.send`` (parent,
before a line is written — ``drop``/``delay``), ``shard.rpc.recv``
(shard, after decoding a request — ``drop``/``delay``/``raise``/
``kill``), ``shard.heartbeat`` (shard, on a ping — ``drop`` swallows
the pong), ``shard.kill`` (shard, per message — the dedicated crash site
chaos schedules use), plus ``worker.solve`` inside the worker loop.
"""

from __future__ import annotations

import base64
import os
import pickle
import subprocess
import sys
import threading
from time import monotonic as _monotonic
from typing import Optional, Sequence

from . import faults as _faults
from .core.decompose import DEFAULT_NODE_LIMIT
from .exec import SupervisedExecutor, worker_loop
from .protocol import decode_line, encode

__all__ = [
    "ShardHost",
    "ShardedExecutor",
    "main",
]


def _pack(obj) -> str:
    """Pickle *obj* into a JSON-safe ASCII blob: the envelope carries
    op/seq routing, payloads ride pickled so shard results are
    *byte*-identical to serial ones."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _unpack(blob: str):
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


# ---------------------------------------------------------------------------
# Shard host process (child side)
# ---------------------------------------------------------------------------


def _requests(stdin, reply, pong, plan, index: int, generation: int):
    """Decode request lines into worker-loop messages, firing the shard
    fault sites and answering heartbeat pings on the way."""
    msg_count = 0
    ping_count = 0
    for line in stdin:
        if not line.strip():
            continue
        try:
            msg = decode_line(line)
        except ValueError:
            continue  # torn line (parent died mid-write): skip
        op = msg.get("op")
        seq = msg.get("seq")
        msg_count += 1
        plan.fire("shard.kill", shard=index, generation=generation,
                  msg=msg_count, op=op)
        try:
            verdict = plan.fire("shard.rpc.recv", shard=index,
                                generation=generation, op=op,
                                msg=msg_count, seq=seq)
        except _faults.FaultInjected as exc:
            if seq is not None:
                reply((seq, None, 0.0, "solve", repr(exc)))
            continue
        if verdict == "drop":
            continue  # swallowed request: the parent's deadline recovers
        if op == "ping":
            ping_count += 1
            if plan.fire("shard.heartbeat", shard=index,
                         generation=generation, n=ping_count) != "drop":
                pong()
            continue
        try:
            message = _unpack(msg["blob"])
        except Exception as exc:
            if seq is not None:
                reply((seq, None, 0.0, "state", repr(exc)))
            continue
        yield message


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.shard`` — run one shard host over stdio until
    ``stop`` or EOF."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.shard")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--generation", type=int, default=0)
    parser.add_argument("--faults", default=None,
                        help="JSON FaultPlan spec (chaos testing)")
    args = parser.parse_args(argv)
    plan = _faults.FaultPlan.from_spec(args.faults)
    out = sys.stdout

    def write(obj) -> None:
        out.write(encode(obj))
        out.flush()

    def reply(result) -> None:
        write({"seq": result[0], "blob": _pack(result)})

    write({"ready": True, "shard": args.index,
           "generation": args.generation})
    worker_loop(
        _requests(sys.stdin, reply, lambda: write({"pong": True}), plan,
                  args.index, args.generation),
        reply, args.index, args.generation, plan,
    )
    return 0


# ---------------------------------------------------------------------------
# Parent side: one handle per shard subprocess, and the transport
# ---------------------------------------------------------------------------


class ShardHost:
    """Parent handle of one shard subprocess: the write pipe, a reader
    thread feeding decoded results to *on_reply*, and the time of the
    shard's last traffic (heartbeat liveness)."""

    def __init__(self, slot: int, generation: int, *,
                 faults=_faults.NULL_PLAN, on_reply=None):
        self.slot = slot
        self.generation = generation
        self._faults = faults
        cmd = [sys.executable, "-u", "-m", "repro.shard",
               "--index", str(slot), "--generation", str(generation)]
        fault_spec = faults.to_spec()
        if fault_spec:
            import json as _json

            cmd += ["--faults", _json.dumps(fault_spec)]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        # The child must not re-resolve the ambient chaos plan: the
        # executor decides what each incarnation sees via --faults.
        env.pop(_faults.FAULTS_ENV, None)
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env,
        )
        self._write_lock = threading.Lock()
        self.last_activity = _monotonic()
        self.ready = threading.Event()
        self._on_reply = on_reply
        self._reader = threading.Thread(
            target=self._read_loop, name=f"fdrepair-shard-{slot}-reader",
            daemon=True,
        )
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            for line in self.proc.stdout:
                try:
                    msg = decode_line(line)
                except ValueError:
                    continue
                self.last_activity = _monotonic()
                if msg.get("ready"):
                    self.ready.set()
                elif "blob" in msg and self._on_reply is not None:
                    try:
                        result = _unpack(msg["blob"])
                    except Exception as exc:
                        result = (msg.get("seq"), None, 0.0, "solve",
                                  f"undecodable shard reply: {exc!r}")
                    self._on_reply(result)
        except (OSError, ValueError):
            pass  # pipe torn down: the monitor reaps via poll()

    def wait_ready(self, timeout: float) -> bool:
        return self.ready.wait(timeout)

    def send(self, encoded) -> bool:
        """Write one encoded request; False when the pipe is gone."""
        op, seq, line = encoded
        if self._faults.fire("shard.rpc.send", shard=self.slot,
                             generation=self.generation, op=op,
                             seq=seq) == "drop":
            return True  # lost request: deadline or replay recovers it
        with self._write_lock:
            try:
                self.proc.stdin.write(line)
                self.proc.stdin.flush()
            except (OSError, ValueError):
                return False
        return True

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        self.send(_StdioTransport.encode(("stop",)))

    def close(self, timeout: float) -> None:
        """Wait up to *timeout* for the shard to exit, then kill it."""
        try:
            self.proc.wait(timeout=timeout)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            try:
                self.proc.kill()
                self.proc.wait(timeout=2.0)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                pass
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                if stream is not None:
                    stream.close()
            except (OSError, ValueError):
                pass


class _StdioTransport:
    """Shard host subprocesses behind JSONL stdio pipes."""

    def __init__(self):
        self._on_reply = None

    def open(self, on_reply) -> None:
        self._on_reply = on_reply

    def spawn(self, slot, generation, faults, replay) -> ShardHost:
        host = ShardHost(slot, generation, faults=faults,
                         on_reply=self._on_reply)
        for message in replay:
            if not host.send(self.encode(message)):
                host.close(0.0)
                raise OSError(f"shard {slot} refused its mirror replay")
        return host

    @staticmethod
    def encode(message):
        """``(op, seq, line)``: one JSONL line per message, encoded once
        per broadcast however many shards receive it."""
        op = message[0]
        if op == "ping":
            return op, None, encode({"op": op})
        seq = message[1] if op == "solve" else None
        envelope = {"op": op, "blob": _pack(message)}
        if seq is not None:
            envelope["seq"] = seq
        return op, seq, encode(envelope)

    def close(self) -> None:
        pass


class ShardedExecutor(SupervisedExecutor):
    """The supervised executor on the stdio shard-host transport.

    A drop-in peer of :class:`~repro.exec.PersistentWorkerPool` — the
    same namespace seam, so a :class:`~repro.session.RepairSession`, the
    daemon's shared-executor slot, and
    :func:`repro.exec.solve_components` take either.  *rpc_timeout_s*
    is the per-solve deadline and *rpc_retries* the resends before a
    shard is presumed wedged and failed over; heartbeat pings every
    *heartbeat_interval_s* fail a shard silent for *heartbeat_miss_s*.
    """

    executor_kind = "shards"
    noun = "shard"

    def __init__(self, shards: int, schema=None, fds=None,
                 node_limit: int = DEFAULT_NODE_LIMIT, *,
                 rpc_timeout_s: float = 30.0,
                 rpc_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 retry_backoff_cap_s: float = 2.0,
                 heartbeat_interval_s: float = 0.5,
                 heartbeat_miss_s: float = 10.0,
                 max_respawns: int = 8,
                 respawn_backoff_s: float = 0.05,
                 respawn_backoff_cap_s: float = 2.0,
                 spawn_timeout_s: float = 20.0,
                 faults=None,
                 recorder=None):
        heartbeat_s = max(0.05, float(heartbeat_interval_s))
        super().__init__(
            _StdioTransport(), shards, schema, fds, node_limit,
            deadline_s=max(0.05, float(rpc_timeout_s)),
            resends=rpc_retries, resend_backoff_s=retry_backoff_s,
            resend_backoff_cap_s=retry_backoff_cap_s,
            max_respawns=max_respawns, respawn_backoff_s=respawn_backoff_s,
            respawn_backoff_cap_s=respawn_backoff_cap_s,
            heartbeat_s=heartbeat_s,
            heartbeat_miss_s=max(2 * heartbeat_s, float(heartbeat_miss_s)),
            spawn_timeout_s=max(0.5, float(spawn_timeout_s)),
            faults=faults, recorder=recorder,
        )

    @property
    def shard_count(self) -> int:
        return self.worker_count

    live_shards = SupervisedExecutor.live_slots


if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    sys.exit(main())
