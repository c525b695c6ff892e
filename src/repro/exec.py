"""Execution layer: run repair solvers over conflict components.

:mod:`repro.core.decompose` splits an instance into independent conflict
components; this module runs a solver over them — serially, or on one
supervised executor — and merges the results in deterministic table
order.  The two are deliberately separate layers: decomposition is pure
conflict math, execution is scheduling.

The supervised executor
-----------------------
:class:`SupervisedExecutor` is the one production executor.  It keeps a
fixed number of worker *slots*, each a long-lived process holding a
mirror of every attached session's rows, and it has two transports:

- **multiprocessing queues** (:class:`PersistentWorkerPool`, worker
  processes forked from the caller), and
- **the stdio JSONL shard host** (:class:`repro.shard.ShardedExecutor`,
  ``python -m repro.shard`` subprocesses speaking the
  :mod:`repro.protocol` envelope).

Both transports run the same worker message loop (:func:`worker_loop`)
and the same parent-side supervision; a transport only moves messages.
Dispatch is a **pull queue**: a slot receives its next solve only when
it has none outstanding, so a slow component never holds cheap ones
hostage behind it, and a dead slot's solve returns to the head of the
queue.  Supervision rules, written once: a solve past its deadline is
resent with capped exponential backoff, then its slot is failed over
(killed, respawned with backoff, the parent-side mirror replayed as one
``reset`` per namespace); a solve requeued more than ``max_retries``
times degrades to the approximation tier; once every slot is abandoned
the solves run in the calling thread against the mirror.

Determinism contract
--------------------
Serial and executor runs produce *identical* repairs: every solver is a
pure function of its component's rows, results are reassembled in task
order, merge order is canonical table order, and the fresh labelled
nulls a U-repair component may introduce are relabelled per component
(``⊥c<ordinal>.<k>`` in changed-cell order).  Where a task ran, and how
often, can therefore never change an answer.  A worker-side rebuild of
a component's :class:`~repro.core.conflict_index.ConflictIndex` is
equivalent to the parent's projected sub-index (pinned by the PR-1
index properties), so shipping plain rows across the process boundary
is safe.  Environments without working subprocess support degrade to
the serial path rather than failing.
"""

from __future__ import annotations

import os
import signal
import threading
from collections import deque
from itertools import chain
from itertools import count as _iter_count
from time import monotonic as _monotonic
from time import perf_counter as _perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import faults as _faults
from . import obs as _obs
from .core.decompose import (
    DEFAULT_NODE_LIMIT,
    ComponentPlan,
    Decomposition,
    decompose,
    resolve_plan_defaults,
)
from .core.fd import FDSet
from .core.table import FreshValue, Table, TupleId

__all__ = [
    "resolve_workers",
    "solve_components",
    "assemble_s_result",
    "decomposed_s_repair",
    "decomposed_u_repair",
    "worker_loop",
    "SupervisedExecutor",
    "PersistentWorkerPool",
    "DEFAULT_SESSION_KEY",
]

#: Display name and proven ratio bound per portfolio method.
S_METHOD_NAMES = {
    "dichotomy": "OptSRepair",
    "exact": "exact-vertex-cover",
    "approx": "bar-yehuda-even",
    "greedy": "greedy-degree",
}
S_METHOD_RATIOS = {
    "dichotomy": 1.0,
    "exact": 1.0,
    "approx": 2.0,
    "greedy": float("inf"),
}


def resolve_workers(parallel: Optional[int], task_count: int) -> int:
    """Effective worker count: 1 (serial) unless parallelism is requested
    *and* there is more than one task; never more workers than tasks.

    An explicit request for more workers than cores is honoured — the OS
    schedules the oversubscription, results are identical regardless, and
    capping silently at ``cpu_count`` would make ``--parallel`` a no-op
    on single-core containers.
    """
    if not parallel or parallel <= 1 or task_count <= 1:
        return 1
    return min(parallel, task_count)


# ---------------------------------------------------------------------------
# Worker side: one message loop for both transports
# ---------------------------------------------------------------------------

#: Namespace key a single-session executor (constructor schema/fds) binds to.
DEFAULT_SESSION_KEY = ""

#: Task method of a U-repair component solve; the task's budget slot
#: carries ``(ordinal, allow_exact_search, exact_budget)``.
U_TASK = "u-repair"


def _apply_mirror(space, kind: str, args) -> None:
    """Apply one maintenance op to a mirror space ``[schema, fds,
    node_limit, rows, weights]`` — the same code keeps the workers'
    mirrors and the parent's replay copy in step."""
    if kind == "reset":
        space[3] = dict(args[0])
        space[4] = dict(args[1])
    elif kind == "append":
        space[3].update(args[0])
        space[4].update(args[1])
    elif kind == "delete":
        for tid in args[0]:
            space[3].pop(tid, None)
            space[4].pop(tid, None)


def _subtable(space, ids) -> Table:
    """The component sub-table for *ids* (raises ``KeyError`` for an id
    the mirror lacks).  Mirror insertion order follows the owning
    session's (appends at the end, deletions in place), so the rebuilt
    sub-table equals the parent-side projection."""
    schema, _fds, _limit, rows, weights = space
    return Table(
        schema,
        {tid: rows[tid] for tid in ids},
        {tid: weights[tid] for tid in ids},
    )


def _run_task(table: Table, fds: FDSet, method: str, node_limit: int, budget):
    """Solve one task: an S-repair portfolio *method* returns ``(kept
    ids, effective method)``; :data:`U_TASK` returns one component's
    ``(cells, optimal, ratio_bound, method)``."""
    if method == U_TASK:
        ordinal, allow_exact_search, exact_budget = budget
        return _solve_u_component(
            ordinal, table, fds, allow_exact_search, exact_budget
        )
    kept, effective = _solve_s_kept(
        table, fds, method, node_limit, budget_s=budget
    )
    return tuple(kept), effective


def worker_loop(messages, reply, slot: int, generation: int,
                plan=_faults.NULL_PLAN) -> None:
    """The worker side of :class:`SupervisedExecutor`, shared by both
    transports.

    *messages* yields message tuples; *reply* ships one result tuple
    ``(seq, value, seconds, error_kind, error)``.  Each worker mirrors
    every attached namespace's rows and weights (``open``/``drop``/
    ``reset``/``append``/``delete``) and solves components shipped as
    **id lists only** — ``("solve", seq, key, ids, method[, budget])``,
    the budget being the task's own wall-clock ceiling — so a table
    crosses the process boundary once, then as deltas.
    ``error_kind`` is ``"state"`` when the namespace or an id is missing
    (a stale mirror: the parent heals the slot by respawn and replay)
    and ``"solve"`` for a solver exception, which fails only that
    request.  ``("stop",)`` ends the loop.  The seconds are measured
    around the solve itself, excluding queueing and transfer.

    The ``worker.solve`` fault site fires before every solve; the
    transport supplies the loop with *plan*, the worker's *slot* and its
    incarnation *generation*.
    """
    spaces: Dict = {}
    solves = 0
    for message in messages:
        kind = message[0]
        if kind == "stop":
            break
        if kind == "solve":
            seq, key, ids, method = message[1:5]
            budget = message[5] if len(message) > 5 else None
            solves += 1
            space = spaces.get(key)
            try:
                # Inside the try: a ``raise`` action ships as a solve
                # error (like any solver exception), a ``kill`` action
                # exits the process outright.
                plan.fire("worker.solve", worker=slot, generation=generation,
                          solve=solves, key=key, method=method)
                if space is None:
                    reply((seq, None, 0.0, "state",
                           f"unknown session namespace {key!r}"))
                    continue
                try:
                    table = _subtable(space, ids)
                except KeyError as exc:
                    reply((seq, None, 0.0, "state",
                           f"stale mirror, missing id {exc}"))
                    continue
                start = _perf_counter()
                value = _run_task(table, space[1], method, space[2], budget)
                elapsed = _perf_counter() - start
            except BaseException as exc:  # ship the failure, don't die
                reply((seq, None, 0.0, "solve", repr(exc)))
            else:
                reply((seq, value, elapsed, None, None))
        elif kind == "open":
            key, schema, fds, node_limit = message[1:5]
            spaces[key] = [tuple(schema), fds, node_limit, {}, {}]
        elif kind == "drop":
            spaces.pop(message[1], None)
        else:
            space = spaces.get(message[1])
            if space is not None:
                _apply_mirror(space, kind, message[2:])


# ---------------------------------------------------------------------------
# The supervised executor (parent side, transport-agnostic)
# ---------------------------------------------------------------------------

#: Supervision tick: liveness, heartbeats, deadlines, due respawns.
_TICK_S = 0.02

#: What a transport raises when it cannot start a slot process.
_SPAWN_ERRORS = (OSError, ValueError, ImportError, AttributeError)


class _Solve:
    """Parent-side record of one submitted solve."""

    __slots__ = ("key", "ids", "method", "budget", "slot", "seq",
                 "sent_at", "resend_at", "resends", "retries", "degraded",
                 "claimed", "done", "value", "secs", "error", "pending")

    def __init__(self, key, ids, method, budget, pending):
        self.pending = pending  # [unfinished solves of the call], shared
        self.key = key
        self.ids = tuple(ids)
        self.method = method
        self.budget = budget
        self.slot = None        # slot it is outstanding on (None = queued)
        self.seq = None         # current attempt's seq (stale seqs drop)
        self.sent_at = None     # monotonic send time (deadline sweep)
        self.resend_at = None   # backoff gate of a pending resend
        self.resends = 0        # deadline resends on the current slot
        self.retries = 0        # requeues after slot failures
        self.degraded = False   # already fell to the approximation tier
        self.claimed = False    # a caller thread is solving it locally
        self.done = False
        self.value = None
        self.secs = 0.0
        self.error = None

    def finish(self, cond, value=None, secs=0.0, error=None) -> None:
        """Record the outcome (caller holds *cond*); the waiting call is
        woken once, when its last solve finishes."""
        if self.done:
            return
        self.value, self.secs, self.error = value, secs, error
        self.done = True
        self.pending[0] -= 1
        if not self.pending[0]:
            cond.notify_all()


class SupervisedExecutor:
    """Long-lived worker slots behind one pull queue, with supervision.

    A *transport* spawns slot processes and moves messages: ``open(
    on_reply)``, ``spawn(slot, generation, faults, replay)``
    → handle (the replay messages delivered first, before ``spawn``
    returns), ``encode(message)``, ``close()``; a handle offers
    ``send``, ``alive``, ``wait_ready``, ``stop``, ``close(timeout)``,
    and ``last_activity`` when heartbeats are on.  Everything else
    lives here, once.

    **Namespaces.**  :meth:`open_session` installs a session's schema,
    Δ, and solver knobs on every slot; :meth:`broadcast` fans a
    ``reset``/``append``/``delete`` delta out; :meth:`solve` takes the
    key.  One executor therefore serves many concurrent ``(tenant,
    table, Δ)`` sessions.  Constructing with ``schema``/``fds`` binds
    the default namespace.

    **Dispatch.**  :meth:`solve` is thread-safe.  Tasks join one FIFO
    queue in submission order; a slot pulls the head when it has no
    solve outstanding; results correlate by sequence number and come
    back in task order.

    **Supervision** (``supervise=True``).  The parent keeps an
    authoritative mirror of every namespace.  A solve outstanding past
    *deadline_s* is resent to its slot up to *resends* times with capped
    exponential backoff, then the slot is failed over.  A failed slot —
    dead process, missed heartbeats, exhausted deadline, stale mirror —
    is killed, its outstanding solve goes back to the head of the queue,
    and a replacement is spawned after capped exponential backoff with
    the mirror replayed into it as one ``reset`` per namespace.  A solve
    requeued more than *max_retries* times degrades from an exact tier
    to ``"approx"`` (reported in the effective method); any other solve
    fails its call.  A slot that has died *max_respawns* times is
    abandoned; once all are, solves run in the calling thread against
    the mirror (``degraded_local``).  ``supervise=False`` is the
    fail-fast reference: no mirror, no respawn, a dead slot fails its
    outstanding solve, and the executor breaks when every slot is dead.

    Construction never fails; :meth:`start` returns ``False`` on
    platforms without subprocess support, and callers keep their serial
    fallback.  :meth:`supervision_stats` is the honesty channel.
    """

    executor_kind = "executor"
    #: Slot noun in counters and error messages ("worker", "shard").
    noun = "worker"

    def __init__(self, transport, slots: int, schema=None,
                 fds: Optional[FDSet] = None,
                 node_limit: int = DEFAULT_NODE_LIMIT, *,
                 supervise: bool = True,
                 deadline_s: Optional[float] = None,
                 resends: int = 0,
                 resend_backoff_s: float = 0.05,
                 resend_backoff_cap_s: float = 2.0,
                 max_retries: int = 2,
                 max_respawns: int = 8,
                 respawn_backoff_s: float = 0.05,
                 respawn_backoff_cap_s: float = 2.0,
                 heartbeat_s: Optional[float] = None,
                 heartbeat_miss_s: float = 10.0,
                 spawn_timeout_s: float = 20.0,
                 faults=None,
                 recorder=None):
        self._transport = transport
        self._n = max(1, int(slots))
        self._schema = None if schema is None else tuple(schema)
        self._fds = fds
        self._node_limit = node_limit
        self._supervise = bool(supervise)
        self._deadline_s = deadline_s
        self._resends = max(0, int(resends))
        self._resend_backoff = (
            max(0.0, float(resend_backoff_s)), float(resend_backoff_cap_s)
        )
        self._max_retries = max(0, int(max_retries))
        self._max_respawns = max(0, int(max_respawns))
        self._respawn_backoff = (
            max(0.0, float(respawn_backoff_s)), float(respawn_backoff_cap_s)
        )
        self._heartbeat_s = heartbeat_s
        self._heartbeat_miss_s = heartbeat_miss_s
        self._spawn_timeout_s = spawn_timeout_s
        self._faults = _faults.resolve(faults)
        self._recorder = _obs.resolve(recorder)

        self._started = False
        self._broken = False
        self._closed = False
        self._local = False  # every slot abandoned: solve in the caller
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        # Scheduling state, guarded by _cond.
        self._cond = threading.Condition()
        self._handles: List = [None] * self._n
        self._gens = [0] * self._n
        self._busy: List[Optional[_Solve]] = [None] * self._n
        self._dead = set(range(self._n))
        self._abandoned: set = set()
        self._respawn_at: Dict[int, float] = {}
        self._respawning: set = set()
        self._respawn_attempts: Dict[int, int] = {}
        self._queue: deque = deque()
        self._by_seq: Dict[int, _Solve] = {}
        self._next_seq = 0
        self._last_ping = 0.0
        self._deaths = f"{self.noun}_deaths"
        self._counters = {
            self._deaths: 0, "respawns": 0, "retries": 0, "rerouted": 0,
            "degraded": 0, "degraded_local": 0, "timeouts": 0,
            "heartbeat_misses": 0, "abandoned": 0, "rpcs": 0,
        }
        # Authoritative namespace mirrors (key -> [schema, fds,
        # node_limit, rows, weights]) replayed into
        # replacements.  _io serialises mirror updates, fan-out and
        # replay, so a respawn never misses a delta.  Lock order: _io
        # before _cond, never the reverse.
        self._mirror: Dict = {}
        self._io = threading.Lock()

    # -- introspection --------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._started and not self._broken and not self._closed

    @property
    def worker_count(self) -> int:
        return self._n

    def live_slots(self) -> int:
        with self._cond:
            return sum(
                1 for slot in range(self._n)
                if self._handles[slot] is not None and slot not in self._dead
            )

    def supervision_stats(self) -> Dict[str, int]:
        """Supervision counters: ``<noun>_deaths``, ``respawns``,
        ``retries``, ``rerouted``, ``degraded``, ``degraded_local``,
        ``timeouts``, ``heartbeat_misses``, ``abandoned``, ``rpcs``."""
        with self._cond:
            return dict(self._counters)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> bool:
        """Spawn every slot; True once all are ready (idempotent)."""
        if self._started:
            return self.alive
        self._started = True
        with self._io:
            replay = self._replay()
            try:
                self._transport.open(self._on_reply)
                for slot in range(self._n):
                    self._handles[slot] = self._transport.spawn(
                        slot, 0, self._faults, replay
                    )
            except _SPAWN_ERRORS:
                return self._fail_start()
            deadline = _monotonic() + self._spawn_timeout_s
            for handle in self._handles:
                if not handle.wait_ready(max(0.0, deadline - _monotonic())):
                    return self._fail_start()
            with self._cond:
                self._dead.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name=f"fdrepair-{self.noun}-monitor",
            daemon=True,
        )
        self._monitor.start()
        if self._schema is not None and self._fds is not None:
            if not self.open_session(DEFAULT_SESSION_KEY, self._schema,
                                     self._fds):
                self._broken = True
                self.close()
        return self.alive

    def _replay(self) -> List[Tuple]:
        """The messages that bring a fresh slot's mirror up to date: one
        ``open`` and one ``reset`` per namespace (caller holds ``_io``,
        so the transport must deliver them before releasing it)."""
        return [
            message for key, space in self._mirror.items()
            for message in (("open", key, *space[:3]),
                            ("reset", key, space[3], space[4]))
        ]

    def _fail_start(self) -> bool:
        self._broken = True
        self.close()
        return False

    def close(self) -> None:
        """Stop every slot; safe to call repeatedly.  Outstanding solves
        fail their calls."""
        if not self._started or self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        with self._cond:
            handles = [h for h in self._handles if h is not None]
            for rec in [*self._queue, *self._busy]:
                if rec is not None:
                    rec.finish(self._cond,
                               error=f"{self.executor_kind} executor closed")
            self._queue.clear()
            self._by_seq.clear()
            self._busy = [None] * self._n
            self._dead = set(range(self._n))
            self._cond.notify_all()
        for handle in handles:
            handle.stop()
        for handle in handles:
            handle.close(2.0)
        try:
            self._transport.close()
        except Exception:
            pass

    def __enter__(self) -> "SupervisedExecutor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            if self._started:
                self.close()
        except Exception:
            pass

    # -- namespaces ------------------------------------------------------

    def open_session(self, key, schema, fds: FDSet, *,
                     node_limit: Optional[int] = None) -> bool:
        """Install namespace *key* on every slot (its mirror starts
        empty; follow with a ``reset`` broadcast)."""
        limit = self._node_limit if node_limit is None else node_limit
        with self._io:
            if self._supervise:
                self._mirror[key] = [tuple(schema), fds, limit, {}, {}]
            return self._fan_out(("open", key, tuple(schema), fds, limit))

    def drop_session(self, key) -> bool:
        """Forget namespace *key* on every slot."""
        with self._io:
            self._mirror.pop(key, None)
            return self._fan_out(("drop", key))

    def broadcast(self, op, key=DEFAULT_SESSION_KEY) -> bool:
        """Apply one mirror-maintenance op — ``("reset", rows, weights)``,
        ``("append", rows, weights)`` or ``("delete", ids)`` — to
        namespace *key* on every slot.  False (executor dead) instead of
        raising."""
        with self._io:
            space = self._mirror.get(key)
            if space is not None:
                _apply_mirror(space, op[0], op[1:])
            return self._fan_out((op[0], key) + tuple(op[1:]))

    def attach_table(self, key, table: Table, fds: FDSet, *,
                     node_limit: Optional[int] = None) -> bool:
        """Open namespace *key* and ship *table* as its mirror."""
        return self.open_session(
            key, table.schema, fds, node_limit=node_limit
        ) and self.broadcast(
            ("reset", table.rows(), table.weights()), key=key
        )

    def _fan_out(self, message) -> bool:
        """Send *message* to every live slot (caller holds ``_io``); a
        slot whose pipe refuses it is failed over.  Before :meth:`start`
        the mirror alone carries it (replayed into every slot at
        spawn) — the batch path ships a namespace that way, for free
        under ``fork``."""
        if not self._started:
            return self._supervise
        if not self.alive:
            return False
        encoded = self._transport.encode(message)
        with self._cond:
            live = [
                (slot, handle) for slot, handle in enumerate(self._handles)
                if slot not in self._dead
            ]
        for slot, handle in live:
            if not handle.send(encoded):
                self._fail_slot(slot, "mirror broadcast failed")
        return self.alive

    # -- solving ---------------------------------------------------------

    def solve(self, tasks: Sequence[Tuple], timeout: Optional[float] = 120.0,
              key=DEFAULT_SESSION_KEY) -> List[Tuple]:
        """Solve ``(component ids, method[, budget])`` tasks in namespace
        *key*; returns, in task order, each task's result followed by
        the solve seconds — ``(kept ids, effective method, seconds)`` for
        S-repair methods.  The optional budget is the task's wall-clock
        ceiling — its :class:`~repro.core.decompose.ComponentPlan`
        slice; a task without one has no wall-clock ceiling.  The
        seconds are measured inside the worker around the solve itself.

        Slot deaths, lost messages and stalls are survived inside the
        call (see the class docstring).  Raises ``RuntimeError`` only
        when the executor is closed or broken, the batch *timeout*
        (``None``: no limit) expires, or a solve fails; callers then
        solve serially.
        """
        if not self.alive:
            raise RuntimeError(f"{self.executor_kind} executor is not running")
        if not tasks:
            return []
        pending = [len(tasks)]
        recs = [
            _Solve(key, task[0], task[1], task[2] if len(task) > 2 else None,
                   pending)
            for task in tasks
        ]
        with self._cond:
            self._queue.extend(recs)
        self._pump()
        deadline = None if timeout is None else _monotonic() + timeout
        failure = None
        while True:
            claimed = []
            with self._cond:
                if not pending[0]:
                    break
                if self._local:
                    for rec in recs:
                        if not rec.done and rec.slot is None and not rec.claimed:
                            rec.claimed = True
                            claimed.append(rec)
                    self._queue = deque(
                        r for r in self._queue if not (r.claimed or r.done)
                    )
                elif not self.alive:
                    failure = f"{self.executor_kind} executor failed"
                elif deadline is not None and _monotonic() >= deadline:
                    failure = (f"{self.executor_kind} executor timed out "
                               f"after {timeout:g}s")
                if failure is not None:
                    for rec in recs:  # late results are discarded
                        rec.finish(self._cond, error=failure)
                    break
                if not claimed:
                    wait = 0.5 if deadline is None else deadline - _monotonic()
                    self._cond.wait(min(max(wait, 0.01), 0.5))
            for rec in claimed:
                self._solve_local(rec)
        if failure is not None:
            raise RuntimeError(failure)
        results = []
        for rec in recs:
            if rec.error is not None:
                raise RuntimeError(f"{self.noun} solve failed: {rec.error}")
            results.append(rec.value + (rec.secs,))
        return results

    def _solve_local(self, rec: _Solve) -> None:
        """Run one solve in the calling thread against the mirror — same
        rows, same pure solver, byte-identical answer."""
        value, secs, error = None, 0.0, None
        with self._io:
            space = self._mirror.get(rec.key)
            try:
                table = _subtable(space, rec.ids) if space else None
            except KeyError as exc:
                table, error = None, f"missing id {exc} in parent mirror"
        if table is None and error is None:
            error = f"unknown session namespace {rec.key!r}"
        if error is None:
            try:
                start = _perf_counter()
                value = _run_task(table, space[1], rec.method, space[2],
                                  rec.budget)
                secs = _perf_counter() - start
            except Exception as exc:
                error = repr(exc)
        with self._cond:
            rec.finish(self._cond, value, secs, error)
            self._counters["degraded_local"] += 1
        self._recorder.count(f"{self.noun}.degraded_local")

    # -- dispatch --------------------------------------------------------

    def _assign_locked(self, slot: int, rec: _Solve, now: float):
        """Route *rec* to *slot* under a fresh seq (caller holds
        ``_cond``); returns the send for :meth:`_send_solves`."""
        if rec.seq is not None:
            self._by_seq.pop(rec.seq, None)
        seq = self._next_seq
        self._next_seq += 1
        rec.slot, rec.seq, rec.sent_at, rec.resend_at = slot, seq, now, None
        self._by_seq[seq] = rec
        self._busy[slot] = rec
        self._counters["rpcs"] += 1
        message = ("solve", seq, rec.key, rec.ids, rec.method)
        if rec.budget is not None:
            message += (rec.budget,)
        return slot, self._handles[slot], message

    def _pump(self) -> None:
        """Hand the queue head to every idle live slot."""
        sends = []
        with self._cond:
            if not self._queue:
                return
            now = _monotonic()
            for slot in range(self._n):
                if self._busy[slot] is not None or slot in self._dead:
                    continue
                while self._queue and (self._queue[0].done
                                       or self._queue[0].claimed):
                    self._queue.popleft()
                if not self._queue:
                    break
                sends.append(
                    self._assign_locked(slot, self._queue.popleft(), now)
                )
        self._send_solves(sends)

    def _send_solves(self, sends) -> None:
        for slot, handle, message in sends:
            if not handle.send(self._transport.encode(message)):
                self._fail_slot(slot, "solve dispatch failed")

    def _on_reply(self, reply) -> None:
        """Transport callback: correlate one ``(seq, value, seconds,
        error_kind, error)`` result and give its slot the next solve."""
        try:
            seq, value, secs, kind, error = reply
        except (TypeError, ValueError):
            return
        stale = None
        with self._cond:
            rec = self._by_seq.pop(seq, None)
            if rec is None or rec.slot is None:
                return  # a superseded attempt
            if (kind == "state" and not rec.done and self._supervise
                    and rec.key in self._mirror):
                # The slot's mirror is stale (a lost delta), not the
                # component: fail the slot over, which requeues the
                # solve and heals the slot by replay.
                stale = rec.slot
            else:
                if self._busy[rec.slot] is rec:
                    self._busy[rec.slot] = None
                rec.slot = rec.seq = None
                rec.finish(self._cond, value, secs,
                           None if kind is None else error)
        if stale is not None:
            self._fail_slot(stale, "stale mirror")
        self._pump()

    # -- supervision -----------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(_TICK_S):
            now = _monotonic()
            with self._cond:
                live = [
                    (slot, handle) for slot, handle in enumerate(self._handles)
                    if slot not in self._dead
                ]
            self._fail_slots(
                [slot for slot, handle in live if not handle.alive()],
                f"{self.noun} process died",
            )
            if self._heartbeat_s and now - self._last_ping >= self._heartbeat_s:
                self._last_ping = now
                self._heartbeat(live, now)
            if self._deadline_s is not None and self._supervise:
                self._sweep_deadlines(now)
            self._service_respawns(now)
            self._pump()

    def _heartbeat(self, live, now: float) -> None:
        ping = self._transport.encode(("ping",))
        for slot, handle in live:
            if now - handle.last_activity > self._heartbeat_miss_s:
                with self._cond:
                    self._counters["heartbeat_misses"] += 1
                self._fail_slot(slot, "missed heartbeats")
            else:
                handle.send(ping)

    def _sweep_deadlines(self, now: float) -> None:
        """Resend overdue solves with capped backoff; fail the slot over
        once a solve's resends are spent."""
        resend, overdue = [], []
        base, cap = self._resend_backoff
        with self._cond:
            for slot, rec in enumerate(self._busy):
                if rec is None or slot in self._dead:
                    continue
                if rec.sent_at is None:
                    if now >= rec.resend_at:
                        resend.append(self._assign_locked(slot, rec, now))
                    continue
                if now - rec.sent_at < self._deadline_s:
                    continue
                self._counters["timeouts"] += 1
                if rec.resends < self._resends:
                    rec.resends += 1
                    self._counters["retries"] += 1
                    rec.sent_at = None
                    rec.resend_at = now + min(base * 2 ** (rec.resends - 1), cap)
                else:
                    overdue.append(slot)
        self._send_solves(resend)
        for slot in overdue:
            self._recorder.count(f"{self.noun}.timeout")
            self._fail_slot(
                slot, f"solve exceeded {self._deadline_s:g}s"
            )

    def _fail_slot(self, slot: int, reason: str) -> None:
        self._fail_slots((slot,), reason)

    def _fail_slots(self, slots, reason: str) -> None:
        """Take *slots* out of service at once: kill them, requeue (or
        fail) their outstanding solves, and book respawns or abandon the
        slots.  One lock hold, so a caller woken by a failed solve sees
        every simultaneous death — and a broken executor — together."""
        closing = []
        with self._cond:
            for slot in slots:
                handle = self._handles[slot]
                if handle is None or slot in self._dead:
                    continue
                closing.append(handle)
                self._dead.add(slot)
                self._counters[self._deaths] += 1
                rec = self._busy[slot]
                self._busy[slot] = None
                if rec is not None:
                    self._requeue_locked(rec, reason)
                if self._supervise and not self._closed:
                    self._schedule_respawn_locked(slot)
            if not closing:
                return
            self._check_exhausted_locked()
            self._cond.notify_all()
        for handle in closing:
            handle.close(0.0)
            self._recorder.count(f"{self.noun}.death")
        self._pump()

    def _requeue_locked(self, rec: _Solve, reason: str) -> None:
        """Back to the head of the queue within the retry budget, then
        degraded to the approximation tier, else failed."""
        if rec.seq is not None:
            self._by_seq.pop(rec.seq, None)
        rec.slot = rec.seq = rec.sent_at = rec.resend_at = None
        rec.resends = 0
        if rec.done:
            return
        if self._supervise and rec.retries < self._max_retries:
            rec.retries += 1
            self._counters["retries"] += 1
            self._counters["rerouted"] += 1
        elif (self._supervise and not rec.degraded
                and rec.method in ("exact", "dichotomy")):
            rec.method = "approx"
            rec.degraded = True
            rec.retries = 0
            self._counters["degraded"] += 1
        else:
            rec.finish(self._cond, error=reason)
            return
        self._queue.appendleft(rec)

    def _schedule_respawn_locked(self, slot: int) -> None:
        attempts = self._respawn_attempts.get(slot, 0)
        if attempts >= self._max_respawns:
            if slot not in self._abandoned:
                self._abandoned.add(slot)
                self._counters["abandoned"] += 1
            return
        base, cap = self._respawn_backoff
        self._respawn_at[slot] = _monotonic() + min(base * 2 ** attempts, cap)

    def _check_exhausted_locked(self) -> None:
        """No live slot and none coming back: degrade to local execution
        under supervision, break otherwise."""
        if (len(self._dead) < self._n or self._respawn_at
                or self._respawning or self._closed):
            return
        if self._supervise:
            self._local = True
        else:
            self._broken = True
        self._cond.notify_all()

    def _service_respawns(self, now: float) -> None:
        with self._cond:
            due = [slot for slot, at in self._respawn_at.items() if at <= now]
            for slot in due:
                del self._respawn_at[slot]
                self._respawning.add(slot)
        for slot in due:
            self._respawn(slot)

    def _respawn(self, slot: int) -> None:
        """Spawn a replacement for *slot* with the mirror replayed into
        it, under ``_io`` so no delta slips between replay and rejoin."""
        self._respawn_attempts[slot] = self._respawn_attempts.get(slot, 0) + 1
        generation = self._gens[slot] + 1
        with self._io:
            try:
                handle = self._transport.spawn(
                    slot, generation, self._faults, self._replay(),
                )
            except _SPAWN_ERRORS:
                handle = None
            if handle is not None and not handle.wait_ready(
                    self._spawn_timeout_s):
                handle.close(0.0)
                handle = None
            with self._cond:
                self._respawning.discard(slot)
                if handle is None:
                    self._schedule_respawn_locked(slot)
                    self._check_exhausted_locked()
                    return
                joined = not self._closed
                if joined:
                    self._handles[slot] = handle
                    self._gens[slot] = generation
                    self._dead.discard(slot)
                    self._counters["respawns"] += 1
                    self._cond.notify_all()
        if not joined:
            handle.close(0.0)
            return
        self._recorder.count(f"{self.noun}.respawn")
        self._pump()


# ---------------------------------------------------------------------------
# Multiprocessing-queue transport
# ---------------------------------------------------------------------------


def _exit_with_parent() -> None:
    """Exit this worker as soon as the process that started it dies.

    A SIGKILLed owner never sends ``stop``, and nothing else would wake
    ``inq.get``.  The parent sentinel turns readable once every copy of
    the owner's end is closed; a later-forked sibling inherits a copy,
    but it runs this same watch, so the youngest worker exits first and
    releases the next.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    parent = mp.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="fdrepair-parent-watch",
                     daemon=True).start()


def _mp_worker_main(inq, outq, slot, generation, fault_spec,
                    replay) -> None:
    # The fault plan travels as an argument: fault counters restart per
    # process.  The replay rides along too — inherited, not pickled,
    # under fork.  A worker forked from the daemon would also inherit
    # its asyncio SIGTERM handler, which turns terminate() — the
    # deadline failover — into a no-op.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _exit_with_parent()
    worker_loop(chain(replay, iter(inq.get, None)), outq.put, slot,
                generation, _faults.FaultPlan.from_spec(fault_spec))


def _retire_queue(queue) -> None:
    """Drain *queue* and detach its feeder thread, so teardown never
    blocks on a queue join."""
    try:
        while True:
            queue.get_nowait()
    except Exception:
        pass
    try:
        queue.cancel_join_thread()
        queue.close()
    except Exception:
        pass


class _MpWorker:
    """One worker process and its input queue."""

    def __init__(self, ctx, outq, slot, generation, faults, replay):
        self.slot = slot
        self._faults = faults
        self.inq = ctx.Queue()
        self.proc = ctx.Process(
            target=_mp_worker_main,
            args=(self.inq, outq, slot, generation,
                  faults.to_spec() or None, replay),
            daemon=True,
        )
        self.proc.start()

    def wait_ready(self, timeout: float) -> bool:
        return True

    def send(self, message) -> bool:
        if message[0] == "solve" and self._faults.fire(
            "pool.dispatch", worker=self.slot, seq=message[1]
        ) == "drop":
            return True  # lost message: the deadline path recovers it
        try:
            self.inq.put(message)
        except (OSError, ValueError):
            return False
        return True

    def alive(self) -> bool:
        return self.proc.is_alive()

    def stop(self) -> None:
        try:
            self.inq.put_nowait(("stop",))
        except Exception:
            pass

    def close(self, timeout: float) -> None:
        try:
            self.proc.join(timeout=timeout)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=0.5)
        except (OSError, ValueError, AssertionError):
            pass
        _retire_queue(self.inq)


class _MpTransport:
    """Worker processes forked from the caller, fed through one
    multiprocessing queue each and answering on one shared result queue
    drained by a collector thread."""

    def __init__(self):
        self._ctx = None
        self._outq = None
        self._collector = None

    def open(self, on_reply) -> None:
        import multiprocessing as mp

        self._ctx = mp.get_context()
        self._outq = self._ctx.Queue()
        self._collector = threading.Thread(
            target=self._collect, args=(self._outq, on_reply),
            name="fdrepair-pool-collector", daemon=True,
        )
        self._collector.start()

    @staticmethod
    def _collect(outq, on_reply) -> None:
        while True:
            try:
                item = outq.get()
            except (OSError, ValueError, EOFError):
                return
            if item is None:
                return
            on_reply(item)

    def spawn(self, slot, generation, faults, replay) -> _MpWorker:
        return _MpWorker(self._ctx, self._outq, slot, generation, faults,
                         replay)

    @staticmethod
    def encode(message):
        return message

    def close(self) -> None:
        if self._outq is None:
            return
        self._outq.put(None)  # wakes the collector without a poll
        self._collector.join(timeout=2.0)
        _retire_queue(self._outq)
        self._outq = None


class PersistentWorkerPool(SupervisedExecutor):
    """The supervised executor on the multiprocessing transport: warm
    worker processes shared by streaming sessions, the daemon, and
    ``clean(parallel=N)`` / ``u_repair(parallel=N)`` batches.

    *solve_timeout_s* is the per-solve deadline: a solve stuck past it
    gets its worker terminated and rides the retry-then-degrade path.
    ``supervise=False`` is the fail-fast reference arm.  Parent-side
    dispatch fires the ``pool.dispatch`` fault site and workers fire
    ``worker.solve`` (see :mod:`repro.faults`); *faults* defaults to the
    plan named by ``FDREPAIR_FAULTS``.
    """

    executor_kind = "pool"
    noun = "worker"

    def __init__(self, workers: int, schema=None, fds: Optional[FDSet] = None,
                 node_limit: int = DEFAULT_NODE_LIMIT, *,
                 supervise: bool = True,
                 max_retries: int = 2,
                 max_respawns: int = 8,
                 respawn_backoff_s: float = 0.05,
                 respawn_backoff_cap_s: float = 2.0,
                 solve_timeout_s: Optional[float] = None,
                 faults=None,
                 recorder=None):
        super().__init__(
            _MpTransport(), workers, schema, fds, node_limit,
            supervise=supervise, deadline_s=solve_timeout_s,
            max_retries=max_retries, max_respawns=max_respawns,
            respawn_backoff_s=respawn_backoff_s,
            respawn_backoff_cap_s=respawn_backoff_cap_s,
            faults=faults, recorder=recorder,
        )

    live_workers = SupervisedExecutor.live_slots

    @property
    def _procs(self) -> List:
        return [h.proc for h in self._handles if h is not None]

    @property
    def _inqs(self) -> List:
        return [h.inq for h in self._handles if h is not None]


# ---------------------------------------------------------------------------
# S-repairs
# ---------------------------------------------------------------------------

def _solve_s_kept(
    table: Table,
    fds: FDSet,
    method: str,
    node_limit: int = DEFAULT_NODE_LIMIT,
    index=None,
    budget_s: Optional[float] = None,
) -> Tuple[Tuple[TupleId, ...], str]:
    """Solve one component with the given portfolio method; return the
    kept identifiers in table order plus the method that actually ran.

    The effective method differs from the requested one in exactly one
    case: an ``"exact"`` solve that outran *budget_s* falls back to the
    Bar-Yehuda–Even construction and reports ``"approx"`` — so the
    caller's ratio bound, bracket, and portfolio label stay honest about
    what was computed.
    """
    if method == "dichotomy":
        from .core.srepair import opt_s_repair

        return opt_s_repair(fds, table).ids(), method
    if method == "exact":
        from .core.exact import ExactBudgetExceeded, exact_cover_of_index

        try:
            cover = set(exact_cover_of_index(
                index if index is not None else table.conflict_index(fds),
                node_limit=node_limit, budget_s=budget_s,
            ))
        except ExactBudgetExceeded:
            method = "approx"  # the escape hatch: fall through below
        else:
            return tuple(tid for tid in table.ids() if tid not in cover), "exact"
    if method == "approx":
        from .core.approx import approx_s_repair

        return approx_s_repair(table, fds, index=index).repair.ids(), "approx"
    if method == "greedy":
        from .core.approx import greedy_s_repair

        return greedy_s_repair(table, fds, index=index).repair.ids(), "greedy"
    raise ValueError(f"unknown portfolio method {method!r}")


def coded_component_table(
    schema: Tuple[str, ...],
    ids: Tuple[TupleId, ...],
    columns: Tuple,
    weights: Tuple[float, ...],
) -> Table:
    """The sub-table a worker solves for a coded component: rows are the
    column codes of :meth:`~repro.core.decompose.Component.code_payload`.

    The values are the integer codes themselves: FD satisfaction — and
    every order-sensitive choice the S-repair solvers make — observes
    only the value equality pattern and the row order, both of which the
    codes preserve (codes are assigned in first-seen table order).  The
    kept identifiers are therefore byte-identical to solving the real
    sub-table, and identifiers are all that ever crosses back.
    """
    rows = dict(zip(ids, zip(*columns))) if columns else {tid: () for tid in ids}
    return Table._from_trusted(
        schema,
        rows,
        dict(zip(ids, weights)),
        "R",
        {a: i for i, a in enumerate(schema)},
    )


#: Namespace keys for batch solves (one per clean / u_repair call).
_BATCH_KEYS = _iter_count()


def _component_rows(decomp: Decomposition, coded: bool):
    """The rows a batch namespace ships: only the conflicting
    components' tuples — the conflict-free rest never reaches a solver —
    as column codes (:meth:`~repro.core.decompose.Component.code_payload`)
    when *coded* and the index carries a codec.  Codes preserve the
    value equality pattern and the row order, which is all an S-repair
    solver observes (see :func:`coded_component_table`)."""
    codec = getattr(decomp.index, "_codec", None) if coded else None
    rows: Dict = {}
    weights: Dict = {}
    for component in decomp.components:
        if codec is None:
            table = component.table
            rows.update(table.rows())
            weights.update(table.weights())
        else:
            ids, columns, column_weights = component.code_payload(codec)
            rows.update(zip(ids, zip(*columns)))
            weights.update(zip(ids, column_weights))
    return rows, weights


def _executor_solve(executor, schema, fds: FDSet, rows, weights,
                    tasks: Sequence[Tuple], node_limit: int):
    """Ship *rows* into a per-call namespace on *executor* and solve
    *tasks* there; ``None`` when the executor is unusable or fails —
    callers then solve serially, which is byte-identical because the
    solvers are pure.  An executor not started yet receives the
    namespace with its slots' initial mirror."""
    key = f"batch-{next(_BATCH_KEYS)}"
    try:
        if (executor.open_session(key, schema, fds, node_limit=node_limit)
                and executor.broadcast(("reset", rows, weights), key=key)
                and (executor.alive or executor.start())):
            return executor.solve(tasks, timeout=None, key=key)
    except RuntimeError:
        pass
    finally:
        executor.drop_session(key)
    return None


def solve_components(
    decomp: Decomposition,
    plans: Sequence[ComponentPlan],
    parallel: Optional[int] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
    recorder=None,
    executor=None,
) -> Tuple[List[Tuple[TupleId, ...]], List[str]]:
    """Solve each component by its plan; returns the kept identifiers
    per component plus the *effective* methods, both in component order
    (effective ≠ planned exactly when an ``"exact"`` solve outran its
    wall-clock budget and fell back to ``"approx"``).

    *plans* holds one :class:`~repro.core.decompose.ComponentPlan` per
    component (from :func:`repro.core.decompose.plan_schedule`, or built
    by hand for a forced method).  Each component runs under its plan's
    method, and its plan's ``budget_s`` — the one budget meaning — is
    that solve's wall-clock ceiling (``None``: no ceiling).  The solves
    are *dispatched* in ascending predicted difficulty (easiest first —
    the scheduler's granted budget slices assume the cheap solves land
    before the expensive ones; plans without a difficulty keep component
    order); results are still reassembled in component order, and since
    every plan is pure prediction the serial and parallel runs stay
    byte-identical.

    The scheduling seam shared by :func:`decomposed_s_repair` and
    :func:`repro.pipeline.clean` (which derives its dirtiness report from
    the same solve instead of bracketing components twice).  Two paths:
    serial execution reuses the projected sub-indexes; executor
    execution ships the conflicting components' rows once into a
    per-call namespace (column codes when the index is kernel-backed,
    see :func:`_component_rows`) and dispatches id-list tasks in the
    order above, the workers rebuilding sub-indexes (equivalent by the
    index-rebuild property).

    With an enabled *recorder* (:mod:`repro.obs`), one ``solve`` trace
    record is emitted per component carrying the plan evidence
    (difficulty, predicted seconds, budget slice, downgrade flag,
    features), the effective method, and the measured solve seconds —
    timed in-process on the serial path, inside the worker on the pool
    path.  The default :data:`repro.obs.NULL_RECORDER` costs one
    attribute check.

    The executor is *executor* when given (a
    :class:`repro.shard.ShardedExecutor`, a shared
    :class:`PersistentWorkerPool`, or anything duck-typing their
    namespace seam), else a short-lived :class:`PersistentWorkerPool`
    of :func:`resolve_workers` processes when *parallel* asks for more
    than one.  Pure solvers keep the results byte-identical to serial;
    any executor failure falls back to the serial path.
    """
    rec = _obs.resolve(recorder)
    count = len(plans)
    methods = [plan.method for plan in plans]
    budgets = [plan.budget_s for plan in plans]
    order = sorted(
        range(count),
        key=lambda i: (
            plans[i].difficulty if plans[i].difficulty is not None else 0.0,
            i,
        ),
    )
    components = decomp.components
    workers = resolve_workers(parallel, count)
    ordered = None
    owned = None
    if executor is None and workers > 1:
        executor = owned = PersistentWorkerPool(workers, node_limit=node_limit)
    if executor is not None and count:
        tasks = [
            (components[i].ids, methods[i]) if budgets[i] is None
            else (components[i].ids, methods[i], budgets[i])
            for i in order
        ]
        try:
            ordered = _executor_solve(
                executor, decomp.table.schema, decomp.fds,
                *_component_rows(decomp, coded=True), tasks, node_limit,
            )
        finally:
            if owned is not None:
                owned.close()
    path = "serial"
    if ordered is not None:
        path = getattr(executor, "executor_kind", "executor")
    else:
        timed = rec.enabled
        ordered = []
        for i in order:
            start = _perf_counter() if timed else 0.0
            kept, effective = _solve_s_kept(
                components[i].table, decomp.fds, methods[i], node_limit,
                index=components[i].index, budget_s=budgets[i],
            )
            ordered.append(
                (kept, effective, _perf_counter() - start if timed else 0.0)
            )
    outcomes: List = [None] * count
    for i, outcome in zip(order, ordered):
        outcomes[i] = outcome
    if rec.enabled:
        for i, (_kept, effective, secs) in enumerate(outcomes):
            component = components[i]
            rec.solve_record(
                ordinal=i,
                size=component.size,
                edges=component.index.num_edges,
                planned=methods[i],
                effective=effective,
                actual_s=secs,
                path=path,
                context="clean",
                plan=plans[i],
            )
    return [kept for kept, _m, _s in outcomes], [m for _k, m, _s in outcomes]


def _method_mix(methods: Sequence[str]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for m in methods:
        counts[m] = counts.get(m, 0) + 1
    return counts


def _mix_label(counts: Mapping[str, int]) -> str:
    return ", ".join(
        f"{S_METHOD_NAMES[m]}×{counts[m]}" for m in sorted(counts)
    )


def decomposed_s_repair(
    table: Table,
    fds: FDSet,
    guarantee: str = "best",
    method: Optional[str] = None,
    parallel: Optional[int] = None,
    index=None,
    node_limit: Optional[int] = None,
    threshold: Optional[int] = None,
    exact_budget_s: Optional[float] = None,
    executor=None,
):
    """S-repair via per-component solving with a portfolio of methods.

    With ``method=None`` each component gets the method the difficulty
    scheduler picks for it (:func:`~repro.core.decompose.plan_schedule`
    under *guarantee*); passing an explicit ``method`` forces it on every
    component (this is how the single-method entry points —
    ``exact_s_repair(..., decomposed=True)`` and friends — reuse this
    engine).  The result's ``ratio_bound`` is instance-specific: 1.0
    whenever every component was solved exactly, even for an FD set that
    is APX-complete in general.  *exact_budget_s* is the instance's one
    exact budget: the scheduler rations it over components in ascending
    predicted difficulty, and ``guarantee="optimal"`` or a forced
    ``method`` ships it whole as every solve's wall-clock ceiling.
    ``None`` knobs resolve through
    :func:`~repro.core.decompose.resolve_plan_defaults`.
    """
    from .core.dichotomy import osr_succeeds

    defaults = resolve_plan_defaults(threshold, node_limit, exact_budget_s)
    decomp = decompose(table, fds, index)
    if method is None:
        plans = decomp.plan_schedule(
            osr_succeeds(fds), guarantee, defaults.threshold,
            defaults.exact_budget_s, defaults.node_limit,
        )
    else:
        plans = [
            ComponentPlan(method, budget_s=defaults.exact_budget_s)
        ] * len(decomp.components)
    kept_lists, methods = solve_components(
        decomp, plans, parallel, defaults.node_limit, executor=executor
    )
    return assemble_s_result(decomp, methods, kept_lists, parallel)


def assemble_s_result(
    decomp: Decomposition,
    methods: Sequence[str],
    kept_lists: Sequence[Tuple[TupleId, ...]],
    parallel: Optional[int] = None,
):
    """Merge per-component kept sets into one :class:`SRepairResult`."""
    from .core.srepair import SRepairResult

    repair = decomp.merge_kept(kept_lists)
    counts = _method_mix(methods)
    optimal = all(m in ("dichotomy", "exact") for m in methods)
    ratio = max((S_METHOD_RATIOS[m] for m in methods), default=1.0)
    workers = resolve_workers(parallel, len(methods))
    label = (
        f"decomposed[{decomp.component_count} components"
        + (f", parallel={workers}" if workers > 1 else "")
        + (f": {_mix_label(counts)}" if counts else "")
        + "]"
    )
    return SRepairResult(
        repair=repair,
        distance=decomp.table.dist_sub(repair),
        optimal=optimal,
        ratio_bound=1.0 if optimal else ratio,
        method=label,
        method_counts=counts,
        component_count=decomp.component_count,
    )


# ---------------------------------------------------------------------------
# U-repairs
# ---------------------------------------------------------------------------

def _solve_u_component(
    ordinal: int,
    table: Table,
    fds: FDSet,
    allow_exact_search: bool,
    exact_budget: int,
    index=None,
):
    """Run the Section 4 dispatcher on one component sub-table.

    Returns ``(cells, optimal, ratio_bound, method)`` where *cells* maps
    ``(tid, attribute) → value``.  Fresh labelled nulls are relabelled
    ``⊥c<ordinal>.<k>`` in changed-cell order: deterministic across
    serial/parallel execution and collision-free across components, so
    merged updates serialise identically however they were computed.
    """
    from .core.urepair import u_repair

    result = u_repair(
        table,
        fds,
        allow_exact_search=allow_exact_search,
        exact_budget=exact_budget,
        index=index,
    )
    cells: Dict[Tuple[TupleId, str], object] = {}
    relabelled: Dict[FreshValue, FreshValue] = {}
    for tid, attr in result.update.changed_cells(table):
        value = result.update.value(tid, attr)
        if isinstance(value, FreshValue):
            fresh = relabelled.get(value)
            if fresh is None:
                fresh = FreshValue(f"⊥c{ordinal}.{len(relabelled)}")
                relabelled[value] = fresh
            value = fresh
        cells[(tid, attr)] = value
    return cells, result.optimal, result.ratio_bound, result.method


def decomposed_u_repair(
    table: Table,
    fds: FDSet,
    allow_exact_search: bool = True,
    exact_budget: int = 50_000,
    parallel: Optional[int] = None,
    index=None,
):
    """U-repair via per-component dispatch of :func:`repro.core.urepair.u_repair`.

    Per-component optimal distances sum to at most the global optimum
    (the restriction of any consistent update to a component is a
    consistent update of its sub-table), so when every component reports
    ``optimal`` the merged update is optimal.  Updates that draw
    replacement values from the active domain can — rarely — collide
    across components (a changed cell coming to agree with a tuple of
    another component); the merge is therefore re-checked globally and
    falls back to the global dispatcher when a collision is detected,
    keeping the decomposed path unconditionally sound.
    """
    from .core.urepair import URepairResult, u_repair
    from .core.violations import satisfies

    normalised = fds.with_singleton_rhs().without_trivial()
    decomp = decompose(table, fds, index)
    if not decomp.components:
        return URepairResult(
            update=table,
            distance=0.0,
            optimal=True,
            ratio_bound=1.0,
            method="already consistent",
            component_count=0,
        )
    workers = resolve_workers(parallel, decomp.component_count)
    outcomes = None
    if workers > 1:
        # Real values, not codes: replacement values come from the
        # active domain.
        tasks = [
            (c.ids, U_TASK, (c.ordinal, allow_exact_search, exact_budget))
            for c in decomp.components
        ]
        pool = PersistentWorkerPool(workers)
        try:
            solved = _executor_solve(
                pool, table.schema, fds,
                *_component_rows(decomp, coded=False), tasks,
                DEFAULT_NODE_LIMIT,
            )
        finally:
            pool.close()
        if solved is not None:
            outcomes = [outcome[:4] for outcome in solved]
    if outcomes is None:
        outcomes = [
            _solve_u_component(
                c.ordinal, c.table, fds, allow_exact_search, exact_budget,
                index=c.index,
            )
            for c in decomp.components
        ]
    update = decomp.merge_updates([cells for cells, _opt, _ratio, _m in outcomes])
    if not satisfies(update, normalised):
        fallback = u_repair(
            table,
            fds,
            allow_exact_search=allow_exact_search,
            exact_budget=exact_budget,
            index=decomp.index,
        )
        return URepairResult(
            update=fallback.update,
            distance=fallback.distance,
            optimal=fallback.optimal,
            ratio_bound=fallback.ratio_bound,
            method=f"global fallback (cross-component collision): {fallback.method}",
            component_count=decomp.component_count,
        )
    optimal = all(opt for _c, opt, _r, _m in outcomes)
    ratio = max((r for _c, _opt, r, _m in outcomes), default=1.0)
    counts = _method_mix([m for _c, _opt, _r, m in outcomes])
    label = (
        f"decomposed[{decomp.component_count} components"
        + (f", parallel={workers}" if workers > 1 else "")
        + "]: "
        + "; ".join(f"{m} ×{n}" if n > 1 else m for m, n in sorted(counts.items()))
    )
    return URepairResult(
        update=update,
        distance=table.dist_upd(update),
        optimal=optimal,
        ratio_bound=1.0 if optimal else ratio,
        method=label,
        method_counts=counts,
        component_count=decomp.component_count,
    )
