"""Incrementally-maintained conflict substrate for FD repairs.

Every repair path in this library reduces to repeated violation detection
over a shrinking table: greedy vertex cover deletes one tuple at a time,
``OptSRepair`` recurses over sub-tables, the 2-approximation and the
assessment pipeline both need the full conflict graph.  The seed
implementation rebuilt the lhs/rhs hash groupings from scratch on every
call; this module materialises them once per ``(table, Δ)`` and keeps
them **live** under tuple removal.

A :class:`ConflictIndex` holds, per (nontrivial) FD ``X → Y``:

* a two-level bucket index ``lhs-key → rhs-key → {tuple ids}`` — the
  same hash grouping :func:`repro.core.violations.violating_pairs_of_fd`
  streams over, made persistent;
* the reverse map ``tuple id → (lhs-key, rhs-key)`` enabling O(1) bucket
  eviction;

plus the *conflict graph*, built once as the flat CSR arrays of a
:class:`~repro.core.kernel.ConflictKernel`, with an adjacency map
derived from them on first use and degree and weight bookkeeping.
Adjacency is stored for conflicting tuples only: a conflict-free tuple
belongs to every optimal S-repair, so no solver reads its (empty)
neighbourhood, and on realistic dirtiness the conflicting tuples are a
few percent of the table.  :meth:`remove` evicts one tuple in
O(degree + |Δ|) — the affected buckets only —
instead of an O(|T|·|Δ|) rebuild, which is what makes index-driven
greedy deletion loops linear instead of quadratic.  :meth:`insert` is
the symmetric counterpart: a new tuple joins its lhs buckets and gains
exactly the conflict edges its rhs disagreement implies, in
O(lhs-group size + |Δ|) — the substrate of the streaming
:class:`repro.session.RepairSession`, which re-repairs only the
components a tuple delta touches.

The index quacks like :class:`repro.graphs.graph.Graph` for the read
access :func:`~repro.graphs.vertex_cover.bar_yehuda_even` and
:func:`~repro.graphs.vertex_cover.maximalize_independent_set` need
(``nodes`` / ``edges`` / ``weight`` / ``neighbors``), so those two
consume a live index directly.  The mutating algorithms
(:func:`~repro.graphs.vertex_cover.exact_min_weight_vertex_cover`,
:func:`~repro.graphs.vertex_cover.greedy_vertex_cover`) need a real
``Graph`` — materialise one with :meth:`graph`.

Instances cached on a table (via :meth:`repro.core.table.Table.conflict_index`)
are pristine and shared; call :meth:`copy` before mutating.
"""

from __future__ import annotations

import weakref
from itertools import compress
from operator import gt
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graphs.graph import Graph
from . import kernel as _kernel
from .fd import FD, FDSet
from .table import Row, Table, TupleId, Value

__all__ = ["ConflictIndex"]

#: The neighbourhood of every conflict-free live tuple (no adjacency entry).
_NO_NEIGHBORS: AbstractSet[TupleId] = frozenset()


class _FDBuckets:
    """The live two-level hash grouping of one FD over the current tuples."""

    __slots__ = ("fd", "groups", "keys")

    def __init__(self, fd: FD) -> None:
        self.fd = fd
        # lhs-key → rhs-key → set of live tuple ids
        self.groups: Dict[Row, Dict[Row, Set[TupleId]]] = {}
        # tuple id → (lhs-key, rhs-key), for O(1) eviction
        self.keys: Dict[TupleId, Tuple[Row, Row]] = {}

    def add(self, tid: TupleId, lhs_key: Row, rhs_key: Row) -> None:
        group = self.groups.get(lhs_key)
        if group is None:
            group = self.groups[lhs_key] = {}
        bucket = group.get(rhs_key)
        if bucket is None:
            bucket = group[rhs_key] = set()
        bucket.add(tid)
        self.keys[tid] = (lhs_key, rhs_key)

    def discard(self, tid: TupleId) -> None:
        keys = self.keys.pop(tid, None)
        if keys is None:
            return
        lhs_key, rhs_key = keys
        group = self.groups[lhs_key]
        bucket = group[rhs_key]
        bucket.remove(tid)
        if not bucket:
            del group[rhs_key]
            if not group:
                del self.groups[lhs_key]

    def copy(self) -> "_FDBuckets":
        dup = _FDBuckets(self.fd)
        dup.groups = {
            lhs_key: {rhs_key: set(bucket) for rhs_key, bucket in group.items()}
            for lhs_key, group in self.groups.items()
        }
        dup.keys = dict(self.keys)
        return dup


class ConflictIndex:
    """Per-FD bucket indexes + the materialised conflict graph of a table.

    The graph keeps adjacency for conflicting tuples only: once built,
    the keys of ``_adj`` are exactly the live tuples with at least one
    conflict, on every build (kernel or reference), projection, copy and
    mutation.  Conflict-free live tuples are tracked by the live-weight
    map alone.

    The dict adjacency is built on demand.  It is unbuilt (``None``) in
    exactly two pristine states: a never-mutated kernel build, whose CSR
    arrays are the live graph, and a pristine projection of one, whose
    mask view was seeded from the parent's CSR slices.  The array and
    mask fast paths and the bounds answer from those without it, as do
    :meth:`components`, :meth:`consistent_ids` and
    :meth:`conflicting_tuples` on a kernel build; the first
    tuple-id reader (:meth:`neighbors`, :meth:`edges`, :meth:`copy`, …)
    or the first :meth:`insert`/:meth:`remove` derives it
    (:meth:`_adjacency`), and mutations maintain it from then on.

    Parameters
    ----------
    table:
        The table to index.  The index snapshots the table's tuples at
        construction; subsequent :meth:`remove` calls shrink the *index*
        only (tables themselves are immutable).
    fds:
        The FD set Δ.  Trivial FDs are skipped (they cannot be violated).
    """

    __slots__ = (
        "fds",
        "_source",
        "_buckets",
        "_live",
        "_position",
        "_adj",
        "_num_edges",
        "_removed_weight",
        "_fd_specs",
        "_arity",
        "_next_position",
        "_position_shared",
        "_lazy_bucket_table",
        "_codec",
        "_kernel",
        "_mask_cache",
    )

    def __init__(self, table: Table, fds: FDSet) -> None:
        self.fds = fds
        self._source: "weakref.ref[Table]" = weakref.ref(table)
        self._live: Dict[TupleId, float] = dict(table._weights)
        self._next_position = len(self._live)
        self._position_shared = False
        self._num_edges = 0
        self._removed_weight = 0.0
        self._arity = len(table.schema)
        # Per nontrivial FD: (fd, sorted-lhs positions, sorted-rhs
        # positions).  Immutable and shared by copies/projections; the
        # position lists are what :meth:`insert` and the lazy projection
        # rebuild key rows with, without needing the source table's
        # attribute map.
        self._fd_specs: List[Tuple[FD, List[int], List[int]]] = [
            (
                fd,
                [table._index[a] for a in sorted(fd.lhs)],
                [table._index[a] for a in sorted(fd.rhs)],
            )
            for fd in fds
            if not fd.is_trivial
        ]
        self._codec: Optional[_kernel.TableCodec] = None
        self._kernel: Optional[_kernel.ConflictKernel] = None
        self._mask_cache: Optional[Tuple[List[TupleId], List[float], List[int]]] = None
        # _build sets _position (tuple id → table position) and leaves
        # _adj unbuilt; once derived it is keyed by the live conflicting
        # tuples only (maintained under insert/remove) so components()
        # costs O(conflicting) instead of O(|T|): on realistic dirtiness
        # (a few % of tuples conflicting) that is the difference between
        # re-decomposing per streaming delta and scanning the whole table
        # each time.
        self._build(table)

    def _build(self, table: Table) -> None:
        """The columnar build: intern columns once, group by combined
        integer keys, and materialise the conflict graph from the flat
        edge arrays.

        Produces the same live/adjacency/edge-count state as the dict
        build of :class:`repro.testing.ReferenceConflictIndex` (the
        kernel grouping is grouping by value equality, which is all the
        dict build observes).  The dict adjacency is not built here:
        :meth:`_adjacency` derives it from the CSR slices of the
        conflicting rows the first time a tuple-id reader or a mutation
        needs it, and the batch repair path never does.  The position
        map *is* the codec's ``row_index`` — both number rows in table
        order, so a second tuple → position dict would duplicate it.
        The per-FD buckets are left lazy — most consumers (the
        vertex-cover solvers, decomposition) never read them, and
        :meth:`_ensure_buckets` reconstructs them exactly when
        :meth:`insert` or :meth:`violating_pairs` does.
        """
        codec = _kernel.TableCodec.encode(table)
        kern = _kernel.ConflictKernel(
            codec, _kernel.build_conflict_edges(codec, self._fd_specs)
        )
        self._adj = None  # derived from the CSR on first use
        self._position: Dict[TupleId, int] = codec.row_index
        self._num_edges = kern.num_edges
        self._codec = codec
        self._kernel = kern
        # Lazy buckets, rebuilt on first use from the *codec* (which
        # holds every value) — deliberately NOT a strong table ref: the
        # index lives in table._cache, so holding the table here would
        # cycle table → cache → index → table and defeat the module's
        # weakref design.
        self._buckets = None
        self._lazy_bucket_table = None

    def ensure_for(self, fds: FDSet, table: Optional[Table] = None) -> "ConflictIndex":
        """Guard for entry points accepting a prebuilt index: raise if
        this index was built for a different FD set, or — when *table*
        is given — from a different table object (either mismatch means
        a silently-wrong repair; both are easy to hit when batching
        several Δ or tables).  FD-set comparison is order-insensitive;
        the table check is by identity against the construction-time
        source (held weakly), so equal-content copies are rejected too —
        rebuild or re-fetch the index via ``table.conflict_index(fds)``
        in that case.
        """
        if fds != self.fds:
            raise ValueError(
                f"ConflictIndex was built for {self.fds}, not {fds}"
            )
        if table is not None and self._source() is not table:
            raise ValueError(
                "ConflictIndex was built from a different table than the "
                "one passed alongside it"
            )
        return self

    # ------------------------------------------------------------------
    # Read access (Graph-compatible where it matters)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, tid: TupleId) -> bool:
        return tid in self._live

    def ids(self) -> Tuple[TupleId, ...]:
        """Live tuple identifiers, in table order."""
        return tuple(self._live)

    # Graph-compatible alias, so vertex-cover algorithms accept an index.
    nodes = ids

    def weight(self, tid: TupleId) -> float:
        return self._live[tid]

    def total_weight(self, ids: Optional[Iterable[TupleId]] = None) -> float:
        """Total weight of the live tuples (or of the given subset)."""
        if ids is None:
            return sum(self._live.values())
        live = self._live
        return sum(live[tid] for tid in ids)

    @property
    def removed_weight(self) -> float:
        """Total weight of the tuples removed so far."""
        return self._removed_weight

    def degree(self, tid: TupleId) -> int:
        return len(self.neighbors(tid))

    def neighbors(self, tid: TupleId) -> AbstractSet[TupleId]:
        """The live conflict partners of *tid* (read-only view).

        A conflict-free live tuple has no adjacency entry and answers a
        shared empty ``frozenset``; an unknown or removed id raises
        ``KeyError``.
        """
        nbrs = self._adjacency().get(tid)
        if nbrs is not None:
            return nbrs
        if tid not in self._live:
            raise KeyError(tid)
        return _NO_NEIGHBORS

    def _adjacency(self) -> Dict[TupleId, Set[TupleId]]:
        """The dict-of-sets adjacency, derived on first use.

        Unbuilt only in the two pristine states (see the class
        docstring): a never-mutated kernel build derives it from its CSR
        slices, a pristine projection from its seeded mask view.  From
        then on it is maintained incrementally by :meth:`insert` and
        :meth:`remove`, which call here before they mutate anything.
        """
        adj = self._adj
        if adj is None:
            kern = self._kernel
            if kern is not None:
                ids = kern.codec.ids
                indptr = kern.indptr
                indices = kern.indices
                adj = {
                    ids[r]: set(
                        map(ids.__getitem__, indices[indptr[r]:indptr[r + 1]])
                    )
                    for r in kern.conflicting_rows
                }
            else:
                members, _weights, masks = self._mask_cache
                adj = {
                    members[i]: set(
                        map(members.__getitem__, _kernel._bits_ascending(mask))
                    )
                    for i, mask in enumerate(masks)
                    if mask
                }
            self._adj = adj
        return adj

    @property
    def num_edges(self) -> int:
        return self._num_edges

    conflict_count = num_edges

    def is_consistent(self) -> bool:
        """True iff no violating pair survives among the live tuples."""
        return self._num_edges == 0

    def conflicting_tuples(self) -> List[TupleId]:
        """Live tuples involved in at least one conflict, in table order."""
        kern = self._kernel_view()
        if kern is not None and not kern.patched:
            return list(map(kern.codec.ids.__getitem__, kern.conflicting_rows))
        return sorted(self._adjacency(), key=self._position.__getitem__)

    def edges(self) -> List[Tuple[TupleId, TupleId]]:
        """Each conflict pair exactly once, in canonical table-position
        order (both across and within source tuples).

        The canonical order makes every order-sensitive consumer (greedy
        matching, the Bar-Yehuda–Even sweep) produce identical results on
        a live index and on a from-scratch rebuild of the same survivors
        — adjacency *sets* iterate differently depending on their
        insertion/removal history, and a tuple gaining its first edge
        joins the adjacency map out of table order.
        """
        position = self._position
        adj = self._adjacency()
        out: List[Tuple[TupleId, TupleId]] = []
        for tid in sorted(adj, key=position.__getitem__):
            nbrs = adj[tid]
            p = position[tid]
            forward = [other for other in nbrs if position[other] > p]
            if forward:
                forward.sort(key=position.__getitem__)
                out.extend((tid, other) for other in forward)
        return out

    conflicting_ids = edges

    def _ensure_buckets(self) -> List[_FDBuckets]:
        """Materialise the per-FD buckets of a lazily-projected index.

        :meth:`project` defers bucket construction: component indexes
        produced during decomposition are consumed adjacency-only by the
        vertex-cover solvers (and, in a streaming session, cache-hit
        components are never solved at all), so re-deriving their buckets
        eagerly would be pure waste.  The keys are pure row projections,
        so rebuilding them here from the strongly-held sub-table and the
        shared per-FD position lists is exact — removals that happened
        while lazy need no replay, because only live tuples are bucketed.
        """
        buckets_list = self._buckets
        if buckets_list is None:
            rows = self._lazy_bucket_rows()
            buckets_list = []
            for fd, lhs_pos, rhs_pos in self._fd_specs:
                buckets = _FDBuckets(fd)
                for tid in self._live:
                    row = rows[tid]
                    buckets.add(
                        tid,
                        tuple(row[i] for i in lhs_pos),
                        tuple(row[i] for i in rhs_pos),
                    )
                buckets_list.append(buckets)
            self._buckets = buckets_list
            self._lazy_bucket_table = None
        return buckets_list

    def _lazy_bucket_rows(self) -> Dict[TupleId, Row]:
        """The live rows a deferred bucket rebuild reads from.

        Projections hold their sub-table strongly
        (``_lazy_bucket_table``); a kernel-built full index decodes from
        its codec instead (same value objects, no table → index → table
        cycle); last resort is the construction-time weakref — alive in
        every supported flow, since whoever triggers a rebuild (insert,
        violating_pairs) reached the index through the table.
        """
        table = self._lazy_bucket_table
        if table is not None:
            return table._rows
        codec = self._codec
        if codec is not None:
            row_index = codec.row_index
            decode = codec.decode_row
            return {tid: decode(row_index[tid]) for tid in self._live}
        table = self._source()
        if table is None:
            raise RuntimeError(
                "deferred bucket rebuild needs the source table, which "
                "has been garbage-collected"
            )
        return table._rows

    def violating_pairs(self) -> Iterator[Tuple[TupleId, TupleId, FD]]:
        """Yield ``(t1, t2, fd)`` per violated FD from the live buckets.

        Like :func:`repro.core.violations.violating_pairs` but served from
        the materialised buckets; a pair violating several FDs is yielded
        once per FD.
        """
        for buckets in self._ensure_buckets():
            for group in buckets.groups.values():
                if len(group) < 2:
                    continue
                parts = list(group.values())
                for i in range(len(parts)):
                    for j in range(i + 1, len(parts)):
                        for t1 in parts[i]:
                            for t2 in parts[j]:
                                yield t1, t2, buckets.fd

    # ------------------------------------------------------------------
    # Connected components (the decomposition substrate)
    # ------------------------------------------------------------------
    def _kernel_view(self) -> Optional[_kernel.ConflictKernel]:
        """The live kernel view, sync-checked — or ``None`` (dict paths).

        The O(1) guard against the stale-snapshot hazard: every
        :meth:`insert`/:meth:`remove` patches the view's live-row count
        in lockstep with ``_live``, so a mutation that bypassed the
        patch hooks (the bug class this defends against — it would
        silently serve pre-mutation adjacency) trips the comparison and
        fails loudly instead.
        """
        kern = self._kernel
        if kern is not None and kern.live_count != len(self._live):
            raise RuntimeError(
                f"ConflictKernel view out of sync with the live index "
                f"({kern.live_count} kernel rows vs {len(self._live)} live "
                f"tuples): a mutation bypassed insert()/remove()"
            )
        return kern

    def components(self) -> List[List[TupleId]]:
        """Connected components of the live conflict graph, restricted to
        tuples with at least one conflict.

        Deterministic: components are listed by the table position of
        their earliest member, and members within a component are in
        table order.  Conflict-free tuples never appear — they belong to
        every repair verbatim (see :meth:`consistent_ids`).

        A pristine kernel-built index answers from the CSR arrays (row
        index *is* table position, so ascending row order is table order
        and the listing is identical).  A **patched** view stays
        array-native too:
        :func:`~repro.core.kernel.components_csr_patched` walks the CSR
        slices merged with the overflow adjacency under byte-flag
        alive/seen filters, rooted at the index's live conflicting rows
        (construction-time roots are stale after mutations, which is why
        :func:`~repro.core.kernel.components_csr` refuses patched views
        outright).  The dict sweep below serves the kernel-less indexes
        (projections, copies, and the test-only reference index).
        """
        kern = self._kernel_view()
        if kern is not None:
            ids = kern.codec.ids
            if not kern.patched:
                row_components = _kernel.components_csr(kern)
            else:
                row_index = kern.codec.row_index
                roots = sorted(row_index[tid] for tid in self._adjacency())
                row_components = _kernel.components_csr_patched(kern, roots)
            return [
                [ids[i] for i in members] for members in row_components
            ]
        position = self._position
        adj = self._adjacency()
        seen: Set[TupleId] = set()
        out: List[List[TupleId]] = []
        # Roots visited in table (position) order yield components listed
        # by earliest member, identically to a full-table scan — but the
        # sweep only ever touches conflicting tuples.  The frontier step
        # is C-level set arithmetic (adj[v] - seen) rather than a
        # per-neighbour membership loop; traversal order becomes
        # arbitrary, which the final member sort erases.
        for tid in sorted(adj, key=position.__getitem__):
            if tid in seen:
                continue
            stack = [tid]
            seen.add(tid)
            members: List[TupleId] = []
            while stack:
                current = stack.pop()
                members.append(current)
                fresh = adj[current] - seen
                if fresh:
                    seen |= fresh
                    stack.extend(fresh)
            members.sort(key=position.__getitem__)
            out.append(members)
        return out

    def consistent_ids(self) -> List[TupleId]:
        """Live tuples with no conflict, in table order — the tuples every
        S-repair keeps and every U-repair leaves untouched: exactly the
        live tuples without an adjacency entry.  A kernel-built index
        reads them off its live degrees at C speed (row order is table
        order; alive > degree holds exactly for a live row of degree 0).
        """
        kern = self._kernel_view()
        if kern is not None:
            return list(compress(kern.codec.ids, map(gt, kern.alive, kern.degree)))
        adj = self._adjacency()
        return [tid for tid in self._live if tid not in adj]

    def project(self, subtable: Table, ids: Set[TupleId]) -> "ConflictIndex":
        """The restriction of this index to *ids*, re-anchored on
        *subtable* (which must contain exactly those tuples).

        Intended for connected components, where the projection is exact:
        adjacency is closed under the component, and every surviving
        bucket entry is simply filtered.  The projected index is seeded
        into *subtable*'s derived cache, so per-component solvers calling
        ``subtable.conflict_index(fds)`` reuse it instead of re-bucketing
        — this is what makes decomposition O(conflicting tuples) on top
        of the one shared parent build.

        Bucket projection is **lazy**: the vertex-cover solvers consume a
        component index adjacency-only, and a streaming session's
        cache-hit components are never solved at all, so the per-FD
        buckets are rebuilt from the (strongly held) sub-table's rows
        only if something actually reads or mutates them
        (:meth:`_ensure_buckets`).  Adjacency is lazy too: a projection
        of a pristine kernel build (at most
        :data:`~repro.core.kernel.MAX_BITMASK_VERTICES` tuples) gets its
        mask view from the parent's CSR slices — what the solvers read —
        and derives its dict adjacency from the masks only if asked.
        Projection therefore costs one pass over the members' edges.
        """
        dup = object.__new__(type(self))
        dup.fds = self.fds
        dup._source = weakref.ref(subtable)
        live = self._live
        dup._live = {tid: live[tid] for tid in subtable.ids()}
        # Relative table order is preserved by subsetting, so sharing the
        # parent's position map keeps edges() canonical and cheap.
        dup._position = self._position
        dup._position_shared = True
        self._position_shared = True
        dup._next_position = self._next_position
        dup._removed_weight = 0.0
        dup._arity = self._arity
        dup._fd_specs = self._fd_specs
        # The parent's CSR arrays and codec are row-indexed against the
        # *parent* snapshot and are not projected.  While they still
        # describe the live graph (no mutation since the last CSR
        # build), a mask-sized projection seeds its mask view straight
        # from the members' CSR slices and leaves its dict adjacency
        # unbuilt; otherwise the parent adjacency is filtered.
        dup._codec = None
        dup._kernel = None
        dup._mask_cache = None
        kern = self._kernel_view()
        if (
            kern is not None
            and not kern.patched
            and len(dup._live) <= _kernel.MAX_BITMASK_VERTICES
        ):
            members = list(dup._live)
            masks = _kernel.csr_masks(kern, members)
            dup._mask_cache = (members, list(dup._live.values()), masks)
            dup._adj = None
            dup._num_edges = sum(map(int.bit_count, masks)) // 2
        else:
            num_edges = 0
            adj: Dict[TupleId, Set[TupleId]] = {}
            parent_adj = self._adjacency()
            for tid in dup._live:
                nbrs = parent_adj.get(tid, _NO_NEIGHBORS) & ids
                if nbrs:
                    adj[tid] = nbrs
                    num_edges += len(nbrs)
            dup._adj = adj
            dup._num_edges = num_edges // 2
        dup._buckets = None
        dup._lazy_bucket_table = subtable
        subtable._cache.setdefault(("conflict_index", self.fds), dup)
        return dup

    def graph(self) -> Graph:
        """Materialise the live conflict graph as a mutable ``Graph``
        (for consumers that destructively edit it, e.g. the exact
        vertex-cover branch & bound)."""
        g = Graph()
        for tid, weight in self._live.items():
            g.add_node(tid, weight=weight)
        for t1, t2 in self.edges():
            g.add_edge(t1, t2)
        return g

    def _mask_view(self) -> Optional[Tuple[List[TupleId], List[float], List[int]]]:
        """Members, weights, and neighbour bitmasks of a small live index.

        The bitmask view the kernel fast paths share: bit *i* is the
        *i*-th live tuple.  Live order is always ascending table
        position (removals preserve order, inserts append), so bit order
        matches the canonical ``edges()`` order.  Masks past 64 tuples
        are multi-word Python ints — still C-level word arrays — so the
        view serves every component up to
        :data:`~repro.core.kernel.MAX_BITMASK_VERTICES` tuples.  ``None``
        when the index is too large for masks to pay off.
        """
        if len(self._live) > _kernel.MAX_BITMASK_VERTICES:
            return None
        cached = self._mask_cache
        if cached is not None:
            return cached
        members = list(self._live)
        adjacency = self._adj
        if adjacency is None:
            # A never-mutated kernel build: the CSR is the live graph.
            masks = _kernel.csr_masks(self._kernel, members)
        else:
            position = {tid: i for i, tid in enumerate(members)}
            masks = [0] * len(members)
            for i, tid in enumerate(members):
                mask = 0
                for other in adjacency.get(tid, _NO_NEIGHBORS):
                    mask |= 1 << position[other]
                masks[i] = mask
        weights = [self._live[tid] for tid in members]
        view = (members, weights, masks)
        # Cached until the next mutation: assessment + exact solving of
        # one component would otherwise rebuild the same view three
        # times (BYE, matching bound, branch & bound).
        self._mask_cache = view
        return view

    def kernel_bye_cover(self) -> Optional[Set[TupleId]]:
        """Array fast path for :func:`~repro.graphs.vertex_cover.bar_yehuda_even`.

        A kernel-built index — pristine *or* incrementally patched —
        runs the local-ratio sweep over its flat CSR edge arrays (merged
        with the overflow adjacency after mutations); a small live index
        — the per-component case — over neighbour bitmasks.  All visit
        the edges in the same canonical order as the dict reference, so
        the cover is identical.  ``None`` means "no fast path; run the
        reference loop".
        """
        kern = self._kernel_view()
        if kern is not None:
            ids = kern.codec.ids
            return {ids[i] for i in _kernel.bye_cover_csr(kern)}
        view = self._mask_view()
        if view is None:
            return None
        members, weights, masks = view
        cover = _kernel.bye_cover_masks(weights, masks)
        out: Set[TupleId] = set()
        while cover:
            low = cover & -cover
            out.add(members[low.bit_length() - 1])
            cover ^= low
        return out

    def kernel_greedy_survivors(self) -> Optional[Set[TupleId]]:
        """Array fast path for the greedy deletion loop of
        :func:`repro.core.approx.greedy_s_repair`: run the lazy-heap
        weight/degree loop over the kernel view (or the mask view of a
        small live index) and return the surviving tuple ids.  ``None``
        means "no fast path; run the reference loop on an index copy".
        """
        kern = self._kernel_view()
        if kern is not None:
            ids = kern.codec.ids
            removed = _kernel.greedy_cover_csr(kern)
            # One C-level copy minus the (few) removed ids — never a
            # per-live-tuple membership loop.
            return set(self._live).difference(ids[r] for r in removed)
        view = self._mask_view()
        if view is None:
            return None
        members, weights, masks = view
        removed_mask = _kernel.greedy_cover_masks(
            weights, masks, [str(tid) for tid in members]
        )
        return {
            tid for i, tid in enumerate(members) if not (removed_mask >> i) & 1
        }

    def kernel_maximalize(self, independent: Set[TupleId]) -> Optional[Set[TupleId]]:
        """Array fast path for
        :func:`~repro.graphs.vertex_cover.maximalize_independent_set`
        (same candidate order and blocking test, hence the identical
        maximal set).  ``None`` means "no fast path; run the reference".
        """
        kern = self._kernel_view()
        if kern is not None:
            return _kernel.mis_maximalize_csr(kern, independent)
        view = self._mask_view()
        if view is None:
            return None
        members, weights, masks = view
        position = {tid: i for i, tid in enumerate(members)}
        mask = 0
        for tid in independent:
            mask |= 1 << position[tid]
        grown = _kernel.mis_maximalize_masks(
            weights, masks, [str(tid) for tid in members], mask
        )
        return {members[i] for i in _kernel._bits_ascending(grown)}

    def matching_lower_bound(self) -> float:
        """Admissible deletion-cost bound: greedy tuple-disjoint matching
        over the conflict edges, paying the lighter endpoint per pair.

        Delegates to the shared matching-bound implementation in
        :mod:`repro.graphs.vertex_cover`, which only needs the
        ``edges()``/``weight()`` interface this index provides; small
        kernel-backed indexes answer over neighbour bitmasks (same edge
        order, same arithmetic, same bound).
        """
        view = self._mask_view()
        if view is not None:
            _members, weights, masks = view
            full = (1 << len(weights)) - 1
            return _kernel._matching_lower_bound_masks(full, weights, masks)
        from ..graphs.vertex_cover import _matching_lower_bound

        return _matching_lower_bound(self)

    def lp_lower_bound(self) -> Optional[float]:
        """LP-relaxation lower bound on the deletion cost, or ``None``.

        The half-integral vertex-cover LP optimum over the live conflict
        graph (see :func:`~repro.core.kernel.lp_half_integral_bound`):
        always ≥ the matching bound and ≤ the exact optimum, so
        ``max(matching, LP)`` is a strictly tighter-or-equal bracket
        floor — strictly tighter exactly on components whose matching
        bound is not LP-optimal (odd cycles being the canonical case).

        ``None`` past :data:`~repro.core.kernel.LP_BOUND_MAX_VERTICES`
        live tuples, where the flow computation stops paying for itself
        — callers keep the matching bound.  Vertices are numbered by
        live (table) order on both the mask-view and dict arms, and the
        shared core sorts the edge list, so kernel-backed and reference
        indexes return the bit-identical float.
        """
        n = len(self._live)
        if n > _kernel.LP_BOUND_MAX_VERTICES:
            return None
        if self._num_edges == 0:
            return 0.0
        view = self._mask_view()
        if view is not None:
            _members, weights, masks = view
            edge_list = []
            for i, mask in enumerate(masks):
                forward = (mask >> (i + 1)) << (i + 1)
                while forward:
                    low = forward & -forward
                    forward ^= low
                    edge_list.append((i, low.bit_length() - 1))
            return _kernel.lp_half_integral_bound(weights, edge_list)
        members = list(self._live)
        rank = {tid: i for i, tid in enumerate(members)}
        weights = [self._live[tid] for tid in members]
        edge_list = [(rank[u], rank[v]) for u, v in self.edges()]
        return _kernel.lp_half_integral_bound(weights, edge_list)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def remove(self, tid: TupleId) -> None:
        """Evict *tid*, updating buckets and adjacency incrementally.

        O(degree(tid) + |Δ|): only the buckets and edges touching *tid*
        are visited — never the rest of the table.  A kernel view is
        patched in place (tombstone + live degree bookkeeping, see
        :meth:`~repro.core.kernel.ConflictKernel.apply_remove`) so the
        array fast paths survive the mutation; the cached mask view is
        per-state and rebuilds on demand.
        """
        adj = self._adjacency()  # derived while the pristine state lasts
        weight = self._live.pop(tid, None)
        if weight is None:
            raise KeyError(f"unknown or already-removed identifier {tid!r}")
        kern = self._kernel
        if kern is not None:
            kern.apply_remove(self._codec.row_index[tid])
        self._mask_cache = None
        self._removed_weight += weight
        nbrs = adj.pop(tid, _NO_NEIGHBORS)
        self._num_edges -= len(nbrs)
        for other in nbrs:
            other_nbrs = adj[other]
            other_nbrs.remove(tid)
            if not other_nbrs:
                del adj[other]
        if self._buckets is not None:
            for buckets in self._buckets:
                buckets.discard(tid)
        # While the buckets are still lazy there is nothing to maintain:
        # materialisation only ever buckets the tuples live at that time.
        if kern is not None and kern.should_compact():
            self.refresh_kernel()

    def remove_many(self, ids: Iterable[TupleId]) -> None:
        for tid in ids:
            self.remove(tid)

    def insert(
        self, tid: TupleId, row: Sequence[Value], weight: float = 1.0
    ) -> int:
        """Add a tuple, updating buckets and adjacency incrementally —
        the symmetric counterpart of :meth:`remove`.

        The new tuple joins, per FD, the bucket of its lhs/rhs projection
        and gains a conflict edge to every live tuple sharing its lhs key
        under a different rhs key (deduplicated across FDs, exactly as
        the from-scratch build does).  Cost: O(lhs-group size + |Δ|).

        The tuple is positioned *after* every tuple ever seen, matching a
        table that appends new rows at the end — so after any interleaving
        of inserts and removals the canonical :meth:`edges` order (and
        hence every order-sensitive consumer) agrees with a from-scratch
        rebuild on the corresponding table.  Returns the number of
        conflict edges the insertion created.
        """
        if tid in self._live:
            raise ValueError(f"identifier {tid!r} is already live")
        row = tuple(row)
        if len(row) != self._arity:
            raise ValueError(
                f"tuple {tid!r} has arity {len(row)}, index expects {self._arity}"
            )
        weight = float(weight)
        if weight <= 0:
            raise ValueError(f"tuple {tid!r} has non-positive weight {weight}")
        adj = self._adjacency()  # derived while the pristine state lasts
        buckets_list = self._ensure_buckets()
        self._mask_cache = None
        codec = self._codec
        if self._position_shared and tid in self._position:
            # Copy-on-write: the position map may be shared with the
            # pristine cached index, a projection's parent, or sibling
            # copies.  Appending an entry for a brand-new identifier is
            # safe (sharers only ever look up their own live tuples), but
            # *re-positioning* an identifier another holder may still
            # have live would corrupt its canonical edge order — so that
            # is the case that forces a private map.  A kernel-built
            # index's position map is its codec's row index, so the
            # codec moves to the private copy too, before append_row
            # writes the new row into it.
            self._position = dict(self._position)
            self._position_shared = False
            if codec is not None:
                codec.row_index = self._position
        if codec is not None:
            # Keep the codes live: the appended tuple interns its values
            # so coded shipping (worker pools) keeps working mid-stream.
            codec.append_row(tid, row, weight)
        self._live[tid] = weight
        self._position[tid] = self._next_position
        self._next_position += 1
        nbrs: Set[TupleId] = set()
        new_edges = 0
        for buckets, (_fd, lhs_pos, rhs_pos) in zip(buckets_list, self._fd_specs):
            lhs_key = tuple(row[i] for i in lhs_pos)
            rhs_key = tuple(row[i] for i in rhs_pos)
            group = buckets.groups.get(lhs_key)
            if group:
                for other_rhs, bucket in group.items():
                    if other_rhs != rhs_key:
                        for other in bucket:
                            if other not in nbrs:
                                nbrs.add(other)
                                other_nbrs = adj.get(other)
                                if other_nbrs is None:
                                    adj[other] = {tid}
                                else:
                                    other_nbrs.add(tid)
                                new_edges += 1
            buckets.add(tid, lhs_key, rhs_key)
        self._num_edges += new_edges
        if nbrs:
            adj[tid] = nbrs
        kern = self._kernel
        if kern is not None:
            # Patch the kernel view: the appended row grafts onto the
            # overflow adjacency with exactly the edges the bucket probe
            # above discovered (ascending row order = table order).
            row_index = self._codec.row_index
            kern.apply_insert(
                row_index[tid], sorted(row_index[other] for other in nbrs)
            )
            if kern.should_compact():
                self.refresh_kernel()
        return new_edges

    def insert_many(
        self, tuples: Iterable[Tuple[TupleId, Sequence[Value], float]]
    ) -> int:
        """Insert ``(tid, row, weight)`` triples; returns new edge count."""
        return sum(self.insert(tid, row, weight) for tid, row, weight in tuples)

    def reanchor(self, table: Table) -> "ConflictIndex":
        """Re-point this index at an equal-content *table* snapshot.

        The streaming session fast path: the session mutates one
        long-lived index via :meth:`insert`/:meth:`remove` while its
        table is re-snapshotted per delta (tables are immutable), so the
        construction-time source the :meth:`ensure_for` identity check
        pins is stale by design.  Re-anchoring is only sound when the
        snapshot holds exactly the live tuples — verified here in O(n)
        (C-level key-set comparison) before the weakref moves.
        """
        if table._rows.keys() != self._live.keys():
            raise ValueError(
                "reanchor target does not hold exactly the live tuples"
            )
        self._source = weakref.ref(table)
        return self

    def refresh_kernel(self) -> bool:
        """Rebuild the CSR view from the live adjacency (compaction).

        Folds accumulated tombstones and overflow adjacency back into
        plain flat arrays — O(live tuples + live edges).  Called
        automatically once churn passes
        :meth:`~repro.core.kernel.ConflictKernel.should_compact`; public
        because the streaming benchmarks use it as the
        snapshot-invalidate comparison arm (rebuild per delta instead of
        patch per delta).  Returns ``False`` when this index has no
        kernel to refresh (a projection or a copy).
        """
        codec = self._codec
        if codec is None:
            return False
        n = len(codec.ids)
        row_index = codec.row_index
        packed: List[int] = []
        append = packed.append
        for tid, nbrs in self._adjacency().items():
            u = row_index[tid]
            base = u * n
            for other in nbrs:
                v = row_index[other]
                if u < v:
                    append(base + v)
        packed.sort()
        self._kernel = _kernel.ConflictKernel(
            codec, packed, alive_rows=[row_index[tid] for tid in self._live]
        )
        return True

    def copy(self) -> "ConflictIndex":
        """An independent, mutable duplicate of the current live state."""
        dup = object.__new__(type(self))
        dup.fds = self.fds
        dup._source = self._source
        dup._live = dict(self._live)
        # Positions only ever grow; share until an insert re-positions
        # (copy-on-write, see :meth:`insert`).
        dup._position = self._position
        dup._position_shared = True
        self._position_shared = True
        dup._next_position = self._next_position
        dup._adj = {tid: set(nbrs) for tid, nbrs in self._adjacency().items()}
        dup._num_edges = self._num_edges
        dup._removed_weight = self._removed_weight
        dup._arity = self._arity
        dup._fd_specs = self._fd_specs
        # Neither the codec (mutable, extended by insert) nor the CSR
        # snapshot is shared with a mutable duplicate: a copy exists to
        # be mutated, and the mask view rebuilds from adjacency anyway.
        dup._codec = None
        dup._kernel = None
        dup._mask_cache = None
        dup._lazy_bucket_table = self._lazy_bucket_table
        dup._buckets = (
            [buckets.copy() for buckets in self._buckets]
            if self._buckets is not None
            else None
        )
        return dup

    def __repr__(self) -> str:
        return (
            f"ConflictIndex({len(self)} live tuples, "
            f"{self._num_edges} conflicts, {len(self._fd_specs)} FDs)"
        )
