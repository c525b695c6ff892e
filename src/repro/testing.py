"""Shared test/benchmark substrate: paper FD sets and data helpers.

Both ``tests/conftest.py`` and ``benchmarks/conftest.py`` re-export from
this module, and test modules import it directly (``from repro.testing
import random_small_table``).  Keeping the helpers inside the installable
package — rather than in a conftest — avoids the classic rootdir trap
where ``from conftest import …`` resolves to *whichever* conftest pytest
put on ``sys.path`` first (the seed suite imported ``benchmarks/conftest``
from inside ``tests/`` and failed collection).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Set

from .core.conflict_index import ConflictIndex, _FDBuckets
from .core.fd import FD, FDSet
from .core.table import Row, Table, TupleId

__all__ = [
    "DELTA_A_IFF_B_TO_C",
    "DELTA_SSN",
    "EXAMPLE_38",
    "ReferenceConflictIndex",
    "random_small_table",
    "print_table",
]


# FD sets referenced repeatedly in the paper -------------------------------

#: Example 3.1's ``Δ_{A↔B→C}``.
DELTA_A_IFF_B_TO_C = FDSet("A -> B; B -> A; B -> C")

#: Example 3.1's Δ1 over the ssn schema.
DELTA_SSN = FDSet(
    "ssn -> first; ssn -> last; first last -> ssn; ssn -> address; "
    "ssn office -> phone; ssn office -> fax"
)

#: Example 3.8's class representatives Δ1–Δ5.
EXAMPLE_38 = {
    1: FDSet("A -> B; C -> D"),
    2: FDSet("A -> C D; B -> C E"),
    3: FDSet("A -> B C; B -> D"),
    4: FDSet("A B -> C; A C -> B; B C -> A"),
    5: FDSet("A B -> C; C -> A D"),
}


def random_small_table(
    rng: random.Random,
    schema,
    size: int,
    domain: int = 3,
    weighted: bool = False,
) -> Table:
    """A small uniform-random table for cross-checking solvers."""
    rows = [
        tuple(f"v{rng.randrange(domain)}" for _ in schema) for _ in range(size)
    ]
    weights = (
        [float(rng.choice((1, 1, 2, 3))) for _ in range(size)]
        if weighted
        else None
    )
    return Table.from_rows(schema, rows, weights)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render a small fixed-width results table (paper-style)."""
    rows = [[str(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n== {title} ==")
    print(line)
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))


# The dict reference build ------------------------------------------------


class ReferenceConflictIndex(ConflictIndex):
    """A :class:`~repro.core.conflict_index.ConflictIndex` built by dict
    grouping, with every array fast path off.

    The semantic oracle of the columnar kernel: the per-FD buckets and
    the conflict adjacency come straight from ``Table.group_by`` hash
    grouping, no :class:`~repro.core.kernel.TableCodec` or
    :class:`~repro.core.kernel.ConflictKernel` is built, and
    :meth:`_mask_view` answers ``None`` — so BYE, greedy,
    maximalisation, components, the matching and LP bounds, and the
    exact cover all run their reference loops.  Projections and copies
    stay reference (they allocate ``type(self)``).  Pass one as
    ``index=`` to any entry point to run it on the reference paths.
    """

    __slots__ = ()

    def _build(self, table: Table) -> None:
        self._position: Dict[TupleId, int] = {
            tid: i for i, tid in enumerate(self._live)
        }
        self._adj: Dict[TupleId, Set[TupleId]] = {
            tid: set() for tid in self._live
        }
        self._lazy_bucket_table = None
        self._buckets: List[_FDBuckets] = []
        for fd, _lhs_pos, rhs_pos in self._fd_specs:
            self._buckets.append(self._build_fd_buckets(table, fd, rhs_pos))
        # Same invariant as the kernel build: adjacency keys are exactly
        # the conflicting tuples.
        self._adj = {tid: nbrs for tid, nbrs in self._adj.items() if nbrs}

    def _build_fd_buckets(
        self, table: Table, fd: FD, rhs_pos: List[int]
    ) -> _FDBuckets:
        """Bucket every tuple by (lhs, rhs) projection and materialise the
        conflict edges this FD contributes.

        *rhs_pos* holds the positions of the (canonically sorted) rhs
        attributes, resolved once per FD: projecting via raw row indexing
        keeps the build O(|T|·k) with no per-tuple attribute lookups.
        """
        buckets = _FDBuckets(fd)
        adj = self._adj
        rows = table._rows
        for lhs_key, ids in table.group_by(fd.lhs).items():
            if len(ids) == 1:
                tid = ids[0]
                row = rows[tid]
                buckets.add(tid, lhs_key, tuple(row[i] for i in rhs_pos))
                continue
            group: Dict[Row, List[TupleId]] = {}
            for tid in ids:
                row = rows[tid]
                rhs_key = tuple(row[i] for i in rhs_pos)
                buckets.add(tid, lhs_key, rhs_key)
                group.setdefault(rhs_key, []).append(tid)
            if len(group) < 2:
                continue
            parts = list(group.values())
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    for t1 in parts[i]:
                        adj_t1 = adj[t1]
                        for t2 in parts[j]:
                            if t2 not in adj_t1:
                                adj_t1.add(t2)
                                adj[t2].add(t1)
                                self._num_edges += 1
        return buckets

    def _mask_view(self) -> None:
        return None
