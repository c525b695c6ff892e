"""Weighted vertex cover: exact branch & bound and approximations.

The paper reduces optimal S-repairs to minimum-weight vertex cover of the
conflict graph (Proposition 3.3):

* :func:`bar_yehuda_even` — the linear-time local-ratio 2-approximation of
  Bar-Yehuda and Even [7], which gives the paper's 2-optimal S-repair.
* :func:`exact_min_weight_vertex_cover` — a branch & bound solver used as
  the exact baseline throughout the test suite and benchmarks.  It applies
  degree-0/degree-1 eliminations, branches on a maximum-degree vertex
  ("take v" vs "take all neighbours of v"), and prunes with a greedy
  matching lower bound (for each matched edge, any cover pays at least
  ``min(w_u, w_v)``).
* :func:`greedy_vertex_cover` — a weight/degree greedy baseline with no
  guarantee, included for benchmark comparisons.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .graph import Graph, Node

__all__ = [
    "ExactBudgetExceeded",
    "bar_yehuda_even",
    "greedy_vertex_cover",
    "exact_min_weight_vertex_cover",
    "maximalize_independent_set",
]


class ExactBudgetExceeded(Exception):
    """An exact vertex-cover search ran past its wall-clock budget.

    Raised by :func:`exact_min_weight_vertex_cover` and the bitset mirror
    in :mod:`repro.core.kernel` when ``budget_s`` expires mid-search.
    Callers treat it as "this component is too hard for exact solving
    right now" and fall back to the polynomial bounds — the portfolio's
    escape hatch for pathological dense components above the old 64-tuple
    threshold.
    """


#: Search-tree entries between two deadline reads: ``time.monotonic`` is
#: ~100× the cost of the counter decrement, so budget enforcement stays
#: invisible on budget-free solves and ~millisecond-accurate otherwise.
_BUDGET_CHECK_INTERVAL = 256


def bar_yehuda_even(graph: Graph) -> Set[Node]:
    """2-approximate minimum-weight vertex cover (local-ratio).

    Walk the edges once; on each edge, pay the smaller residual weight of
    its endpoints on both endpoints.  Vertices whose residual hits zero
    enter the cover.  The cover weight is at most twice the optimum.

    A kernel-backed :class:`~repro.core.conflict_index.ConflictIndex`
    answers from its flat-array fast path (identical edge order and
    arithmetic, hence an identical cover); everything else runs the
    dict reference loop below.
    """
    kernel_bye = getattr(graph, "kernel_bye_cover", None)
    if kernel_bye is not None:
        cover = kernel_bye()
        if cover is not None:
            return cover
    residual: Dict[Node, float] = {v: graph.weight(v) for v in graph.nodes()}
    cover: Set[Node] = set()
    for u, v in graph.edges():
        if u in cover or v in cover:
            continue
        pay = min(residual[u], residual[v])
        residual[u] -= pay
        residual[v] -= pay
        if residual[u] <= 0:
            cover.add(u)
        if residual[v] <= 0:
            cover.add(v)
    return cover


def greedy_vertex_cover(graph: Graph) -> Set[Node]:
    """Greedy baseline: repeatedly take the vertex minimising weight/degree.

    No approximation guarantee (classic greedy can be off by Θ(log n)); it
    exists as a comparison point in the benchmarks.
    """
    g = graph.copy()
    cover: Set[Node] = set()
    while g.num_edges() > 0:
        best = min(
            (v for v in g.nodes() if g.degree(v) > 0),
            key=lambda v: (g.weight(v) / g.degree(v), str(v)),
        )
        cover.add(best)
        g.remove_node(best)
    return cover


def maximalize_independent_set(graph: Graph, independent: Set[Node]) -> Set[Node]:
    """Grow an independent set to a maximal one (greedy, heaviest first).

    Complementing a vertex cover yields an independent set that may not be
    maximal; adding free vertices only shrinks the corresponding repair
    distance, and maximality is what makes the result a *repair* in the
    local-minimum sense of Section 2.3.

    A kernel-backed :class:`~repro.core.conflict_index.ConflictIndex`
    answers from its flat-array fast path (same candidate order, same
    blocking test, hence the identical maximal set); everything else runs
    the dict reference loop below.
    """
    kernel_mis = getattr(graph, "kernel_maximalize", None)
    if kernel_mis is not None:
        result = kernel_mis(independent)
        if result is not None:
            return result
    result = set(independent)
    candidates = sorted(
        (v for v in graph.nodes() if v not in result),
        key=lambda v: (-graph.weight(v), str(v)),
    )
    for v in candidates:
        if not (graph.neighbors(v) & result):
            result.add(v)
    return result


def _matching_lower_bound(g: Graph) -> float:
    """Greedy maximal matching bound: Σ min(w_u, w_v) over matched edges."""
    matched: Set[Node] = set()
    bound = 0.0
    for u, v in g.edges():
        if u in matched or v in matched:
            continue
        matched.add(u)
        matched.add(v)
        bound += min(g.weight(u), g.weight(v))
    return bound


def exact_min_weight_vertex_cover(
    graph: Graph, node_limit: int = 2000, budget_s: Optional[float] = None
) -> Set[Node]:
    """Exact minimum-weight vertex cover via branch & bound.

    Suitable for the instance sizes used in tests and benchmarks (up to a
    few hundred nodes on sparse conflict graphs).  Raises ``ValueError``
    beyond *node_limit* nodes as a guard against accidental huge inputs.
    With *budget_s* set, :class:`ExactBudgetExceeded` is raised once the
    search has run that many wall-clock seconds — the same escape hatch
    the bitset mirror honours, so graph-based and bitset solves respect
    budgets identically.
    """
    if len(graph) > node_limit:
        raise ValueError(
            f"exact vertex cover limited to {node_limit} nodes, got {len(graph)}"
        )

    best_cover: Set[Node] = set(bar_yehuda_even(graph))
    # Summations below happen in node (insertion) order, never in set
    # iteration order: float addition is order-sensitive in the last
    # ulp, and a hash-ordered sum could not be mirrored by the bitmask
    # kernel (repro.core.kernel), whose identical-cover property the
    # test suite pins.
    best_cost = graph.total_weight([v for v in graph.nodes() if v in best_cover])
    deadline = None if budget_s is None else time.monotonic() + budget_s
    ticks = _BUDGET_CHECK_INTERVAL

    def branch(g: Graph, chosen: Set[Node], cost: float) -> None:
        nonlocal best_cover, best_cost, ticks
        if deadline is not None:
            ticks -= 1
            if ticks <= 0:
                ticks = _BUDGET_CHECK_INTERVAL
                if time.monotonic() > deadline:
                    raise ExactBudgetExceeded(
                        f"exact vertex cover exceeded its {budget_s:g}s budget"
                    )
        # Simplifications: drop isolated vertices; resolve pendant edges.
        g = g.copy()
        changed = True
        while changed:
            changed = False
            for v in list(g.nodes()):
                deg = g.degree(v)
                if deg == 0:
                    g.remove_node(v)
                    changed = True
                elif deg == 1:
                    (u,) = g.neighbors(v)
                    # Pendant rule (weighted): when w_u ≤ w_v, any cover
                    # using v can swap it for u without increasing cost,
                    # so taking u is safe.  When w_v < w_u no local rule
                    # is sound (u may be needed for other edges anyway),
                    # so we leave the vertex to the branching step.
                    if g.weight(u) <= g.weight(v):
                        chosen = chosen | {u}
                        cost += g.weight(u)
                        g.remove_node(u)
                        changed = True
                        break
        if cost >= best_cost:
            return
        if g.num_edges() == 0:
            if cost < best_cost:
                best_cost = cost
                best_cover = set(chosen)
            return
        if cost + _matching_lower_bound(g) >= best_cost:
            return
        v = max(g.nodes(), key=lambda n: (g.degree(n), str(n)))
        neighbours = g.neighbors(v)
        # Branch 1: v in the cover.
        g1 = g.copy()
        g1.remove_node(v)
        branch(g1, chosen | {v}, cost + g.weight(v))
        # Branch 2: v not in the cover → all its neighbours are
        # (visited in node order; see the summation note above).
        g2 = g.copy()
        add_cost = 0.0
        for u in [n for n in g.nodes() if n in neighbours]:
            add_cost += g2.weight(u)
            g2.remove_node(u)
        g2.remove_node(v)
        branch(g2, chosen | neighbours, cost + add_cost)

    branch(graph, set(), 0.0)
    return best_cover
