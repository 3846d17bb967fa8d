"""Exact maximum-independent-set and chromatic-number search.

A maximum independent set is computed as a maximum clique of the complement
graph, by branch and bound with greedy-coloring upper bounds at every node
(candidate sets and color classes are Python integers, so the inner loops are
bit-parallel). The branching vertex is always the one in the highest color
class. Chromatic numbers are bracketed between max(clique bound, ceil(n/alpha))
and a DSATUR coloring, then closed with a complete k-colorability search that
forces the first occurrence of each new color.

DSATUR is written once, over bit masks, and serves both the greedy bound and
the k-colorability search: forb[c] holds the vertices with a neighbor of color
c, and bucket[s] the uncolored vertices with exactly s distinct neighbor
colors (their saturation). The next vertex is the lowest-index vertex of the
top non-empty bucket within the highest degree level that meets it; coloring
a vertex moves the neighbors that newly see its color up one bucket with one
mask operation per bucket, so neither selection nor propagation visits
vertices one by one.

Tie-breaking is everywhere by lowest vertex index, so runs are
bit-reproducible.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace

from .core import (
    Graph,
    VertexSet,
    connected_components,
    induced_subgraph,
    iter_bits,
    ratio_lower_bound,
)


@dataclass(frozen=True)
class SolveOptions:
    """Search limits shared by all solver entry points.

    Budgets default to unlimited; exceeding one yields an explicit incomplete
    or unknown result, never a silently wrong value. The node budget is
    enforced in small batches, so the actual node count may overshoot the
    limit by a few hundred nodes.
    """

    node_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError("negative node budget")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")


@dataclass(frozen=True)
class MisResult:
    """Exact independence number with an explicit witness."""

    alpha: int
    witness: VertexSet
    nodes_explored: int
    wall_time: float


@dataclass(frozen=True)
class MisIncomplete:
    """Budget ran out: best independent set found plus a certified upper bound."""

    lower_bound: int
    upper_bound: int
    witness: VertexSet
    nodes_explored: int
    wall_time: float


@dataclass(frozen=True)
class ColoringResult:
    """Exact chromatic number with a proper coloring, colors 1..chi."""

    chi: int
    coloring: tuple[int, ...]
    nodes_explored: int


@dataclass(frozen=True)
class ChiBracket:
    """Budget ran out: chi lies in [lower, upper]; coloring uses `upper` colors."""

    lower: int
    upper: int
    coloring: tuple[int, ...]
    nodes_explored: int


@dataclass(frozen=True)
class KColorOutcome:
    """Outcome of a k-colorability decision.

    status is "colorable" (with witness), "uncolorable" (search completed,
    no coloring exists), or "unknown" (budget exceeded before a decision).
    """

    status: str
    coloring: tuple[int, ...] | None
    nodes_explored: int


def check_independent_set(g: Graph, witness: VertexSet) -> bool:
    """Re-validate a claimed independent set straight off the adjacency rows."""
    if witness.n != g.n or witness.bits >> g.n:
        return False
    bits = witness.bits
    for v in iter_bits(bits):
        if g.adj[v] & bits:
            return False
    return True


def check_coloring(g: Graph, coloring: tuple[int, ...], k: int | None = None) -> bool:
    """Re-validate a claimed proper coloring; colors must lie in 1..k if given."""
    if len(coloring) != g.n:
        return False
    for v in range(g.n):
        c = coloring[v]
        if c < 1 or (k is not None and c > k):
            return False
        for w in iter_bits(g.adj[v]):
            if coloring[w] == c:
                return False
    return True


# ---------------------------------------------------------------------------
# Maximum clique kernel (bit-row branch and bound with coloring bounds)
# ---------------------------------------------------------------------------


class _Abort(Exception):
    """Stops a clique search; args[0] is the status, "budget" or "target"."""


class _Budget:
    """Node limit and deadline of one search.

    Searches count their own nodes and consult the budget every 256 nodes, so
    the node count may overshoot the limit by up to 256.
    """

    __slots__ = ("node_limit", "deadline")

    def __init__(self, options: SolveOptions):
        self.node_limit = options.node_budget
        self.deadline = None
        if options.time_budget is not None:
            self.deadline = time.monotonic() + options.time_budget

    def exceeded(self, nodes: int) -> bool:
        return ((self.node_limit is not None and nodes > self.node_limit)
                or (self.deadline is not None and time.monotonic() > self.deadline))


def _degeneracy_order(adj: list[int] | tuple[int, ...], n: int) -> list[int]:
    """Vertices in smallest-last removal order; ties broken by lowest index."""
    alive = (1 << n) - 1
    deg = [(adj[v]).bit_count() for v in range(n)]
    order = []
    for _ in range(n):
        best_v, best_d = -1, n + 1
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if deg[v] < best_d:
                best_d, best_v = deg[v], v
        order.append(best_v)
        alive ^= 1 << best_v
        row = adj[best_v] & alive
        while row:
            low = row & -row
            row ^= low
            deg[low.bit_length() - 1] -= 1
    return order


def _relabel(adj, n: int, order: list[int]) -> list[int]:
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out = [0] * n
    for v in range(n):
        row = adj[v]
        new_row = 0
        while row:
            low = row & -row
            row ^= low
            new_row |= 1 << pos[low.bit_length() - 1]
        out[pos[v]] = new_row
    return out


def _max_clique_masks(adj, n: int, *, initial_best: int = 0, stop_at: int | None = None,
                      options: SolveOptions) -> tuple[int, int, int, str, int]:
    """Maximum clique over bit rows `adj`.

    initial_best acts as a virtual incumbent: only cliques strictly larger are
    searched for, and the returned value equals initial_best when none exists.
    Returns (value, mask, nodes, status, coloring_upper_bound) with status one
    of "complete", "target", "budget"; the upper bound is the number of greedy
    color classes at the root.
    """
    if n == 0:
        return (0, 0, 0, "complete", 0)
    # branch depth is bounded by the clique size, which can reach n
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * n + 200))
    order = _degeneracy_order(adj, n)
    nbr = _relabel(adj, n, order)
    budget = _Budget(options)
    order_bufs: list[list[int]] = []
    color_bufs: list[list[int]] = []
    best, best_mask = initial_best, 0
    nodes = 0
    upper = 0

    def expand(depth: int, r_size: int, r_mask: int, pool: int) -> None:
        nonlocal nodes, best, best_mask, upper
        nodes += 1
        if nodes & 255 == 0 and budget.exceeded(nodes):
            raise _Abort("budget")
        if depth == len(order_bufs):
            order_bufs.append([0] * n)
            color_bufs.append([0] * n)
        ob = order_bufs[depth]
        cb = color_bufs[depth]
        # Greedy color classes over the candidate pool, lowest index first.
        m = 0
        rest = pool
        color = 0
        while rest:
            color += 1
            q = rest
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q = (q ^ low) & ~nbr[v]
                rest ^= low
                ob[m] = v
                cb[m] = color
                m += 1
        if depth == 0:
            upper = color
        # Branch highest color first; everything at or below the cut is pruned.
        for i in range(m - 1, -1, -1):
            if r_size + cb[i] <= best:
                return
            v = ob[i]
            low = 1 << v
            new_pool = pool & nbr[v]
            if new_pool:
                expand(depth + 1, r_size + 1, r_mask | low, new_pool)
            elif r_size + 1 > best:
                best, best_mask = r_size + 1, r_mask | low
                if stop_at is not None and best >= stop_at:
                    raise _Abort("target")
            pool ^= low

    status = "complete"
    try:
        expand(0, 0, 0, (1 << n) - 1)
    except _Abort as stop:
        status = stop.args[0]

    # Map the winning mask back to the caller's vertex labels.
    mask = 0
    rest = best_mask
    while rest:
        low = rest & -rest
        rest ^= low
        mask |= 1 << order[low.bit_length() - 1]
    return (best, mask, nodes, status, upper)


def _complement_rows(g: Graph) -> list[int]:
    full = g.full_mask
    return [full ^ g.adj[v] ^ (1 << v) for v in range(g.n)]


# ---------------------------------------------------------------------------
# Public solver entry points
# ---------------------------------------------------------------------------


def max_independent_set(g: Graph, options: SolveOptions | None = None) -> MisResult | MisIncomplete:
    """Exact alpha(g) with witness, as maximum clique of the complement."""
    opts = options or SolveOptions()
    t0 = time.perf_counter()
    if g.n == 0:
        return MisResult(0, VertexSet.empty(0), 0, time.perf_counter() - t0)
    value, mask, nodes, status, upper = _max_clique_masks(
        _complement_rows(g), g.n, options=opts)
    elapsed = time.perf_counter() - t0
    witness = VertexSet(g.n, mask)
    if status == "complete":
        return MisResult(value, witness, nodes, elapsed)
    return MisIncomplete(value, min(upper, g.n), witness, nodes, elapsed)


def alpha_vertex_transitive(g: Graph, pivot: int,
                            options: SolveOptions | None = None) -> MisResult | MisIncomplete:
    """alpha(g) for vertex-transitive g, via one level of pivot reduction.

    Valid only when the caller knows g is vertex-transitive: some maximum
    independent set then contains the pivot, so alpha(g) equals one plus the
    independence number of the subgraph induced on the pivot's non-neighbors.
    The reduced graph need not be vertex-transitive, so the reduction is never
    nested.
    """
    opts = options or SolveOptions()
    if not 0 <= pivot < g.n:
        raise ValueError(f"pivot {pivot} out of range")
    t0 = time.perf_counter()
    non_neighbors = g.full_mask ^ g.adj[pivot] ^ (1 << pivot)
    sub, index_map = induced_subgraph(g, VertexSet(g.n, non_neighbors))
    inner = max_independent_set(sub, opts)
    back = {new: old for old, new in index_map.items()}
    lift = (1 << pivot)
    for v in inner.witness:
        lift |= 1 << back[v]
    witness = VertexSet(g.n, lift)
    elapsed = time.perf_counter() - t0
    if isinstance(inner, MisResult):
        return MisResult(inner.alpha + 1, witness, inner.nodes_explored, elapsed)
    return MisIncomplete(inner.lower_bound + 1, min(inner.upper_bound + 1, g.n),
                         witness, inner.nodes_explored, elapsed)


def independent_set_decision(g: Graph, target: int,
                             options: SolveOptions | None = None) -> str:
    """Does g contain an independent set of size >= target?

    Returns "yes", "no", or "unknown" (budget exceeded). The search stops as
    soon as any qualifying set is found, so "yes" is usually much cheaper than
    an exact solve.
    """
    opts = options or SolveOptions()
    if target <= 0:
        return "yes"
    if target > g.n:
        return "no"
    value, _, _, status, _ = _max_clique_masks(
        _complement_rows(g), g.n,
        initial_best=target - 1, stop_at=target, options=opts)
    if status == "target" or value >= target:
        return "yes"
    if status == "complete":
        return "no"
    return "unknown"


def clique_lower_bound(g: Graph) -> int:
    """Size of some clique found by greedy growth from every vertex; <= chi(g)."""
    n = g.n
    if n == 0:
        return 0
    best = 1
    for v in range(n):
        cur_size = 1
        cand = g.adj[v]
        while cand:
            pick = -1
            pick_score = -1
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                score = (g.adj[w] & cand).bit_count()
                if score > pick_score:
                    pick_score, pick = score, w
            cur_size += 1
            cand &= g.adj[pick]
        if cur_size > best:
            best = cur_size
    return best


def _degree_levels(adj, n: int) -> list[int]:
    """Vertex masks grouped by degree, highest degree first."""
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | (1 << v)
    return [by_degree[d] for d in sorted(by_degree, reverse=True)]


def _dsatur_select(bucket: list[int], levels: list[int]) -> tuple[int, int]:
    """DSATUR choice: max saturation, tie max degree, tie lowest index.

    bucket[s] holds the uncolored vertices with exactly s forbidden colors (at
    least one bucket is non-empty); levels are the degree masks of
    _degree_levels. Returns (vertex, its saturation).
    """
    s = len(bucket) - 1
    while not bucket[s]:
        s -= 1
    top = bucket[s]
    for level in levels:
        pick = top & level
        if pick:
            return (pick & -pick).bit_length() - 1, s


def _raise_saturation(bucket: list[int], newly: int) -> None:
    """Move every vertex of `newly` up one saturation bucket.

    Top-down, so a moved vertex is not moved again. The caller guarantees no
    vertex of `newly` sits in the top bucket.
    """
    for s in range(len(bucket) - 2, -1, -1):
        moved = bucket[s] & newly
        if moved:
            bucket[s] ^= moved
            bucket[s + 1] |= moved


def greedy_coloring_bound(g: Graph, order: str = "dsatur") -> tuple[int, tuple[int, ...]]:
    """Valid coloring by a greedy policy; (color count, coloring with colors 1..k).

    Policies: "dsatur" (max saturation, tie max degree, tie lowest index),
    "degree" (static descending degree), "lex" (vertex index order). Each
    vertex takes its lowest color not used by a neighbor.
    """
    n = g.n
    if n == 0:
        return (0, ())
    if order == "lex":
        sequence = iter(range(n))
    elif order == "degree":
        sequence = iter(sorted(range(n), key=lambda v: (-g.adj[v].bit_count(), v)))
    elif order == "dsatur":
        sequence = None
        levels = _degree_levels(g.adj, n)
    else:
        raise ValueError(f"unknown ordering policy {order!r}")

    colors = [0] * n
    forb: list[int] = []        # forb[c]: vertices with a neighbor of color c
    bucket = [g.full_mask]      # saturation buckets, one more than colors used
    uncolored = g.full_mask
    for _ in range(n):
        if sequence is None:
            v, s = _dsatur_select(bucket, levels)
            bucket[s] ^= 1 << v
        else:
            v = next(sequence)
        uncolored ^= 1 << v
        c = 0
        while c < len(forb) and (forb[c] >> v) & 1:
            c += 1
        if c == len(forb):
            forb.append(0)
            bucket.append(0)
        colors[v] = c + 1
        newly = g.adj[v] & uncolored & ~forb[c]
        forb[c] |= newly
        if sequence is None:
            _raise_saturation(bucket, newly)
    return (len(forb), tuple(colors))


def k_colorable(g: Graph, k: int, options: SolveOptions | None = None) -> KColorOutcome:
    """Complete k-colorability decision with a witness when colorable.

    Depth-first search with DSATUR vertex selection over bit masks: forb[c]
    holds the vertices with a neighbor of color c, and bucket[s] the uncolored
    vertices with exactly s forbidden colors, so selection reads the top
    non-empty bucket and coloring v with c raises the bucket of
    adj[v] & uncolored & ~forb[c] by one. A node is dead when that would push
    a vertex to k forbidden colors. Color symmetry is broken by allowing at
    most one fresh color per vertex, so the first occurrence of each new color
    is forced. The search keeps an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.
    """
    opts = options or SolveOptions()
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if n == 0:
        return KColorOutcome("colorable", (), 0)
    greedy_k, greedy_cols = greedy_coloring_bound(g, "dsatur")
    if greedy_k <= k:
        return KColorOutcome("colorable", greedy_cols, 0)
    if any(g.adj[v] for v in range(n)) and k == 1:
        return KColorOutcome("uncolorable", None, 0)

    adj = g.adj
    levels = _degree_levels(adj, n)
    colors = [0] * n
    forb = [0] * k
    # Saturations 0..k-1 only: a vertex reaching k would make the node dead.
    bucket = [0] * k
    bucket[0] = uncolored = g.full_mask
    top = k - 1
    max_used = 0
    nodes = 0
    budget = _Budget(opts)
    # One frame per colored vertex: [vertex, color tried, color limit,
    # max_used on entry, buckets before its coloring, vertices it saturated].
    stack: list[list] = []

    while True:
        nodes += 1
        if nodes & 255 == 0 and budget.exceeded(nodes):
            return KColorOutcome("unknown", None, nodes)
        if not uncolored:
            return KColorOutcome("colorable", tuple(colors), nodes)
        v, s = _dsatur_select(bucket, levels)
        bucket[s] ^= 1 << v
        uncolored ^= 1 << v
        stack.append([v, -1, min(max_used + 1, k), max_used, bucket, 0])

        # Give the top frame its next live color, backtracking while none is left.
        while stack:
            frame = stack[-1]
            v, c, limit, used, base, newly = frame
            if c >= 0:
                forb[c] ^= newly
            row = adj[v] & uncolored
            c += 1
            while c < limit:
                fc = forb[c]
                if not (fc >> v) & 1:
                    newly = row & ~fc
                    if not base[top] & newly:
                        break
                c += 1
            if c < limit:
                forb[c] |= newly
                frame[1] = c
                frame[5] = newly
                colors[v] = c + 1
                bucket = base[:]
                _raise_saturation(bucket, newly)
                max_used = max(used, c + 1)
                break
            stack.pop()
            uncolored |= 1 << v
        else:
            return KColorOutcome("uncolorable", None, nodes)


def _chi_connected(g: Graph, opts: SolveOptions, deadline: float | None) -> ColoringResult | ChiBracket:
    """Exact chromatic number of one connected graph by bracket-and-close."""
    if g.edge_count() == 0:
        return ColoringResult(1, (1,) * g.n, 0)
    upper, upper_coloring = greedy_coloring_bound(g, "dsatur")
    lower = clique_lower_bound(g)
    if lower == upper:  # a clique as large as the coloring closes chi
        return ColoringResult(upper, upper_coloring, 0)
    nodes = 0

    def remaining() -> float | None:
        if deadline is None:
            return None
        return max(deadline - time.monotonic(), 0.001)

    mis = max_independent_set(g, replace(opts, time_budget=remaining()))
    nodes += mis.nodes_explored
    alpha_high = mis.alpha if isinstance(mis, MisResult) else mis.upper_bound
    lower = max(lower, ratio_lower_bound(g.n, alpha_high))

    k = lower
    while k < upper:
        outcome = k_colorable(g, k, replace(opts, time_budget=remaining()))
        nodes += outcome.nodes_explored
        if outcome.status == "colorable":
            return ColoringResult(k, outcome.coloring, nodes)
        if outcome.status == "unknown":
            return ChiBracket(k, upper, upper_coloring, nodes)
        k += 1
    return ColoringResult(upper, upper_coloring, nodes)


def chromatic_number(g: Graph, options: SolveOptions | None = None) -> ColoringResult | ChiBracket:
    """Exact chi(g), or the surviving bracket when a budget is exceeded.

    Components are solved independently (the chromatic number of a graph is
    the maximum over its connected components) and their colorings are
    stitched back together.
    """
    opts = options or SolveOptions()
    if g.n == 0:
        return ColoringResult(0, (), 0)
    deadline = (time.monotonic() + opts.time_budget) if opts.time_budget else None

    coloring = [0] * g.n
    lower = 0
    upper = 0
    nodes = 0
    exact = True
    for comp in connected_components(g):
        sub, index_map = induced_subgraph(g, comp)
        res = _chi_connected(sub, opts, deadline)
        nodes += res.nodes_explored
        if isinstance(res, ColoringResult):
            lower = max(lower, res.chi)
            upper = max(upper, res.chi)
            sub_coloring = res.coloring
        else:
            exact = False
            lower = max(lower, res.lower)
            upper = max(upper, res.upper)
            sub_coloring = res.coloring
        for old, new in index_map.items():
            coloring[old] = sub_coloring[new]
    if exact:
        return ColoringResult(upper, tuple(coloring), nodes)
    return ChiBracket(lower, upper, tuple(coloring), nodes)
