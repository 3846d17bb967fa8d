"""Exact maximum-independent-set and chromatic-number search.

A maximum independent set is computed as a maximum clique of the complement
graph, by branch and bound with greedy-coloring upper bounds at every node
(candidate sets and color classes are Python integers, so the inner loops are
bit-parallel). The branching vertex is always the one in the highest color
class. Color classes at or below the cut, incumbent size minus clique size,
are never branched on, so they are only peeled off the candidate pool, not
recorded. The clique search, like the k-colorability search, keeps an
explicit stack, so neither is bounded by the interpreter's recursion limit
and neither changes it. Chromatic numbers are bracketed between
max(clique bound, ceil(n/alpha)) and a DSATUR coloring, then closed with a
complete k-colorability search that forces the first occurrence of each new
color.

DSATUR is written once, over bit masks, and serves both the greedy bound and
the k-colorability search: forb[c] holds the vertices with a neighbor of color
c, and bucket[s] the uncolored vertices with exactly s distinct neighbor
colors (their saturation). The next vertex is the lowest-index vertex of the
top non-empty bucket within the highest degree level that meets it; coloring
a vertex moves the neighbors that newly see its color up one bucket with one
mask operation per bucket, so neither selection nor propagation visits
vertices one by one.

Each public entry point builds one _Budget from its SolveOptions and hands
that object to every search it makes; no search builds a budget of its own.

The public entry points split a disconnected graph into its connected
components and solve each distinct component once: components whose induced
subgraphs have identical rows are copies of one another (induced_subgraph
keeps vertex order, so identical rows are an isomorphism through the sorted
vertex lists), and one solution serves every copy. Alphas add up, a graph is
k-colorable when every component is, and chi is the maximum over the
components. A witness stitched from a reused solution is re-checked on the
whole graph.

Tie-breaking is everywhere by lowest vertex index, so runs are
bit-reproducible.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

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
    enforced in batches of 256 nodes, so the actual node count may overshoot
    the limit by up to 256 nodes.
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


class _Budget:
    """Node limit, deadline and nodes spent of one public call.

    Each public entry point, and each augmentation step, builds one from its
    SolveOptions and passes it to every search it makes. Searches count their own nodes and consult the
    budget every 256 nodes, so the node count may overshoot the limit by up
    to 256. A caller whose searches share the node limit adds each search's
    nodes to `spent`; one that leaves `spent` alone gives every search the
    full limit under the one deadline.
    """

    __slots__ = ("node_limit", "deadline", "spent")

    def __init__(self, options: SolveOptions):
        self.node_limit = options.node_budget
        self.deadline = None
        if options.time_budget is not None:
            self.deadline = time.monotonic() + options.time_budget
        self.spent = 0

    def exceeded(self, nodes: int = 0) -> bool:
        """Whether spent plus `nodes` passes the node limit, or the deadline
        has passed."""
        return ((self.node_limit is not None and self.spent + nodes > self.node_limit)
                or (self.deadline is not None and time.monotonic() > self.deadline))


def _degeneracy_order(adj: list[int] | tuple[int, ...], pool: int) -> list[int]:
    """The vertices of pool in smallest-last removal order, degrees counted
    inside pool; ties broken by lowest index."""
    alive = pool
    deg = [(row & pool).bit_count() for row in adj]
    order = []
    for _ in range(pool.bit_count()):
        best_v, best_d = -1, len(adj) + 1
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


def _relabel(adj, pool: int, order: list[int]) -> list[int]:
    """The rows of the pool's vertices, restricted to pool, with vertex
    order[i] renamed i."""
    pos = [0] * len(adj)
    for i, v in enumerate(order):
        pos[v] = i
    out = []
    for v in order:
        row = adj[v] & pool
        new_row = 0
        while row:
            low = row & -row
            row ^= low
            new_row |= 1 << pos[low.bit_length() - 1]
        out.append(new_row)
    return out


def _unrelabel(mask: int, order: list[int] | tuple[int, ...]) -> int:
    """Map a mask over relabelled vertices back to the caller's labels:
    bit i becomes bit order[i]."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << order[low.bit_length() - 1]
    return out


def _max_clique_masks(adj, pool: int, *, initial_best: int = 0, stop_at: int | None = None,
                      budget: _Budget) -> tuple[int, int, int, str, int]:
    """Maximum clique over bit rows `adj`, among the vertices of mask `pool`.

    Only the pool's vertices are ordered, relabelled and searched, and the
    returned mask is in the labels of `adj`.

    initial_best acts as a virtual incumbent: only cliques strictly larger are
    searched for, and the returned value equals initial_best when none exists.
    Returns (value, mask, nodes, status, coloring_upper_bound) with status one
    of "complete", "target", "budget"; the upper bound is the number of greedy
    color classes at the root.

    Each node colors its candidate pool greedily, lowest index first, over the
    non-neighbor rows of the relabelled graph. A class whose color is at or
    below the cut best - |clique| can never be branched on, because best only
    grows, so those classes are peeled without being recorded; the classes
    above the cut are kept as masks and branched highest color first, highest
    index first within a class, until the cut (re-read after every child, as
    best may have grown) is reached. The search keeps an explicit stack of
    parent frames, so its depth is not bounded by the interpreter's recursion
    limit.
    """
    if not pool:
        return (0, 0, 0, "complete", 0)
    order = _degeneracy_order(adj, pool)
    nbr = _relabel(adj, pool, order)
    n = len(order)
    full = (1 << n) - 1
    # anti[v + 1] is v's non-neighbor row, so a bit `low` indexes it by low.bit_length().
    anti = [0] + [full ^ nbr[v] ^ (1 << v) for v in range(n)]
    best, best_mask = initial_best, 0
    nodes = 0
    upper = 0
    # One frame per clique vertex above the current node: the parent's
    # (clique size, clique mask, pool, unbranched classes, current class, its color).
    stack: list[tuple] = []
    r_size, r_mask, pool = 0, 0, full

    while True:
        nodes += 1
        if nodes & 255 == 0 and budget.exceeded(nodes):
            return (best, _unrelabel(best_mask, order), nodes, "budget", upper)
        # Greedy color classes over pool, lowest index first; classes 1..cut
        # cannot lead past best, so they are peeled off without being recorded.
        cut = best - r_size
        rest = pool
        color = 0
        while rest and color < cut:
            color += 1
            q = rest
            while q:
                low = q & -q
                rest ^= low
                q &= anti[low.bit_length()]
        classes = []
        while rest:
            color += 1
            q = before = rest
            while q:
                low = q & -q
                rest ^= low
                q &= anti[low.bit_length()]
            classes.append(before ^ rest)
        if not stack:
            upper = color
        cls = classes.pop() if classes else 0

        # Take the next branch, backing up through finished frames.
        while True:
            if not cls or r_size + color <= best:
                if not stack:
                    return (best, _unrelabel(best_mask, order), nodes, "complete", upper)
                r_size, r_mask, pool, classes, cls, color = stack.pop()
                continue
            v = cls.bit_length() - 1
            low = 1 << v
            cls ^= low
            if not cls and classes:
                cls = classes.pop()
                color -= 1
            new_pool = pool & nbr[v]
            pool ^= low
            if new_pool:
                stack.append((r_size, r_mask, pool, classes, cls, color))
                r_size += 1
                r_mask |= low
                pool = new_pool
                break
            if r_size >= best:
                best, best_mask = r_size + 1, r_mask | low
                if stop_at is not None and best >= stop_at:
                    return (best, _unrelabel(best_mask, order), nodes, "target", upper)


def _complement_rows(g: Graph) -> list[int]:
    full = g.full_mask
    return [full ^ g.adj[v] ^ (1 << v) for v in range(g.n)]


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------


def _distinct_components(g: Graph) -> list[tuple[Graph, list[tuple[int, ...]]]]:
    """Each distinct connected component of g once, with the vertices of its copies.

    Components whose induced subgraphs have identical rows are one entry:
    induced_subgraph keeps the relative order of the kept vertices, so equal
    rows make the sorted vertex lists an isomorphism, with no further check.
    Entries come in order of first appearance as (subgraph, copies), where
    copy[v] is the vertex of g that subgraph vertex v stands for. A connected
    graph comes back as itself, with the identity as its one copy.
    """
    comps = connected_components(g)
    if len(comps) == 1:
        return [(g, [tuple(range(g.n))])]
    groups: dict[tuple[int, ...], tuple[Graph, list[tuple[int, ...]]]] = {}
    for comp in comps:
        sub, _ = induced_subgraph(g, comp)
        groups.setdefault(sub.adj, (sub, []))[1].append(comp.indices())
    return list(groups.values())


# ---------------------------------------------------------------------------
# Public solver entry points
# ---------------------------------------------------------------------------


def max_independent_set(g: Graph, options: SolveOptions | None = None) -> MisResult | MisIncomplete:
    """Exact alpha(g) with witness, as maximum clique of the complement.

    alpha adds up over connected components. Each distinct component is
    searched once and its witness serves every copy; the call's node budget
    and deadline are spent across the components in turn. When they run
    out, the lower bound is the size of the stitched witness, and the upper
    bound adds each searched component's certified bound and each unsearched
    component's size, once per copy.
    """
    t0 = time.perf_counter()
    budget = _Budget(options or SolveOptions())
    bits = upper = 0
    complete = True
    reused = False
    for sub, copies in _distinct_components(g):
        if budget.exceeded():
            complete = False
            upper += sub.n * len(copies)
            continue
        value, mask, nodes, status, sub_upper = _max_clique_masks(
            _complement_rows(sub), sub.full_mask, budget=budget)
        budget.spent += nodes
        if status != "complete":
            complete = False
            value = min(sub_upper, sub.n)
        upper += value * len(copies)
        for copy in copies:
            bits |= _unrelabel(mask, copy)
        reused = reused or len(copies) > 1
    witness = VertexSet(g.n, bits)
    if reused and not check_independent_set(g, witness):
        raise RuntimeError("stitched independent set failed its re-check")
    elapsed = time.perf_counter() - t0
    if complete:
        return MisResult(len(witness), witness, budget.spent, elapsed)
    return MisIncomplete(len(witness), upper, witness, budget.spent, elapsed)


def alpha_vertex_transitive(g: Graph, pivot: int,
                            options: SolveOptions | None = None) -> MisResult | MisIncomplete:
    """alpha(g) for vertex-transitive g, via one level of pivot reduction.

    Valid only when the caller knows g is vertex-transitive: some maximum
    independent set then contains the pivot, so alpha(g) equals one plus the
    independence number of the subgraph induced on the pivot's non-neighbors.
    The reduced graph need not be vertex-transitive, so the reduction is never
    nested.
    """
    if not 0 <= pivot < g.n:
        raise ValueError(f"pivot {pivot} out of range")
    t0 = time.perf_counter()
    non_neighbors = g.full_mask ^ g.adj[pivot] ^ (1 << pivot)
    # A subgraph, not a pool mask: the non-neighbors can be disconnected, and
    # max_independent_set solves each distinct component once.
    sub, index_map = induced_subgraph(g, VertexSet(g.n, non_neighbors))
    inner = max_independent_set(sub, options)
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


def greedy_coloring_bound(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Valid DSATUR coloring; (color count, coloring with colors 1..k).

    The next vertex has max saturation, tie max degree, tie lowest index, and
    takes its lowest color not used by a neighbor.
    """
    n = g.n
    if n == 0:
        return (0, ())
    levels = _degree_levels(g.adj, n)
    colors = [0] * n
    forb: list[int] = []        # forb[c]: vertices with a neighbor of color c
    bucket = [g.full_mask]      # saturation buckets, one more than colors used
    uncolored = g.full_mask
    for _ in range(n):
        v, s = _dsatur_select(bucket, levels)
        bucket[s] ^= 1 << v
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
        _raise_saturation(bucket, newly)
    return (len(forb), tuple(colors))


def k_colorable(g: Graph, k: int, options: SolveOptions | None = None) -> KColorOutcome:
    """Complete k-colorability decision with a witness when colorable.

    g is k-colorable when each connected component is. Each distinct
    component is decided once and its coloring serves every copy; the call's
    node budget and deadline are spent across the components in turn, and
    the first component that is "uncolorable" or "unknown" decides.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    budget = _Budget(options or SolveOptions())
    coloring = [0] * g.n
    reused = False
    for sub, copies in _distinct_components(g):
        if budget.exceeded():
            return KColorOutcome("unknown", None, budget.spent)
        outcome = _k_color(sub, k, budget)
        budget.spent += outcome.nodes_explored
        if outcome.status != "colorable":
            return KColorOutcome(outcome.status, None, budget.spent)
        for copy in copies:
            for v, c in zip(copy, outcome.coloring):
                coloring[v] = c
        reused = reused or len(copies) > 1
    if reused and not check_coloring(g, coloring, k):
        raise RuntimeError("stitched coloring failed its re-check")
    return KColorOutcome("colorable", tuple(coloring), budget.spent)


def _k_color(g: Graph, k: int, budget: _Budget) -> KColorOutcome:
    """k-colorability of one graph with n >= 1 and k >= 1.

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
    n = g.n
    greedy_k, greedy_cols = greedy_coloring_bound(g)
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


def _chi_connected(g: Graph, budget: _Budget) -> ColoringResult | ChiBracket:
    """Exact chromatic number of one connected graph by bracket-and-close."""
    if g.edge_count() == 0:
        return ColoringResult(1, (1,) * g.n, 0)
    upper, upper_coloring = greedy_coloring_bound(g)
    lower = clique_lower_bound(g)
    if lower == upper:  # a clique as large as the coloring closes chi
        return ColoringResult(upper, upper_coloring, 0)

    alpha, _, nodes, status, alpha_upper = _max_clique_masks(
        _complement_rows(g), g.full_mask, budget=budget)
    if status != "complete":
        alpha = min(alpha_upper, g.n)
    lower = max(lower, ratio_lower_bound(g.n, alpha))

    k = lower
    while k < upper:
        outcome = _k_color(g, k, budget)
        nodes += outcome.nodes_explored
        if outcome.status == "colorable":
            return ColoringResult(k, outcome.coloring, nodes)
        if outcome.status == "unknown":
            return ChiBracket(k, upper, upper_coloring, nodes)
        k += 1
    return ColoringResult(upper, upper_coloring, nodes)


def chromatic_number(g: Graph, options: SolveOptions | None = None) -> ColoringResult | ChiBracket:
    """Exact chi(g), or the surviving bracket when a budget is exceeded.

    chi(g) is the maximum over the connected components. Each distinct
    component is solved once and its coloring serves every copy. Every
    search gets the full node budget, and all of them share one deadline.
    """
    budget = _Budget(options or SolveOptions())
    coloring = [0] * g.n
    lower = upper = nodes = 0
    exact = True
    reused = False
    for sub, copies in _distinct_components(g):
        res = _chi_connected(sub, budget)
        nodes += res.nodes_explored
        if isinstance(res, ColoringResult):
            lower = max(lower, res.chi)
            upper = max(upper, res.chi)
        else:
            exact = False
            lower = max(lower, res.lower)
            upper = max(upper, res.upper)
        for copy in copies:
            for v, c in zip(copy, res.coloring):
                coloring[v] = c
        reused = reused or len(copies) > 1
    if reused and not check_coloring(g, coloring, upper):
        raise RuntimeError("stitched coloring failed its re-check")
    if exact:
        return ColoringResult(upper, tuple(coloring), nodes)
    return ChiBracket(lower, upper, tuple(coloring), nodes)
