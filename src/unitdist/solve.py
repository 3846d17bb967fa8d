"""Exact maximum-independent-set and chromatic-number search.

A maximum independent set is computed as a maximum clique of the complement
graph, by branch and bound with greedy-coloring upper bounds at every node
(candidate sets and color classes are Python integers, so the inner loops are
bit-parallel). The branching vertex is always the one in the highest color
class. Color classes at or below the cut, incumbent size minus clique size,
are never branched on, so they are only peeled off the candidate pool, not
recorded. The clique search labels its pool in degeneracy order, so bit i
is the vertex at position i of the smallest-last order, and colors highest
bit first: the last-removed vertices, the core, come first. That is
smallest-last first-fit, which uses at most degeneracy + 1 colors (Matula
and Beck, J. ACM 1983), and the highest bit is what one bit_length() finds
and indexes tables by. The clique search, like the k-colorability search,
keeps an explicit stack, so neither is bounded by the interpreter's
recursion limit and neither changes it.

Once a clique search has spent _SPLIT_NODES nodes, wherever its depth-first
search stands, it forks one worker per further usable CPU (module split:
os.fork, a shared queue, a pipe and marshal, loaded only by a search that
splits). The work the search still has to do becomes a list of items: the
current node's children not yet searched, then each parent's, deepest
first, down to the root's, in the order the one-CPU search would take them.
The items wait in the queue in that order, and every process, the caller
included, takes the next one whenever it has finished one, each searched
from the incumbent of the split, so no incumbent is shared while they run,
and each worker runs on a CPU other than its caller's. The results are
merged in item order, and an item whose result the one-CPU search would not
have produced is searched again in the calling process: the returned value,
witness, node count and status are the one-CPU search's, unless a deadline
stops it. The queue also sums the nodes of the items finished, so that
under a node limit each process starts an item's count at or below the
one-CPU search's count there and stops no earlier than it inside the item,
and its own budget check stops it within 256 nodes in an item it starts
past the stop; the merge then knows each item's true start and takes the
one-CPU stop from the item in which it falls. A search splits under a limit
only while at least _SPLIT_NODES nodes are left before it stops. Nothing is
forked on one CPU, or while a second thread runs.
(McCreesh and Prosser, Algorithms 2013, also split below the root and hand
out work as it is asked for, with a shared incumbent that makes node counts
depend on timing.)

Chromatic numbers are bracketed between max(clique bound, ceil(n/alpha))
and a DSATUR coloring, then closed with a complete k-colorability search
that forces the first occurrence of each new color.

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
The function that calls a search adds the nodes the search reports to
budget.spent straight after the call, so each node is counted once and every
search of one call draws on one node limit and one deadline.
max_independent_set also takes a caller's _Budget in place of options, so
that one budget can cover a chain of searches.

Symmetry is used only once it is proven. max_independent_set takes vertex
permutations as automorphisms and checks each against the adjacency rows
with core.check_automorphisms (adj[p[v]] must be the image of adj[v];
ValueError otherwise), the one place permutations are checked. When
core.orbit of vertex 0 under them is the whole graph, the graph is
vertex-transitive, and so is each of its components: the first vertex of
each component is a pivot, put into the independent set up front, and _mis
searches only the vertices adjacent to no pivot. core.cloud_automorphisms
derives such permutations from a point cloud, which the command line reads
from the .coords sidecar that `build` writes.

The public entry points split a disconnected graph, or the pool mask they
search, into its connected components and solve each distinct component
once: components whose rows, relabelled in sorted vertex order, are
identical are copies of one another (identical rows are an isomorphism
through the sorted vertex lists), and one solution serves every copy.
Alphas add up, a graph is k-colorable when every component is, and chi is
the maximum over the components. A witness stitched from a reused solution
is re-checked on the whole graph.

Tie-breaking is everywhere by lowest vertex index, so runs are
bit-reproducible.
"""
from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

from .core import (
    Graph,
    VertexSet,
    check_automorphisms,
    connected_components,
    iter_bits,
    mask_from_indices,
    orbit,
    ratio_lower_bound,
)


@dataclass(frozen=True)
class SolveOptions:
    """Search limits shared by all solver entry points.

    Budgets default to unlimited; exceeding one yields an explicit incomplete
    or unknown result, never a silently wrong value. The node budget is
    enforced in batches of 256 nodes, so the actual node count may overshoot
    the limit by up to 256 nodes. chromatic_number is the one exception: once
    the limit is passed, each search it still has to make runs to its first
    check, so a k decided within 256 nodes still tightens the bracket, and
    each such search can add up to 256 nodes more.
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


# A clique search splits the work it still has to do across processes once
# it has spent this many nodes, and, under a node limit, only while at least
# this many are left before it stops. A whole split of two empty branches,
# fork and reap most of it, took 2.3-2.7 ms at 17 MB resident, 3.5-4.0 ms at
# 54 MB and 5.5 ms at 114 MB (2-vCPU VM, Python 3.11), so a search that ends
# soon after this many nodes does not repay its split; one that runs on, as
# the certificate pipeline's decisions of 8,000-12,000 nodes each do, does.
_SPLIT_NODES = 1 << 10


class _Budget:
    """Node limit, deadline and nodes spent of one public call.

    Each public entry point, and each augmentation walk, builds one from its
    SolveOptions and passes it to every search it makes. A search counts its
    own nodes and consults the budget every 256 nodes, with exceeded(nodes),
    so the node count may overshoot the limit by up to 256. Its caller adds
    the nodes it reports to `spent` straight after the call; `spent` is the
    only node tally, and every search of one call shares the node limit.
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

    def stop_count(self) -> int | None:
        """The count at which a search checking exceeded(count) every 256
        nodes stops for the node limit: the least multiple of 256 with spent
        plus it past the limit. None without a node limit."""
        if self.node_limit is None:
            return None
        return max(256, ((self.node_limit - self.spent) // 256 + 1) * 256)


def _degeneracy_order(adj: list[int] | tuple[int, ...], pool: int) -> list[int]:
    """The vertices of pool in smallest-last removal order, degrees counted
    inside pool; ties broken by lowest index.

    bucket[d] holds the vertices not yet removed with exactly d neighbours
    among the others, so the next vertex is the lowest bit of the lowest
    non-empty bucket, and removing it moves its remaining neighbours down one
    bucket with one mask operation per bucket they occupy.
    """
    degrees = [(adj[v] & pool).bit_count() for v in iter_bits(pool)]
    bucket = [0] * (max(degrees, default=0) + 1)
    for v, d in zip(iter_bits(pool), degrees):
        bucket[d] |= 1 << v
    alive = pool
    order = []
    low_d = 0
    for _ in range(len(degrees)):
        while not bucket[low_d]:
            low_d += 1
        top = bucket[low_d]
        low = top & -top
        bucket[low_d] = top ^ low
        alive ^= low
        v = low.bit_length() - 1
        order.append(v)
        # Bottom-up, so a vertex moved into bucket d - 1 is not moved again.
        row = adj[v] & alive
        d = low_d
        while row:
            moved = bucket[d] & row
            if moved:
                bucket[d] ^= moved
                bucket[d - 1] |= moved
                row ^= moved
            d += 1
        if low_d:
            low_d -= 1
    return order


def _relabel(adj, pool: int, order: list[int]) -> list[int]:
    """The rows of the pool's vertices, restricted to pool, with vertex
    order[i] renamed i; order lists every vertex of pool.

    Rows are scanned highest bit first: w = row.bit_length() is one more than
    the top vertex, and indexes both its bit and its new bit."""
    bit = [0] * (len(adj) + 1)
    posbit = [0] * (len(adj) + 1)
    for i, v in enumerate(order):
        bit[v + 1] = 1 << v
        posbit[v + 1] = 1 << i
    out = []
    for v in order:
        row = adj[v] & pool
        new_row = 0
        while row:
            w = row.bit_length()
            row ^= bit[w]
            new_row |= posbit[w]
        out.append(new_row)
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

    The pool is labelled in degeneracy order: the vertex that degeneracy
    ordering puts at position i gets bit i. Each node colors its candidate
    pool greedily, highest bit first, so the last-removed vertices are
    colored first, and the root takes at most the pool's degeneracy + 1
    colors (smallest-last first-fit). Each colored vertex costs one
    bit_length over two tables built once per call: bit[v] = 1 << (v - 1)
    and anti[v], the non-neighbor row of vertex v - 1. A class whose color is
    at or below the cut best - |clique| can never be branched on, because
    best only grows, so those classes are peeled without being recorded; the
    classes above the cut are kept as masks and branched highest color
    first, lowest bit first within a class, until the cut (re-read after
    every child, as best may have grown) is reached.

    The root is colored here and the rest is one depth-first search,
    _search. Once the call has spent _SPLIT_NODES nodes, at one of the
    search's checks every 256 nodes, with at least two usable CPUs and, under
    a node limit, at least _SPLIT_NODES nodes left before the count at which
    the search stops, the work the search still has to do is split across
    forked processes (_split).
    """
    if not pool:
        return (0, 0, 0, "complete", 0)
    order = _degeneracy_order(adj, pool)
    nbr = _relabel(adj, pool, order)
    n = len(order)
    full = (1 << n) - 1
    # Indexed by v = mask.bit_length(), one more than the mask's top vertex.
    bit = [0] + [1 << v for v in range(n)]
    anti = [0] + [full ^ nbr[v] ^ bit[v + 1] for v in range(n)]
    search = (nbr, bit, anti, stop_at, budget)
    classes, upper = _colour_classes(full, initial_best, bit, anti)
    root = (0, 0, full, classes, classes.pop() if classes else 0, upper)
    split_by = 0  # the last count at which the search may split
    if _usable_cpus() >= 2:
        stop = budget.stop_count()
        split_by = math.inf if stop is None else stop - _SPLIT_NODES
    best, best_mask, nodes, status = _search(search, root, initial_best, 0, 1, split_by=split_by)
    return (best, mask_from_indices(order[i] for i in iter_bits(best_mask)), nodes, status, upper)


def _colour_classes(pool: int, cut: int, bit: list[int], anti: list[int]) -> tuple[list[int], int]:
    """Greedy color classes over pool, highest bit first: (the classes above
    color `cut`, lowest color first, and the number of colors used). Classes
    1..cut cannot lead past the incumbent, so they are peeled off without
    being recorded."""
    rest = pool
    color = 0
    while rest and color < cut:
        color += 1
        q = rest
        while q:
            v = q.bit_length()
            rest ^= bit[v]
            q &= anti[v]
    classes = []
    while rest:
        color += 1
        q = before = rest
        while q:
            v = q.bit_length()
            rest ^= bit[v]
            q &= anti[v]
        classes.append(before ^ rest)
    return classes, color


def _search(search, frame: tuple, best: int, best_mask: int, nodes: int,
            trail: list | None = None, split_by: float = 0) -> tuple[int, int, int, str]:
    """The clique search below one colored node: its children not yet
    searched, and their subtrees.

    search is (nbr, bit, anti, stop_at, budget) of the call. frame is the
    node's (clique size, clique mask, pool, classes not yet branched on,
    current class, its color); the pool holds the candidates not yet
    branched on. nodes is the call's running node count, which the budget is
    checked against every 256 nodes. Each improvement of best is appended to
    trail, if given, as (nodes, best, best_mask). At a check with
    _SPLIT_NODES <= nodes <= split_by, the work left is split (_split), and
    its result is returned. Returns (best, best_mask, nodes, status) with the
    same statuses as _max_clique_masks. The search keeps an explicit stack
    of parent frames, so its depth is not bounded by the interpreter's
    recursion limit.
    """
    nbr, bit, anti, stop_at, budget = search
    r_size, r_mask, pool, classes, cls, color = frame
    stack: list[tuple] = []
    while True:
        # Take the next branch, backing up through finished frames.
        if not cls or r_size + color <= best:
            if not stack:
                return (best, best_mask, nodes, "complete")
            r_size, r_mask, pool, classes, cls, color = stack.pop()
            continue
        low = cls & -cls
        cls ^= low
        if not cls and classes:
            cls = classes.pop()
            color -= 1
        new_pool = pool & nbr[low.bit_length() - 1]
        pool ^= low
        if not new_pool:
            if r_size >= best:
                best, best_mask = r_size + 1, r_mask | low
                if trail is not None:
                    trail.append((nodes, best, best_mask))
                if stop_at is not None and best >= stop_at:
                    return (best, best_mask, nodes, "target")
            continue
        stack.append((r_size, r_mask, pool, classes, cls, color))
        r_size += 1
        r_mask |= low
        pool = new_pool
        nodes += 1
        classes, color = _colour_classes(pool, best - r_size, bit, anti)
        cls = classes.pop() if classes else 0
        if nodes & 255 == 0:
            if budget.exceeded(nodes):
                return (best, best_mask, nodes, "budget")
            if _SPLIT_NODES <= nodes <= split_by:
                frames = [(r_size, r_mask, pool, classes, cls, color), *reversed(stack)]
                items = _pending(nbr, frames, best)
                if len(items) >= 2:
                    return _split(search, items, best, best_mask, nodes)


def _pending(nbr: list[int], frames: list[tuple], best: int) -> list[tuple]:
    """The children not yet searched of each frame, in frames' order, each in
    the order the search takes them, up to the first that best cuts.

    Each child is an item: a frame with that one child left, (clique size,
    clique mask, child pool, (), vertex bit, its color). The child pool is
    the frame's pool, without the siblings taken before it, restricted to
    the vertex's neighbours; it also stands as the item's pool, since the
    child that _search takes from it gets the pool & nbr[vertex] it already
    is.
    """
    items = []
    for r_size, r_mask, pool, classes, cls, color in frames:
        classes = classes[:]
        while cls and r_size + color > best:
            low = cls & -cls
            cls ^= low
            items.append((r_size, r_mask, pool & nbr[low.bit_length() - 1], (), low, color))
            pool ^= low
            if not cls and classes:
                cls = classes.pop()
                color -= 1
    return items


def _split(search, items: list[tuple], best: int, best_mask: int,
           nodes: int) -> tuple[int, int, int, str]:
    """The items, the work left at count nodes, searched across forked
    processes (split.split_items) from incumbent best, then merged in order
    into the result _search would return.

    Let S be the count at which the one-CPU search stops under the node
    limit (_Budget.stop_count), and n0 the count at which it would start an
    item. A result from the split is taken only while best is still the
    incumbent of the split and no deadline stopped it: if it ended with
    n0 + its nodes < S, as it is; if it ran to S - n0 nodes or more, as the
    one-CPU stop: status "budget", nodes S, and the last improvement below
    S - n0 nodes into the item. Any other item is searched here; an item that
    best cuts, or whose pool is empty, costs no node there. A worker's
    cliques are re-checked before they are taken.
    """
    from . import split  # loaded only by a search that splits
    nbr, budget = search[0], search[4]
    stop = budget.stop_count()
    shared = split.split_items(search, items, best, nodes, min(_usable_cpus(), len(items)))
    split_best = best
    for i, item in enumerate(items):
        got = shared.get(i) if best == split_best else None
        if got is not None:
            count, status, trail = got
            if status != "budget" and (stop is None or nodes + count < stop):
                nodes += count
            elif stop is not None and nodes + count >= stop:
                trail = [t for t in trail if nodes + t[0] < stop]
                nodes, status = stop, "budget"
            else:
                got = None
        if got is None:
            best, best_mask, nodes, status = _search(search, item, best, best_mask, nodes)
        elif trail:
            _, value, mask = trail[-1]
            if not _is_clique(nbr, mask, value):
                raise RuntimeError("a clique from a split search failed its re-check")
            best, best_mask = value, mask
        if status != "complete":
            return (best, best_mask, nodes, status)
    return (best, best_mask, nodes, "complete")


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot split safely:
    on a platform without fork, CPU affinity and memfd_create (for split's
    queue), or while a second thread runs (a forked child would inherit the
    other threads' locks held)."""
    if (not hasattr(os, "sched_getaffinity") or not hasattr(os, "memfd_create")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _is_clique(nbr: list[int], mask: int, size: int) -> bool:
    """Whether mask has `size` vertices, pairwise adjacent in rows nbr."""
    return mask.bit_count() == size and all(
        (mask ^ (1 << v)) & ~nbr[v] == 0 for v in iter_bits(mask))


def _complement_rows(g: Graph) -> list[int]:
    full = g.full_mask
    return [full ^ g.adj[v] ^ (1 << v) for v in range(g.n)]


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------


def _distinct_components(g: Graph, pool: int) -> list[tuple[Graph, list[tuple[int, ...]]]]:
    """Each distinct connected component of g inside mask pool once, as
    (subgraph, copies) in order of first appearance.

    The subgraph's rows are relabelled in sorted vertex order, so components
    with identical rows are copies, and copy[v] is the vertex of g that
    subgraph vertex v stands for. The relabelling map is sized to the
    component, so many small components cost no more than their own rows. A
    pool that is one connected component comes back as g itself, with the
    identity as its one copy and no relabelled copy built: the caller
    searches the pool in g's own rows.
    """
    comps = connected_components(g, pool)
    if len(comps) == 1:
        return [(g, [tuple(range(g.n))])]
    groups: dict[tuple[int, ...], tuple[Graph, list[tuple[int, ...]]]] = {}
    for comp in comps:
        copy = comp.indices()
        pos = {v: 1 << i for i, v in enumerate(copy)}
        rows = tuple(sum(pos[w] for w in iter_bits(g.adj[v] & comp.bits)) for v in copy)
        groups.setdefault(rows, (Graph._trusted(len(copy), rows), []))[1].append(copy)
    return list(groups.values())


def _stitched_coloring(g: Graph, solved: list[tuple], k: int) -> tuple[int, ...]:
    """The coloring of g that gives each copy of a distinct component that
    component's coloring, from (copies, coloring) per distinct component of
    _distinct_components. When one coloring serves more than one copy, the
    result is re-checked on g, with colors in 1..k."""
    coloring = [0] * g.n
    for copies, sub_coloring in solved:
        for copy in copies:
            for v, c in zip(copy, sub_coloring):
                coloring[v] = c
    if any(len(copies) > 1 for copies, _ in solved) and not check_coloring(g, coloring, k):
        raise RuntimeError("stitched coloring failed its re-check")
    return tuple(coloring)


# ---------------------------------------------------------------------------
# Public solver entry points
# ---------------------------------------------------------------------------


def _mis(g: Graph, pivots: int, budget: _Budget, t0: float) -> MisResult | MisIncomplete:
    """A maximum independent set of g that contains the independent set
    `pivots`, timed from t0: the pivots plus the most vertices of the pool,
    the vertices that are neither pivots nor adjacent to one.

    Each distinct component inside the pool is searched once, as a maximum
    clique of its complement (in g's own rows when the pool is one
    component), and its witness serves every copy; the budget's nodes and
    deadline are spent across the components in turn. When they run out,
    the lower bound is the size of the stitched witness, and the upper bound
    adds to the number of pivots each searched component's certified bound
    and each unsearched component's size, once per copy.
    """
    spent_before = budget.spent
    bits = pivots
    pool = g.full_mask ^ pivots
    for v in iter_bits(pivots):
        pool &= ~g.adj[v]
    upper = pivots.bit_count()
    complete = True
    reused = False
    for sub, copies in _distinct_components(g, pool):
        sub_pool = pool if sub is g else sub.full_mask
        if budget.exceeded():
            complete = False
            upper += sub_pool.bit_count() * len(copies)
            continue
        value, mask, nodes, status, sub_upper = _max_clique_masks(
            _complement_rows(sub), sub_pool, budget=budget)
        budget.spent += nodes
        if status != "complete":
            complete = False
            value = min(sub_upper, sub_pool.bit_count())
        upper += value * len(copies)
        for copy in copies:
            bits |= mask_from_indices(copy[i] for i in iter_bits(mask))
        reused = reused or len(copies) > 1
    witness = VertexSet(g.n, bits)
    if reused and not check_independent_set(g, witness):
        raise RuntimeError("stitched independent set failed its re-check")
    elapsed = time.perf_counter() - t0
    nodes = budget.spent - spent_before
    if complete:
        return MisResult(len(witness), witness, nodes, elapsed)
    return MisIncomplete(len(witness), upper, witness, nodes, elapsed)


def max_independent_set(g: Graph, options: SolveOptions | None = None, automorphisms=(), *,
                        budget: _Budget | None = None) -> MisResult | MisIncomplete:
    """Exact alpha(g) with witness, or the certified bracket of a spent budget.

    automorphisms is a sequence of vertex permutations of g, p[v] being the
    image of v, as from core.cloud_automorphisms; core.check_automorphisms
    checks each against the adjacency rows first, and one that is not an
    automorphism raises ValueError. When the orbit of vertex 0 under them is
    all of g, g is vertex-transitive, and so is each of its components, as
    an automorphism that maps u to v maps u's component onto v's. So some
    maximum independent set contains the first vertex of every component,
    and those are the pivots; as they sit at the same place in every copy of
    a component, so do the components of what is left, and one search
    serves every copy. Otherwise there is no pivot and the whole graph is
    searched. A caller that spends one budget over several searches passes
    it as `budget` instead of options. wall_time covers the whole call.
    """
    t0 = time.perf_counter()
    check_automorphisms(g, automorphisms)
    if budget is None:
        budget = _Budget(options or SolveOptions())
    pivots = 0
    if g.n and automorphisms and orbit(automorphisms, 0) == g.full_mask:
        pivots = sum(comp.bits & -comp.bits for comp in connected_components(g))
    return _mis(g, pivots, budget, t0)


def alpha_vertex_transitive(g: Graph, pivot: int,
                            options: SolveOptions | None = None) -> MisResult | MisIncomplete:
    """alpha(g) for vertex-transitive g, via one level of pivot reduction.

    Valid only when the caller knows g is vertex-transitive: some maximum
    independent set then contains the pivot, so alpha(g) equals one plus the
    independence number of the subgraph induced on the pivot's non-neighbors,
    searched as a pool mask of g. It is not exported, and only the
    benchmark's alpha_exact workload (perfbench) calls it; it goes with
    ROADMAP item 3's benchmark change, which moves that workload to
    max_independent_set with automorphisms the solver checks.
    """
    if not 0 <= pivot < g.n:
        raise ValueError(f"pivot {pivot} out of range")
    return _mis(g, 1 << pivot, _Budget(options or SolveOptions()), time.perf_counter())


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
    solved = []
    for sub, copies in _distinct_components(g, g.full_mask):
        if budget.exceeded():
            return KColorOutcome("unknown", None, budget.spent)
        greedy_k, greedy_cols = greedy_coloring_bound(sub)
        if greedy_k <= k:
            outcome = KColorOutcome("colorable", greedy_cols, 0)
        elif k == 1:  # more than one greedy color: sub has an edge
            outcome = KColorOutcome("uncolorable", None, 0)
        else:
            outcome = _k_color(sub, k, budget)
            budget.spent += outcome.nodes_explored
        if outcome.status != "colorable":
            return KColorOutcome(outcome.status, None, budget.spent)
        solved.append((copies, outcome.coloring))
    return KColorOutcome("colorable", _stitched_coloring(g, solved, k), budget.spent)


def _k_color(g: Graph, k: int, budget: _Budget) -> KColorOutcome:
    """k-colorability of one graph with n >= 1, for 2 <= k < its DSATUR count.

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


def _chi_connected(g: Graph, budget: _Budget) -> tuple[int, int, tuple[int, ...]]:
    """(lower, upper, coloring with `upper` colors) for the chromatic number
    of one connected graph, by bracket-and-close; exact when lower == upper."""
    if g.edge_count() == 0:
        return (1, 1, (1,) * g.n)
    upper, upper_coloring = greedy_coloring_bound(g)
    lower = clique_lower_bound(g)
    if lower == upper:  # a clique as large as the coloring closes chi
        return (upper, upper, upper_coloring)

    alpha, _, nodes, status, alpha_upper = _max_clique_masks(
        _complement_rows(g), g.full_mask, budget=budget)
    budget.spent += nodes
    if status != "complete":
        alpha = min(alpha_upper, g.n)
    lower = max(lower, ratio_lower_bound(g.n, alpha))

    # _k_color needs 2 <= k < upper: g has an edge, so its clique bound is 2.
    for k in range(lower, upper):
        outcome = _k_color(g, k, budget)
        budget.spent += outcome.nodes_explored
        if outcome.status == "colorable":
            return (k, k, outcome.coloring)
        if outcome.status == "unknown":
            return (k, upper, upper_coloring)
    return (upper, upper, upper_coloring)


def chromatic_number(g: Graph, options: SolveOptions | None = None) -> ColoringResult | ChiBracket:
    """Exact chi(g), or the surviving bracket when a budget is exceeded.

    chi(g) is the maximum over the connected components. Each distinct
    component is solved once and its coloring serves every copy. All the
    searches of one call share one node budget and one deadline.
    """
    budget = _Budget(options or SolveOptions())
    lower = upper = 0
    solved = []
    for sub, copies in _distinct_components(g, g.full_mask):
        sub_lower, sub_upper, sub_coloring = _chi_connected(sub, budget)
        lower = max(lower, sub_lower)
        upper = max(upper, sub_upper)
        solved.append((copies, sub_coloring))
    coloring = _stitched_coloring(g, solved, upper)
    if lower == upper:
        return ColoringResult(upper, coloring, budget.spent)
    return ChiBracket(lower, upper, coloring, budget.spent)
