"""Exact maximum-independent-set and chromatic-number search.

A maximum independent set is computed as a maximum clique of the complement
graph, by branch and bound with greedy-coloring upper bounds at every node
(candidate sets and color classes are Python integers, so the inner loops are
bit-parallel). The kernel takes the graph's own rows and builds complement
rows for its pool only, so no caller builds a complement. The branching vertex
is always the one in the highest color class. Color classes at or below the
cut, incumbent size minus clique size, are never branched on, so they are only
peeled off the candidate pool, not recorded. The clique search labels its pool
in degeneracy order, so bit i is the vertex at position i of the smallest-last
order, and colors highest bit first: the last-removed vertices, the core, come
first. That is smallest-last first-fit, which uses at most degeneracy + 1
colors (Matula and Beck, J. ACM 1983), and the highest bit is what one
bit_length() finds and indexes tables by. The clique search, like the
k-colorability search, keeps an explicit stack, so neither is bounded by the
interpreter's recursion limit and neither changes it.

Once a clique search or a k-colorability search has spent _SPLIT_NODES
nodes, wherever its depth-first search stands, it splits its work across one
worker per further usable CPU (module split: os.fork, a shared queue, pipes
and marshal, loaded only by a search that splits). The workers are forked at
the first split of the call, kept for its later splits, each of which sends
them its work through their pipes, and ended when the call returns or raises
(_Budget.close), so a call forks once however often it splits. A later
search of the call, whose budget already holds the workers, splits at its
first check, at 256 nodes, since its split costs no fork. The work the
search still has to do becomes a list of items, in the order the one-CPU
search would take them: for the clique search the current node's children
not yet searched, then each parent's, deepest first, down to the root's; for
the coloring search the colors not yet tried at each frame of its stack,
deepest first, each carried as the path of (vertex, color) choices that a
worker replays. The items wait in the queue in that order, and every
process, the caller included, takes the next one whenever it has finished
one, each searched from the incumbent of the split, so no incumbent is
shared while they run, and each worker runs on a CPU other than its
caller's. The results are merged in item order, and an item whose result the
one-CPU search would not have produced is searched again in the calling
process: the returned value, witness or coloring, node count and status are
the one-CPU search's, unless a deadline stops it. A coloring plays the
clique search's target: the first item in order that finds one wins, and a
worker's coloring, like its cliques, is re-checked before it is taken.
Under a node limit each process starts an item's count at or below the
one-CPU search's count there, and at each check raises it by the nodes,
finished or running, of the items before it, so it stops no earlier than
the one-CPU search inside the item, and no more than 256 nodes later once
those items are done; the merge then knows each item's true start and takes
the one-CPU stop from the item in which it falls. Once an item ends the
split, the processes that hold later items stop at their next check. A
search splits under a limit only while at least _SPLIT_NODES nodes are left
before it stops. Nothing is forked on one CPU, or while a second thread
runs.

A split splits again inside an item. Once no item is left to take, and
none has ended the split, the last item still running hands back the work
it has left at its next check, if it has found no improvement, by the same
rule as the first split (_SPLIT_NODES nodes into the item, as many left
before a node limit's stop), or sooner once a process is idle: its search
builds that work as a list of items, as the first split builds its own,
and returns it with status "split". When the merge reaches the item, it
takes the one-CPU stop if the item's nodes reach it, and otherwise splits
those items over the same workers from the item's exact count, merging
their results before the next item. Such rounds nest, kept on a list, so
nesting costs the interpreter no stack.
(McCreesh and Prosser, Algorithms 2013, also split below the root and hand
out work as it is asked for, with a shared incumbent that makes node counts
depend on timing.)

Chromatic numbers are bracketed between max(clique bound, ceil(n/alpha))
and a DSATUR coloring, then closed with complete k-colorability searches
that force the first occurrence of each new color: one try at one color
fewer than DSATUR's, then upward from the lower end.

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
Each search adds its own nodes to budget.spent, so no caller keeps a tally,
each node is counted once and every search of one call draws on one node
limit and one deadline. The budget also holds the call's split workers, and
the function that built it closes it, in a `with` block, so that no worker
outlives the call.
max_independent_set also takes a caller's _Budget in place of options, so
that one budget can cover a chain of searches.

There is one independent-set search, module orbital (loaded by the first
such search), behind max_independent_set and alpha_vertex_transitive. It
splits its pool into connected components and searches each distinct one
once: components whose rows, relabelled in sorted vertex order, are
identical are copies of one another (identical rows are an isomorphism
through the sorted vertex lists), one solution serves every copy, and
alphas add up. Symmetry is used only once it is proven: max_independent_set
takes vertex permutations as automorphisms and checks each against the
adjacency rows with core.check_automorphisms (adj[p[v]] must be the image
of adj[v]; ValueError otherwise), the one place permutations are checked.
Under the group they generate the search branches on orbits (orbital
branching), and a pool that the group fixes, every pool without them, goes
to the clique kernel. Its witness is re-checked on the whole graph, and a
spent budget bounds each part of the pool left open by the smaller of the
kernel's color count and a greedy clique cover. core.cloud_automorphisms
derives such permutations from a point cloud, which the command line reads
from the .coords sidecar that `build` writes. The coloring searches split
into distinct components the same way: a graph is k-colorable when every
component is, chi is the maximum over the components, and a stitched
coloring is re-checked on the whole graph.

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
    permute_rows,
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


# The first search of a call that splits the work it still has to do across
# processes, a clique search or a k-colorability search, splits once it has
# spent this many nodes; a later search of the call, whose budget already
# holds the workers, splits at its first check, at 256 nodes. Under a node
# limit a search splits only while at least this many nodes are left before
# it stops. Once no item of a split is left to take, the last item still
# running hands back the work it has left, to be split again, once it has
# searched this many nodes (or a process is idle). A call's first split of
# two empty items, the fork and, at the call's end, the reap, took 3.0, 4.9
# and 10.8 ms at 17, 54 and 115 MB resident, and each later split of the
# call, which sends its workers a job, 0.06-0.08 ms (medians of 30 and 120;
# 2-vCPU VM, Python 3.11). So a call pays for its fork once, a search that
# ends soon after this many nodes costs its call little more than that fork,
# and a later split costs too little to wait for.
_SPLIT_NODES = 1 << 10


class _Budget:
    """Node limit, deadline and nodes spent of one public call.

    Each public entry point, and each augmentation walk, builds one from its
    SolveOptions and passes it to every search it makes. A search counts its
    own nodes and consults the budget every 256 nodes, with exceeded(nodes),
    so the node count may overshoot the limit by up to 256. The search's
    entry adds its nodes to `spent`, the only node tally, and every search
    of one call shares the node limit.

    The first search of the call that splits forks the call's workers into
    `workers` (split._Workers), and every later split of the call uses
    them. Whoever builds a budget ends them with close(), in a `with`
    block, so no worker outlives the call.
    """

    __slots__ = ("node_limit", "deadline", "spent", "workers")
    hand_back = False  # only an item of a split hands its work back (split._ItemBudget)

    def __init__(self, options: SolveOptions):
        self.node_limit = options.node_budget
        self.deadline = None
        if options.time_budget is not None:
            self.deadline = time.monotonic() + options.time_budget
        self.spent = 0
        self.workers = None

    def close(self) -> None:
        """End the workers of the call's splits, if it forked any."""
        if self.workers is not None:
            self.workers.close()
            self.workers = None

    def __enter__(self) -> "_Budget":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
    order[i] renamed i; order lists every vertex of pool, and every row of
    adj has at most len(adj) bits (core.permute_rows)."""
    return permute_rows([adj[v] for v in order], order, len(adj))


def _max_clique_masks(adj, pool: int, *, initial_best: int = 0, stop_at: int | None = None,
                      budget: _Budget) -> tuple[int, int, int, str, int]:
    """Maximum independent set of the graph with bit rows `adj` among the
    vertices of mask `pool`: a maximum clique of its complement there.

    The complement rows are built for the pool's vertices only,
    pool & ~adj[v] minus v itself, in a list as long as adj; only the pool's
    vertices are ordered, relabelled and searched, and the returned mask is
    in the labels of `adj`. The search's nodes are added to budget.spent.

    initial_best acts as a virtual incumbent: only cliques strictly larger are
    searched for, and the returned value equals initial_best when none exists.
    Returns (value, mask, nodes, status, coloring_upper_bound) with status one
    of "complete", "target", "budget"; the upper bound is the number of greedy
    color classes at the root, so at most the pool's size.

    The pool is labelled in degeneracy order: the vertex that degeneracy
    ordering puts at position i gets bit i. Each node colors its candidate
    pool greedily, highest bit first, so the last-removed vertices are
    colored first, and the root takes at most the complement's degeneracy
    in the pool + 1 colors (smallest-last first-fit). Each colored vertex
    costs one bit_length over two tables built once per call:
    bit[v] = 1 << (v - 1) and anti[v], the non-neighbor row of vertex v - 1
    in the complement, its row of adj inside the pool. A class whose color is
    at or below the cut best - |clique| can never be branched on, because
    best only grows, so those classes are peeled without being recorded; the
    classes above the cut are kept as masks and branched highest color
    first, lowest bit first within a class, until the cut (re-read after
    every child, as best may have grown) is reached.

    The root is colored here and the rest is one depth-first search,
    _search. At one of the search's checks every 256 nodes, with at least
    two usable CPUs and, under a node limit, at least _SPLIT_NODES nodes left
    before the count at which the search stops, the work the search still
    has to do is split across the budget's workers (_split): once the search
    has spent _SPLIT_NODES nodes if the call has not forked them yet, at its
    first check if it has (_split_range).
    """
    if not pool:
        return (0, 0, 0, "complete", 0)
    rows = [0] * len(adj)
    for v in iter_bits(pool):
        rows[v] = pool & ~adj[v] ^ (1 << v)
    order = _degeneracy_order(rows, pool)
    search = _search_tuple(_relabel(rows, pool, order), stop_at, budget)
    full = (1 << len(order)) - 1
    classes, upper = _colour_classes(full, initial_best, search[1], search[2])
    root = (0, 0, full, classes, classes.pop() if classes else 0, upper)
    best, best_mask, nodes, status = _search(search, root, initial_best, 0, 1,
                                             split=_split_range(budget))
    budget.spent += nodes
    return (best, mask_from_indices(order[i] for i in iter_bits(best_mask)), nodes, status, upper)


def _split_range(budget: _Budget) -> tuple[int, float]:
    """(first, last): a search splits at the first of its checks, every 256
    nodes, whose count lies in first..last. first is _SPLIT_NODES while the
    call has no workers, whose fork the first split pays for, and 256, the
    first check, once budget.workers holds them. last is 0 (never) with
    fewer than two usable CPUs, and under a node limit _SPLIT_NODES before
    the count at which the search stops."""
    first = _SPLIT_NODES if budget.workers is None else 256
    if _usable_cpus() < 2:
        return (first, 0)
    stop = budget.stop_count()
    return (first, math.inf if stop is None else stop - _SPLIT_NODES)


def _search_tuple(nbr: list[int], stop_at: int | None, budget: _Budget) -> tuple:
    """(nbr, bit, anti, stop_at, budget, "clique"), the search of _search
    over relabelled rows nbr: bit[v] = 1 << (v - 1) and anti[v], the
    non-neighbour row of vertex v - 1, are indexed by v = mask.bit_length(),
    one more than the mask's top vertex."""
    n = len(nbr)
    full = (1 << n) - 1
    bit = [0] + [1 << v for v in range(n)]
    anti = [0] + [full ^ nbr[v] ^ bit[v + 1] for v in range(n)]
    return (nbr, bit, anti, stop_at, budget, "clique")


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
            trail: list | None = None, split: tuple = (0, 0)) -> tuple[int, int, int, str]:
    """The clique search below one colored node: its children not yet
    searched, and their subtrees.

    search is (nbr, bit, anti, stop_at, budget, "clique") of the call
    (_search_tuple). frame is the
    node's (clique size, clique mask, pool, classes not yet branched on,
    current class, its color); the pool holds the candidates not yet
    branched on. nodes is the call's running node count, which the budget is
    checked against every 256 nodes. Each improvement of best is appended to
    trail, if given, as (nodes, best, best_mask). At a check with
    split[0] <= nodes <= split[1] (_split_range), the work left is split
    (_split), and its result is returned. Returns (best, best_mask, nodes,
    status) with the same statuses as _max_clique_masks. The search keeps an
    explicit stack of parent frames, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    nbr, bit, anti, stop_at, budget, _ = search
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
            if split[0] <= nodes <= split[1] or budget.hand_back:
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


def _split(search, items: list, best: int, best_mask, nodes: int) -> tuple[int, object, int, str]:
    """The items, the work left at count nodes, searched across the
    budget's workers and this process (split.split_items) from incumbent
    best, then merged in order into the result the one-CPU search would
    return; search is a clique search (_search) or a coloring search
    (_color_search), and best_mask its witness. In an item of a split whose
    budget hands its work back (split._ItemBudget), the items are returned
    instead, as (best, items, nodes, "split"), for the merge to split again.

    Let S be the count at which the one-CPU search stops under the node
    limit (_Budget.stop_count), and n0 the count at which it would start an
    item. A result from the split is taken only while best is still the
    incumbent of the split and no deadline stopped it: if it ran to S - n0
    nodes or more, as the one-CPU stop: status "budget", nodes S, and the
    last improvement below S - n0 nodes into the item; otherwise, if the
    item handed its work back, its items are split again in the same way
    from count n0 plus its nodes, and merged before the next item; else as
    it is. Any other item is searched here; an item that best cuts, or
    whose pool is empty, costs no node there. A worker's cliques and
    colorings are re-checked before they are taken. The rounds of the
    split nest on a list, not on the interpreter's stack.
    """
    if search[4].hand_back:
        return (best, items, nodes, "split")
    from . import split  # loaded only by a search that splits
    stop = search[4].stop_count()
    processes = _usable_cpus()
    shared = split.split_items(search, items, best, nodes, processes)
    split_best = best
    rounds = []  # (items, results, next position) of each round a nested one interrupted
    i = 0
    while True:
        if i == len(items):
            if not rounds:
                return (best, best_mask, nodes, "complete")
            items, shared, i = rounds.pop()
            continue
        item = items[i]
        got = shared.get(i) if best == split_best else None
        i += 1
        if got is not None:
            count, status, rest = got  # rest: the improvements, or the items handed back
            if status == "split" and (stop is None or nodes + count < stop):
                rounds.append((items, shared, i))
                nodes += count
                items, i = rest, 0
                shared = split.split_items(search, items, best, nodes, processes)
                continue
            trail = [] if status == "split" else rest
            if stop is not None and nodes + count >= stop:
                trail = [t for t in trail if nodes + t[0] < stop]
                nodes, status = stop, "budget"
            elif status != "budget":
                nodes += count
            else:
                got = None
        if got is None:
            best, best_mask, nodes, status = _search_item(search, item, best, best_mask, nodes)
        elif trail:
            _, value, witness = trail[-1]
            if not _witness_holds(search, value, witness):
                raise RuntimeError(f"a {search[5]} from a split search failed its re-check")
            best, best_mask = value, witness
        if status != "complete":
            return (best, best_mask, nodes, status)


def _search_item(search, item, best: int, best_mask, nodes: int, trail: list | None = None):
    """One item of a split, searched by the function of the search's kind,
    search[5]: _search for "clique", _color_search for "coloring"."""
    run = _search if search[5] == "clique" else _color_search
    return run(search, item, best, best_mask, nodes, trail)


def _new_search(kind: str, rows, arg, budget: _Budget) -> tuple:
    """The search tuple of kind over rows, arg being search[3]: stop_at of a
    clique search (_search_tuple), k of a coloring search (_color_tuple)."""
    return (_search_tuple if kind == "clique" else _color_tuple)(rows, arg, budget)


def _witness_holds(search, value: int, witness) -> bool:
    """Whether a split's witness holds in the search's rows: a clique of
    size value, or a proper coloring with colors 1..k."""
    rows = search[0]
    if search[5] == "clique":
        return _is_clique(rows, witness, value)
    return check_coloring(Graph._trusted(len(rows), tuple(rows)), witness, search[3])


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


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------


def _distinct_components(g: Graph, pool: int) -> list[tuple[Graph, list[tuple[int, ...]]]]:
    """Each distinct connected component of g inside mask pool once, as
    (subgraph, copies) in order of first appearance.

    The subgraph's rows are relabelled in sorted vertex order, so components
    with identical rows are copies, and copy[v] is the vertex of g that
    subgraph vertex v stands for. The rows are relabelled by
    core.permute_rows, as _relabel's are, after a shift that puts the
    component's lowest vertex at bit 0, so each row is written out only as
    wide as the component's span. A pool that is one connected component
    comes back as g itself, with the identity as its one copy and no
    relabelled copy built: the caller searches the pool in g's own rows.
    """
    comps = connected_components(g, pool)
    if len(comps) == 1:
        return [(g, [tuple(range(g.n))])]
    groups: dict[tuple[int, ...], tuple[Graph, list[tuple[int, ...]]]] = {}
    for comp in comps:
        copy = comp.indices()
        first = copy[0]
        rows = tuple(permute_rows([(g.adj[v] & comp.bits) >> first for v in copy],
                                  [v - first for v in copy], copy[-1] - first + 1))
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


def max_independent_set(g: Graph, options: SolveOptions | None = None, automorphisms=(), *,
                        budget: _Budget | None = None) -> MisResult | MisIncomplete:
    """Exact alpha(g) with witness, or the certified bracket of a spent budget.

    automorphisms is a sequence of vertex permutations of g, p[v] being the
    image of v, as from core.cloud_automorphisms; core.check_automorphisms
    checks each against the adjacency rows first, and one that is not an
    automorphism raises ValueError. The search is orbital.independent_set,
    orbital branching under the group they generate, which with none is the
    clique kernel over each distinct component of g. A caller that spends
    one budget over several searches passes it as `budget` instead of
    options, and closes it when they are done. wall_time covers the whole
    call.
    """
    t0 = time.perf_counter()
    check_automorphisms(g, automorphisms)
    owned = budget is None
    if owned:
        budget = _Budget(options or SolveOptions())
    try:
        from . import orbital  # loaded by the first independent-set search
        return orbital.independent_set(g, list(automorphisms), 0, budget, t0)
    finally:
        if owned:
            budget.close()


def alpha_vertex_transitive(g: Graph, pivot: int,
                            options: SolveOptions | None = None) -> MisResult | MisIncomplete:
    """alpha(g) for vertex-transitive g, via one level of pivot reduction.

    Valid only when the caller knows g is vertex-transitive: some maximum
    independent set then contains the pivot, so alpha(g) is the largest
    independent set through it, which orbital.independent_set searches with
    the pivot as its set S and, without generators, the pivot's
    non-neighbours as its pool. It is not exported, and only the
    benchmark's alpha_exact workload (perfbench) calls it; it goes with
    ROADMAP item 3's benchmark change, which moves that workload to
    max_independent_set with automorphisms the solver checks.
    """
    if not 0 <= pivot < g.n:
        raise ValueError(f"pivot {pivot} out of range")
    t0 = time.perf_counter()
    from . import orbital
    with _Budget(options or SolveOptions()) as budget:
        return orbital.independent_set(g, [], 1 << pivot, budget, t0)


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
    with _Budget(options or SolveOptions()) as budget:
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
    is forced.

    The root, one node, selects the first vertex, whose only color is the
    first; the rest is one depth-first search below that choice,
    _color_search, which splits its work across the budget's workers as the
    clique search does (_split). Its nodes are added to budget.spent.
    """
    search = _color_tuple(g.adj, k, budget)
    bucket = [0] * k
    bucket[0] = g.full_mask
    v, _ = _dsatur_select(bucket, search[1])
    _, coloring, nodes, status = _color_search(search, ((v, 0),), 0, None, 1,
                                               split=_split_range(budget))
    budget.spent += nodes
    if status == "target":
        return KColorOutcome("colorable", coloring, nodes)
    return KColorOutcome("uncolorable" if status == "complete" else "unknown", None, nodes)


def _color_tuple(adj, k: int, budget: _Budget) -> tuple:
    """(adj, levels, full, k, budget, "coloring"), the search of
    _color_search over rows adj: levels are the degree masks of
    _degree_levels, full the mask of every vertex."""
    n = len(adj)
    return (adj, _degree_levels(adj, n), (1 << n) - 1, k, budget, "coloring")


def _color_search(search, path: tuple, best: int, coloring, nodes: int,
                  trail: list | None = None, split: tuple = (0, 0)) -> tuple[int, object, int, str]:
    """The coloring search below one choice: path is the (vertex, color)
    choices from the root, each 0-based, and the search tries the last
    choice, with no other color for its vertex, and then the subtree below.

    search is (adj, levels, full, k, budget, "coloring") of the call
    (_color_tuple). The choices before the last are replayed, in the
    order the search made them, so the state below them is the one the
    search had there. nodes is the call's running node count, one per
    vertex colored, which the budget is checked against every 256 nodes. At
    a check with split[0] <= nodes <= split[1] (_split_range), the work left
    is split (_split), and its result is returned. Returns (best, coloring, nodes,
    status), best passed through unchanged for the split's merge, with
    status "target" and the coloring (colors 1..k; also appended to trail,
    if given, as (nodes, best, coloring)) when one is found, "complete"
    when none exists below the choice, and "budget" when the budget stops
    the search. The search keeps an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    adj, levels, full, k, budget, _ = search
    top = k - 1
    colors = [0] * len(adj)
    forb = [0] * k
    # Saturations 0..k-1 only: a vertex reaching k would make the node dead.
    bucket = [0] * k
    bucket[0] = uncolored = full
    max_used = 0
    last = len(path) - 1
    for i, (v, c) in enumerate(path):
        s = 0
        while not (bucket[s] >> v) & 1:
            s += 1
        bucket[s] ^= 1 << v
        uncolored ^= 1 << v
        if i == last:
            break
        newly = adj[v] & uncolored & ~forb[c]
        forb[c] |= newly
        colors[v] = c + 1
        _raise_saturation(bucket, newly)
        max_used = max(max_used, c + 1)
    # One frame per colored vertex: [vertex, color tried, color limit,
    # max_used on entry, buckets before its coloring, vertices it saturated].
    stack: list[list] = [[v, c - 1, c + 1, max_used, bucket, 0]]

    while True:
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
            return (best, coloring, nodes, "complete")

        nodes += 1
        if nodes & 255 == 0 and budget.exceeded(nodes):
            return (best, coloring, nodes, "budget")
        if not uncolored:
            coloring = tuple(colors)
            if trail is not None:
                trail.append((nodes, best, coloring))
            return (best, coloring, nodes, "target")
        v, s = _dsatur_select(bucket, levels)
        bucket[s] ^= 1 << v
        uncolored ^= 1 << v
        stack.append([v, -1, min(max_used + 1, k), max_used, bucket, 0])
        if nodes & 255 == 0 and (split[0] <= nodes <= split[1] or budget.hand_back):
            items = _color_pending(adj, top, path[:-1], stack, forb, uncolored)
            if len(items) >= 2:
                return _split(search, items, best, coloring, nodes)


def _color_pending(adj, top: int, path: tuple, stack: list[list], forb: list[int],
                   uncolored: int) -> list[tuple]:
    """The colors not yet tried of each frame of stack, the frames on top of
    the choices path, deepest frame first, each frame's in the order the
    search tries them; only the live ones, those that the search would
    count a node for.

    Each is an item: the path of (vertex, color) choices from the root down
    to it, for _color_search. Walking down the stack, each frame's own color
    is taken back out of forb, and its vertex put back among the uncolored,
    so each frame's colors are tested against the state the search tests
    them in.
    """
    forb = forb[:]
    chosen = [*path, *((frame[0], frame[1]) for frame in stack)]
    items = []
    for depth in range(len(stack) - 1, -1, -1):
        v, c, limit, _, base, newly = stack[depth]
        if c >= 0:
            forb[c] ^= newly
        row = adj[v] & uncolored
        above = tuple(chosen[:len(path) + depth])
        for c in range(c + 1, limit):
            fc = forb[c]
            if not (fc >> v) & 1 and not base[top] & row & ~fc:
                items.append((*above, (v, c)))
        uncolored |= 1 << v
    return items


def _chi_connected(g: Graph, budget: _Budget) -> tuple[int, int, tuple[int, ...]]:
    """(lower, upper, coloring with `upper` colors) for the chromatic number
    of one connected graph, by bracket-and-close; exact when lower == upper."""
    if g.edge_count() == 0:
        return (1, 1, (1,) * g.n)
    upper, upper_coloring = greedy_coloring_bound(g)
    lower = clique_lower_bound(g)
    if lower == upper:  # a clique as large as the coloring closes chi
        return (upper, upper, upper_coloring)

    alpha, _, _, status, alpha_upper = _max_clique_masks(g.adj, g.full_mask, budget=budget)
    lower = max(lower, ratio_lower_bound(g.n, alpha if status == "complete" else alpha_upper))

    # One try from the top before the bottom-up close: a coloring with one
    # color fewer than DSATUR's lowers the upper end even when the budget
    # then runs out below it, and a refutation closes chi at once.
    if upper - 1 > lower:
        outcome = _k_color(g, upper - 1, budget)
        if outcome.status == "uncolorable":
            return (upper, upper, upper_coloring)
        if outcome.status == "colorable":
            upper, upper_coloring = upper - 1, outcome.coloring

    # _k_color needs 2 <= k < upper: g has an edge, so its clique bound is 2.
    for k in range(lower, upper):
        outcome = _k_color(g, k, budget)
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
    lower = upper = 0
    solved = []
    with _Budget(options or SolveOptions()) as budget:
        for sub, copies in _distinct_components(g, g.full_mask):
            sub_lower, sub_upper, sub_coloring = _chi_connected(sub, budget)
            lower = max(lower, sub_lower)
            upper = max(upper, sub_upper)
            solved.append((copies, sub_coloring))
    coloring = _stitched_coloring(g, solved, upper)
    if lower == upper:
        return ColoringResult(upper, coloring, budget.spent)
    return ChiBracket(lower, upper, coloring, budget.spent)
