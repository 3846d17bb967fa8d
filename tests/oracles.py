"""Brute-force reference implementations used only by the test suite.

These are deliberately independent of the package's solvers: the independence
number is computed by dynamic programming over all vertex subsets, cliques by
direct subset checking, and colorability by plain backtracking over a static
vertex order. reference_dsatur keeps the straightforward DSATUR scan over all
uncolored vertices, against which the package's bit-mask selector is pinned.
reference_max_clique keeps the recursive clique kernel that the package's
explicit-stack kernel replaced, as a differential oracle for its node counts,
witnesses, statuses and bounds. reference_degeneracy_order keeps the full
scan for the minimum-degree vertex that the package's degree buckets
replaced. reference_relabel, reference_check_automorphisms and
reference_components keep the per-bit loops over each row that
core.permute_rows replaced. reference_graph_from_points keeps the pairwise
distance loop that core.graph_from_points' packed rows replaced.
"""
import sys

import unitdist as ud
from unitdist.core import connected_components, iter_bits, sq_dist
from unitdist.solve import _Budget


def brute_alpha(g: ud.Graph) -> int:
    """alpha via the subset recurrence alpha(S) = max(skip v, take v)."""
    n = g.n
    adj = g.adj
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        skip = table[mask ^ low]
        take = 1 + table[mask & ~(adj[v] | low)]
        table[mask] = take if take > skip else skip
    return table[(1 << n) - 1]


def brute_max_clique(g: ud.Graph) -> int:
    """Maximum clique by checking every vertex subset directly."""
    best = 0
    adj = g.adj
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= best:
            continue
        rest = mask
        ok = True
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if (mask ^ low) & ~adj[v]:
                ok = False
                break
        if ok:
            best = size
    return best


def brute_k_colorable(g: ud.Graph, k: int) -> bool:
    """Plain backtracking over a static descending-degree vertex order."""
    n = g.n
    if n == 0:
        return True
    adj = g.adj
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    colors = [0] * n

    def assign(pos: int, used: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        taken = set()
        row = adj[v]
        for w in order[:pos]:
            if (row >> w) & 1:
                taken.add(colors[w])
        limit = min(k, used + 1)
        for c in range(1, limit + 1):
            if c in taken:
                continue
            colors[v] = c
            if assign(pos + 1, max(used, c)):
                return True
        colors[v] = 0
        return False

    return assign(0, 0)


def brute_chi(g: ud.Graph) -> int:
    if g.n == 0:
        return 0
    k = 1
    while not brute_k_colorable(g, k):
        k += 1
    return k


def reference_dsatur(g: ud.Graph) -> tuple[int, tuple[int, ...]]:
    """DSATUR by a full scan of the uncolored vertices for every pick.

    Max saturation, tie max degree, tie lowest index; each vertex takes its
    lowest free color. Returns (color count, coloring with colors 1..count).
    """
    n = g.n
    if n == 0:
        return (0, ())
    adj = g.adj
    degs = [adj[v].bit_count() for v in range(n)]
    forbidden = [0] * n
    colors = [0] * n
    for _ in range(n):
        best_v, best_key = -1, (-1, -1)
        for v in range(n):
            if colors[v] == 0:
                key = (forbidden[v].bit_count(), degs[v])
                if key > best_key:
                    best_key, best_v = key, v
        c = 0
        while (forbidden[best_v] >> c) & 1:
            c += 1
        colors[best_v] = c + 1
        for w in range(n):
            if (adj[best_v] >> w) & 1 and colors[w] == 0:
                forbidden[w] |= 1 << c
    return (max(colors), tuple(colors))


def reference_degeneracy_order(adj, pool: int) -> list[int]:
    """Smallest-last removal order of the vertices of pool, by scanning every
    remaining vertex for the lowest degree inside pool, lowest index first."""
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


class _Abort(Exception):
    """Stops a clique search; args[0] is the status, "budget" or "target"."""


def reference_max_clique(adj, n: int, *, initial_best: int = 0, stop_at: int | None = None,
                         options) -> tuple[int, int, int, str, int]:
    """The recursive clique kernel that every vertex of every node colors.

    Same contract as unitdist.solve._max_clique_masks: returns
    (value, mask, nodes, status, coloring_upper_bound).
    """
    if n == 0:
        return (0, 0, 0, "complete", 0)
    # branch depth is bounded by the clique size, which can reach n
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * n + 200))
    order = reference_degeneracy_order(adj, (1 << n) - 1)
    nbr = reference_relabel(adj, (1 << n) - 1, order)
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
        # Greedy color classes over the candidate pool, highest index first.
        m = 0
        rest = pool
        color = 0
        while rest:
            color += 1
            q = rest
            while q:
                v = q.bit_length() - 1
                low = 1 << v
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


def reference_relabel(adj, pool: int, order: list[int]) -> list[int]:
    """The rows of the pool's vertices, restricted to pool, with vertex
    order[i] renamed i, one bit at a time, highest bit first."""
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


def reference_check_automorphisms(g: ud.Graph, perms) -> None:
    """core.check_automorphisms with each row's image built one bit at a
    time: the same ValueErrors for the same permutations and vertices."""
    n = g.n
    adj = g.adj
    bit = [0] + [1 << w for w in range(n)]
    for i, p in enumerate(perms):
        if sorted(p) != list(range(n)):
            raise ValueError(f"automorphism {i} is not a permutation of the {n} vertices")
        pbit = [0] + [bit[w + 1] for w in p]
        for v in range(n):
            row = adj[v]
            image = 0
            while row:
                w = row.bit_length()
                row ^= bit[w]
                image |= pbit[w]
            if adj[p[v]] != image:
                raise ValueError(f"automorphism {i} maps the neighbours of vertex {v} "
                                 f"onto vertices that are not the neighbours of {p[v]}")


def reference_graph_from_points(cloud: ud.PointCloud) -> ud.Graph:
    """The graph of core.graph_from_points, one squared distance per pair."""
    n = len(cloud.points)
    target = cloud.adjacency_sq_dist
    adj = [0] * n
    pts = cloud.points
    for i in range(n):
        for j in range(i + 1, n):
            if sq_dist(pts[i], pts[j]) == target:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return ud.Graph(n, tuple(adj))


def reference_components(g: ud.Graph, pool: int) -> list[tuple[tuple, list[tuple[int, ...]]]]:
    """(relabelled rows, copies) of solve._distinct_components, for a pool of
    more than one component: each component's rows relabelled in sorted
    vertex order one bit at a time, components with identical rows grouped
    in order of first appearance."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for comp in connected_components(g, pool):
        copy = comp.indices()
        pos = {v: 1 << i for i, v in enumerate(copy)}
        rows = tuple(sum(pos[w] for w in iter_bits(g.adj[v] & comp.bits)) for v in copy)
        groups.setdefault(rows, []).append(copy)
    return list(groups.items())
