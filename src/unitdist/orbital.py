"""The one independent-set search, behind solve.max_independent_set and
solve.alpha_vertex_transitive, and the permutation group code it needs: a
maximum independent set through a given independent set of pivots, by
orbital branching under the group of checked automorphisms, none for a
plain solve. solve loads this module on its first independent-set search,
so the package import does not grow with it.

The search (Ostrowski, Linderoth, Rossi and Smriglio, "Orbital branching",
Math. Program. 2011) is a tree of nodes (S, pool, H): the vertices of S are
in the independent set, the pool holds the vertices adjacent to none of
them, and H, given by generators, is a group of automorphisms that fixes S
pointwise and maps the pool onto itself. Some maximum independent set
through a node that meets an orbit O of H in the pool contains its smallest
vertex v, since an element of H maps any vertex of O onto v; so a node
branches into "add v", under the stabiliser H_v, and "delete all of O",
under H, and no set is lost. With no generators every orbit is one vertex,
so the search is the clique kernel over each distinct component of the
pool. Details are in _search.

A permutation is a tuple p with p[v] the image of vertex v, as core's
permutations are; products are taken right to left, (a * b)[v] = a[b[v]],
and computed by operator.itemgetter, so one product of permutations of at
least two vertices costs one pass in C. Nothing here checks that a
permutation is an automorphism: the generators come from
core.check_automorphisms, and every permutation built here is a product of
them and their inverses. The group code is three things: the orbits of a
group inside a pool mask that it maps onto itself (pool_orbits), a Schreier
vector for one orbit, whose transversal elements and their inverses are
built on demand and cached (Schreier), and random Schreier generators of a
point stabiliser (stabiliser; Seress, Permutation Group Algorithms, 2003).
A random sample generates a subgroup of the stabiliser, possibly a proper
one, and a subgroup only makes orbits finer, so the sample can cost the
search nodes but never its correctness.
"""
from __future__ import annotations

import random
import time
from operator import itemgetter

from . import solve
from .core import Graph, VertexSet, iter_bits, mask_from_indices, orbit

# Each stabiliser is given by the distinct non-trivial results of this many
# random Schreier draws, from one random.Random per solve seeded with SEED.
# Over Gosset, C(10,4,5), H(10,4), C(8,6) and H(11,4), 8 draws left the
# Gosset stabilisers short (1,562 nodes against 14) and 16 those of
# C(10,4,5) (300 against 100); 64 and 128 saved C(10,4,5) 23 nodes and
# cost H(11,4) 1.6 and 2.6 s against 1.1 s, its nodes the same.
DRAWS = 32
SEED = 0


def independent_set(g: Graph, perms: list, pivots: int, budget, t0: float):
    """A maximum independent set of g that holds the independent set mask
    pivots, under the group of the checked permutations perms (none for a
    plain solve), timed from t0: a MisResult, or a MisIncomplete whose upper
    bound is the largest |S| plus bound over the nodes left open. The root
    takes S = pivots and the pool of the vertices that are neither pivots
    nor adjacent to one, and the pivots are the first incumbent, so a search
    stopped at once still returns them. The witness is re-checked on g."""
    spent_before = budget.spent
    pool = g.full_mask ^ pivots
    for v in iter_bits(pivots):
        pool &= ~g.adj[v]
    bit = [0] + [1 << v for v in range(g.n)]
    search = (g, solve._complement_rows(g), bit, [0, *g.adj], budget, random.Random(SEED))
    best, mask, upper, status = _nested(search, pool, perms, pivots)
    witness = VertexSet(g.n, mask)
    if not solve.check_independent_set(g, witness):
        raise RuntimeError("independent set from the orbital search failed its re-check")
    elapsed = time.perf_counter() - t0
    nodes = budget.spent - spent_before
    if status == "complete":
        return solve.MisResult(best, witness, nodes, elapsed)
    return solve.MisIncomplete(best, upper, witness, nodes, elapsed)


def _nested(search, pool: int, gens: list, taken: int) -> tuple[int, int, int, str]:
    """_search over pool from the set taken, with the searches it nests run
    in turn.

    _search is a generator that yields (component, generators) when it needs
    a component's own search and is sent that search's result. The open
    searches wait on a list, not on the interpreter's stack, so the depth of
    the nesting is not bounded by the recursion limit.
    """
    searches = [_search(search, pool, gens, taken)]
    result = None
    while True:
        try:
            request = searches[-1].send(result)
        except StopIteration as done:
            searches.pop()
            result = done.value
            if not searches:
                return result
        else:
            searches.append(_search(search, *request))
            result = None


def _cover(pool: int, bit: list[int], anti: list[int]) -> int:
    """The size of a greedy clique cover of pool, highest bit first, over
    tables like those of solve._max_clique_masks, built on g's own rows:
    every class is a clique of g, so pool holds at most this many
    independent vertices."""
    return solve._colour_classes(pool, pool.bit_count(), bit, anti)[1]


def _search(search, pool: int, gens: list, taken: int = 0):
    """A maximum independent set made of the set mask taken, the root's S
    and first incumbent, and vertices of mask pool, the vertices adjacent to
    none of taken; a generator run by _nested, which it asks for each
    component search it needs. Returns (best, witness mask, upper bound,
    status), status "complete" or "budget".

    search is (g, complement rows, bit, anti, budget, random numbers) of the
    call. A node is (|S|, S, pool, generators, v); when v >= 0, the group of
    the node is the stabiliser of v in that of the generators given, drawn
    when the node is reached. A node is pruned when |S| plus a greedy clique
    cover of its pool is no more than the incumbent. A pool of more than one
    connected component is the sum of its distinct components
    (solve._distinct_components), each found by a search of its own, under
    the generators that map it onto itself, and the witness of each serves
    every copy. Otherwise, when H fixes every vertex of the pool, the clique
    kernel searches the pool from the incumbent. Otherwise the node takes
    H's largest orbit O in the pool, the first of equal size, and its
    smallest vertex v; the child that adds v, under random Schreier
    generators of H_v, is searched before the one that deletes O. Only these
    orbital nodes count, one node each, added to budget.spent as they are
    made; the kernel counts its own. Every node that is not pruned checks
    the budget. A search that the budget stops returns as its upper bound
    the largest |S| plus bound over the nodes left open: a pool's greedy
    clique cover, or the smaller of that and the kernel's root color count
    for the pool the kernel stopped in.
    """
    g, crows, bit, anti, budget, rng = search
    best, best_mask = taken.bit_count(), taken
    stack = [(best, taken, pool, gens, -1)]

    def stopped(upper: int):
        for size, _, rest, _, _ in stack:
            upper = max(upper, size + _cover(rest, bit, anti))
        return best, best_mask, max(best, upper), "budget"

    while stack:
        size, mask, pool, gens, fixed = stack.pop()
        cover = _cover(pool, bit, anti)
        if size + cover <= best:
            continue
        if not pool:
            best, best_mask = size, mask
            continue
        if budget.exceeded():
            return stopped(size + cover)
        if fixed >= 0:
            gens = stabiliser(gens, fixed, pool, rng, DRAWS)
        components = solve._distinct_components(g, pool)
        if components[0][0] is not g:  # more than one connected component
            total, bits, upper, status = size, mask, size, "complete"
            for _, copies in components:
                first = mask_from_indices(copies[0])
                if status != "complete":
                    upper += _cover(first, bit, anti) * len(copies)
                    continue
                low = copies[0][0]
                value, found, sub_upper, status = yield (
                    first, [p for p in gens if (first >> p[low]) & 1])
                total += value * len(copies)
                upper += sub_upper * len(copies)
                at = {v: i for i, v in enumerate(copies[0])}
                for copy in copies:
                    bits |= mask_from_indices(copy[at[v]] for v in iter_bits(found))
            if total > best:
                best, best_mask = total, bits
            if status != "complete":
                return stopped(upper)
            continue
        largest = max(pool_orbits(gens, pool), key=int.bit_count)
        if largest & (largest - 1) == 0:  # H fixes every vertex of the pool
            value, found, nodes, status, kernel_upper = solve._max_clique_masks(
                crows, pool, initial_best=max(best - size, 0), budget=budget)
            budget.spent += nodes
            if size + value > best:
                best, best_mask = size + value, mask | found
            if status != "complete":
                return stopped(size + min(kernel_upper, cover))
            continue
        budget.spent += 1
        low = largest & -largest
        v = low.bit_length() - 1
        stack.append((size, mask, pool & ~largest, gens, -1))
        stack.append((size + 1, mask | low, pool & ~g.adj[v] & ~low, gens, v))
    return best, best_mask, best, "complete"


def _product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a * b, which maps v to a[b[v]]."""
    return itemgetter(*b)(a)


def pool_orbits(perms, pool: int) -> list[int]:
    """The orbits inside mask pool of the group that perms generate, each a
    vertex mask (core.orbit), ordered by smallest vertex; every p must map
    pool onto itself."""
    orbits = []
    while pool:
        o = orbit(perms, (pool & -pool).bit_length() - 1)
        orbits.append(o)
        pool &= ~o
    return orbits


class Schreier:
    """A Schreier vector of the orbit of vertex v under perms.

    Each vertex w of the orbit other than v records the generator that first
    reached it in a breadth-first search from v, and the vertex it came
    from. The transversal element u(w), a product of generators that maps v
    to w, is built only when asked for, by one product per vertex on the way
    back to the nearest one already built, and it and its inverse are cached.
    """

    def __init__(self, perms, v: int):
        self.perms = perms
        self.back: dict[int, tuple[int, int]] = {}  # w -> (generator index, vertex before w)
        self.orbit = [v]
        seen = {v}
        for u in self.orbit:
            for i, p in enumerate(perms):
                w = p[u]
                if w not in seen:
                    seen.add(w)
                    self.back[w] = (i, u)
                    self.orbit.append(w)
        identity = tuple(range(len(perms[0])))
        self._built = {v: identity}
        self._inverses: dict[int, tuple[int, ...]] = {v: identity}

    def transversal(self, w: int) -> tuple[int, ...]:
        """u(w), which maps v to w."""
        path = []
        while w not in self._built:
            path.append(w)
            w = self.back[w][1]
        u = self._built[w]
        for w in reversed(path):
            u = _product(self.perms[self.back[w][0]], u)
            self._built[w] = u
        return u

    def inverse(self, w: int) -> tuple[int, ...]:
        """u(w)^-1, which maps w to v."""
        inv = self._inverses.get(w)
        if inv is None:
            u = self.transversal(w)
            inv = [0] * len(u)
            for x, y in enumerate(u):
                inv[y] = x
            inv = self._inverses[w] = tuple(inv)
        return inv


def stabiliser(perms, v: int, pool: int, rng: random.Random, draws: int) -> list[tuple[int, ...]]:
    """Random Schreier generators of the stabiliser of v in the group that
    perms generate, kept when they move a vertex of mask pool.

    Each of `draws` draws takes a random vertex w of v's orbit and a random
    generator s, and forms u(s(w))^-1 * s * u(w), which fixes v. Draws that
    act on pool as the identity, or as a generator already kept, are
    dropped, so the result lists distinct actions on pool, in draw order.
    """
    if not perms:
        return []
    schreier = Schreier(perms, v)
    on_pool = itemgetter(*iter_bits(pool))
    kept = {on_pool(schreier.transversal(v))}
    gens = []
    for _ in range(draws):
        w = rng.choice(schreier.orbit)
        s = perms[rng.randrange(len(perms))]
        h = _product(schreier.inverse(s[w]), _product(s, schreier.transversal(w)))
        action = on_pool(h)
        if action not in kept:
            kept.add(action)
            gens.append(h)
    return gens
