import fcntl
import marshal
import os
import random
import signal
import sys
import threading
import time

import pytest

import unitdist as ud
from unitdist import e8, solve, split
from unitdist.core import iter_bits
from unitdist.solve import (
    SolveOptions,
    _Budget,
    _complement_rows,
    _degeneracy_order,
    _distinct_components,
    _max_clique_masks,
    _relabel,
)

from conftest import random_graph
from oracles import (
    brute_alpha,
    brute_chi,
    brute_k_colorable,
    brute_max_clique,
    reference_components,
    reference_degeneracy_order,
    reference_dsatur,
    reference_max_clique,
    reference_relabel,
)


def complete_graph(n: int) -> ud.Graph:
    return ud.Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def clique_search(adj, pool: int, options: SolveOptions = SolveOptions(), **keywords):
    """_max_clique_masks under a budget of its own, whose workers, if the
    search splits, are ended before this returns."""
    with _Budget(options) as budget:
        return _max_clique_masks(adj, pool, budget=budget, **keywords)


def disjoint_union(graphs, labels) -> ud.Graph:
    """Union of graphs; labels[i][v] is the union's vertex for vertex v of graphs[i]."""
    n = sum(g.n for g in graphs)
    return ud.Graph.from_edges(n, [(lab[i], lab[j]) for g, lab in zip(graphs, labels)
                                   for i, j in g.edges()])


def interleaved_labels(rng: random.Random, sizes, keep_order: bool) -> list[list[int]]:
    """Labels that interleave the parts of a union at random. With keep_order
    each part's vertices keep their relative order; otherwise they are shuffled."""
    slots = [i for i, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(slots)
    labels: list[list[int]] = [[] for _ in sizes]
    for vertex, part in enumerate(slots):
        labels[part].append(vertex)
    if not keep_order:
        for lab in labels:
            rng.shuffle(lab)
    return labels


class TestOracleSanity:
    # the oracles themselves, pinned on hand-checkable graphs
    def test_path_and_cycle(self):
        path = ud.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert brute_alpha(path) == 2
        assert brute_chi(path) == 2
        five_cycle = ud.Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert brute_alpha(five_cycle) == 2
        assert brute_chi(five_cycle) == 3
        assert brute_max_clique(five_cycle) == 2

    def test_complete(self):
        k4 = complete_graph(4)
        assert brute_alpha(k4) == 1
        assert brute_chi(k4) == 4
        assert brute_max_clique(k4) == 4


class TestMaxIndependentSet:
    def test_alpha_h52(self, h52):
        g, _ = h52
        res = ud.max_independent_set(g)
        assert isinstance(res, ud.MisResult)
        assert res.alpha == 2
        assert len(res.witness) == 2
        assert ud.check_independent_set(g, res.witness)

    def test_edgeless(self):
        g = ud.Graph(7, (0,) * 7)
        res = ud.max_independent_set(g)
        assert res.alpha == 7

    def test_empty_graph(self):
        res = ud.max_independent_set(ud.Graph(0, ()))
        assert res.alpha == 0

    def test_complete_graph(self):
        res = ud.max_independent_set(complete_graph(6))
        assert res.alpha == 1

    def test_matches_subset_dp_oracle(self):
        rng = random.Random(42)
        for _ in range(120):
            n = rng.randrange(1, 19)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            res = ud.max_independent_set(g)
            assert res.alpha == brute_alpha(g)
            assert ud.check_independent_set(g, res.witness)
            assert len(res.witness) == res.alpha

    def test_budget_gives_incomplete_with_valid_bracket(self, slice1045):
        g, _ = slice1045
        res = ud.max_independent_set(g, ud.SolveOptions(node_budget=200))
        assert isinstance(res, ud.MisIncomplete)
        assert res.lower_bound <= 12 <= res.upper_bound
        assert ud.check_independent_set(g, res.witness)
        assert len(res.witness) == res.lower_bound

    def test_single_thread_determinism(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_graph(rng, rng.randrange(10, 40), 0.5)
            first = ud.max_independent_set(g)
            second = ud.max_independent_set(g)
            assert first.alpha == second.alpha
            assert first.witness == second.witness
            assert first.nodes_explored == second.nodes_explored

    def test_g0_node_count(self, g0_pair):
        g, _ = g0_pair
        res = ud.max_independent_set(g)
        assert isinstance(res, ud.MisResult)
        assert res.alpha == 16 and res.nodes_explored == 178808
        assert ud.check_independent_set(g, res.witness)

    def test_slice_node_count(self, slice1045):
        g, _ = slice1045
        res = ud.max_independent_set(g)
        assert isinstance(res, ud.MisResult)
        assert res.alpha == 12 and res.nodes_explored == 443815
        assert ud.check_independent_set(g, res.witness)

    def test_deep_clique_leaves_recursion_limit_alone(self):
        # A star is connected, and its 1499 leaves are independent: the
        # complement's clique search is 1499 vertices deep.
        n = 1500
        limit = sys.getrecursionlimit()
        res = ud.max_independent_set(ud.Graph.from_edges(n, [(0, v) for v in range(1, n)]))
        assert isinstance(res, ud.MisResult) and res.alpha == n - 1
        assert sys.getrecursionlimit() == limit

    def test_deep_clique_split_hands_nothing_back(self, monkeypatch):
        # Split on two CPUs at 1,024 nodes, the star's clique search leaves
        # 1,010,178 items, which reach the worker through the fork. None of
        # them hands its work back, so no such list goes to a worker again.
        n = 1500
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        splits = []
        real = split.split_items

        def split_items(search, items, *args):
            out = real(search, items, *args)
            handed = sum(len(rest) for _, status, rest in out.values() if status == "split")
            splits.append((len(items), handed))
            return out

        monkeypatch.setattr(split, "split_items", split_items)
        res = ud.max_independent_set(ud.Graph.from_edges(n, [(0, v) for v in range(1, n)]))
        assert isinstance(res, ud.MisResult) and res.alpha == n - 1
        assert splits == [(1_010_178, 0)]

    def test_c86_solved_one_half_at_a_time(self):
        g, _ = ud.hamming_graph(8, 6)
        res = ud.max_independent_set(g, ud.SolveOptions(node_budget=50_000))
        assert isinstance(res, ud.MisResult)
        assert res.alpha == 58 and res.nodes_explored == 15313
        assert len(res.witness) == 58 and ud.check_independent_set(g, res.witness)

    def test_c94_solved_one_half_at_a_time(self):
        g, _ = ud.hamming_graph(9, 4)
        res = ud.max_independent_set(g, ud.SolveOptions(node_budget=50_000))
        assert isinstance(res, ud.MisResult)
        assert res.alpha == 36 and res.nodes_explored == 5696
        assert len(res.witness) == 36 and ud.check_independent_set(g, res.witness)

    def test_budget_spent_across_components(self, slice1045):
        # C(10,4,5) (alpha 12) then two 5-cycles (alpha 2 each): the budget
        # runs out in the first component, so the cycles are never searched
        # and each counts with its greedy clique cover, 3, not its size.
        big, _ = slice1045
        cycle = ud.Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        g = disjoint_union([big, cycle, cycle],
                           [range(252), range(252, 257), range(257, 262)])
        budget = 300
        res = ud.max_independent_set(g, ud.SolveOptions(node_budget=budget))
        alone = ud.max_independent_set(big, ud.SolveOptions(node_budget=budget))
        assert isinstance(res, ud.MisIncomplete) and isinstance(alone, ud.MisIncomplete)
        assert res.lower_bound <= 16 <= res.upper_bound
        assert res.upper_bound == alone.upper_bound + 6
        assert res.witness.bits == alone.witness.bits
        assert len(res.witness) == res.lower_bound
        assert ud.check_independent_set(g, res.witness)
        assert res.nodes_explored <= budget + 256

    def test_budget_on_repeated_components(self):
        g, _ = ud.hamming_graph(9, 4)
        budget = 1000
        res = ud.max_independent_set(g, ud.SolveOptions(node_budget=budget))
        assert isinstance(res, ud.MisIncomplete)
        assert res.lower_bound <= 36 <= res.upper_bound
        assert len(res.witness) == res.lower_bound
        assert ud.check_independent_set(g, res.witness)
        assert res.nodes_explored <= budget + 256

    def test_budgeted_solve_leaves_recursion_limit_alone(self):
        g, _ = ud.half_cube(10, 4)
        limit = sys.getrecursionlimit()
        res = ud.max_independent_set(g, ud.SolveOptions(node_budget=10))
        assert isinstance(res, ud.MisIncomplete)
        assert sys.getrecursionlimit() == limit


class TestAlphaVertexTransitive:
    def test_h52_every_pivot(self, h52):
        g, _ = h52
        direct = ud.max_independent_set(g).alpha
        for pivot in (0, 3, 15):
            res = solve.alpha_vertex_transitive(g, pivot)
            assert res.alpha == direct == 2
            assert pivot in res.witness
            assert ud.check_independent_set(g, res.witness)

    def test_reduction_size_h52(self, h52):
        # 16 vertices, 10-regular: the pivot's non-neighbor side has 5 vertices
        g, _ = h52
        non_neighbors = g.full_mask ^ g.adj[0] ^ 1
        assert non_neighbors.bit_count() == 5

    def test_complete_graph_any_pivot(self):
        g = complete_graph(5)
        for pivot in range(5):
            assert solve.alpha_vertex_transitive(g, pivot).alpha == 1

    def test_c86_pivot_subgraph_split_into_components(self):
        # The pivot's non-neighbors are 99 vertices of its own half plus the
        # whole other half; each is searched on its own.
        g, _ = ud.hamming_graph(8, 6)
        res = solve.alpha_vertex_transitive(g, 0, ud.SolveOptions(node_budget=50_000))
        assert isinstance(res, ud.MisResult)
        assert res.alpha == 58 and res.nodes_explored == 16360
        assert 0 in res.witness and ud.check_independent_set(g, res.witness)

    def test_pivot_out_of_range(self, h52):
        with pytest.raises(ValueError):
            solve.alpha_vertex_transitive(h52[0], 16)

    def test_agrees_with_direct_on_circulants(self):
        # circulant graphs are vertex-transitive
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randrange(6, 16)
            offsets = sorted(rng.sample(range(1, n // 2 + 1), rng.randrange(1, n // 2)))
            edges = set()
            for v in range(n):
                for off in offsets:
                    edges.add(tuple(sorted((v, (v + off) % n))))
            g = ud.Graph.from_edges(n, sorted(edges))
            assert solve.alpha_vertex_transitive(g, 0).alpha == ud.max_independent_set(g).alpha


class TestOneBracketRule:
    def test_bracket_holds_wherever_the_search_stops(self):
        # Plain and pivot solves of small random graphs and of disjoint
        # unions of them, one part repeated so that its solution is reused,
        # stopped before the root (the 1e-9 s deadline, unless the pool is
        # empty), between components (node limits 0 and 1, checked before
        # each component's search) or not at all (256 nodes, which none of
        # these searches reaches, and no limit). On any graph the pivot solve
        # returns the largest independent set through the pivot: the pivot
        # plus alpha of its non-neighbours. The upper end is never above the
        # pivots plus the pool, the bound of a pool left unsearched.
        rng = random.Random(25)
        graphs = [random_graph(rng, rng.randrange(1, 15), rng.choice([0.1, 0.3, 0.6]))
                  for _ in range(24)]
        for _ in range(24):
            parts = [random_graph(rng, rng.randrange(1, 6), rng.choice([0.3, 0.7]))
                     for _ in range(rng.randrange(1, 3))]
            parts.append(parts[0])
            labels = interleaved_labels(rng, [p.n for p in parts], rng.random() < 0.5)
            graphs.append(disjoint_union(parts, labels))
        options = [SolveOptions(node_budget=b) for b in (0, 1, 256, None)]
        options.append(SolveOptions(time_budget=1e-9))
        stopped = [0] * len(options)
        for g in graphs:
            for pivot in (None, rng.randrange(g.n)):
                pivots = 0 if pivot is None else 1 << pivot
                pool = g.full_mask ^ pivots
                for v in iter_bits(pivots):
                    pool &= ~g.adj[v]
                true = pivots.bit_count() + brute_alpha(
                    ud.induced_subgraph(g, ud.VertexSet(g.n, pool))[0])
                for i, opts in enumerate(options):
                    if pivot is None:
                        res = ud.max_independent_set(g, opts)
                    else:
                        res = solve.alpha_vertex_transitive(g, pivot, opts)
                    if isinstance(res, ud.MisResult):
                        lower = upper = res.alpha
                    else:
                        lower, upper = res.lower_bound, res.upper_bound
                        stopped[i] += 1
                    assert lower <= true <= upper
                    assert lower == len(res.witness) and ud.check_independent_set(g, res.witness)
                    assert res.witness.bits & pivots == pivots
                    assert upper <= pivots.bit_count() + pool.bit_count()
        assert min(stopped[0], stopped[1]) >= 10 and stopped[4] >= len(graphs)


def rotation(n: int, step: int = 1) -> tuple[int, ...]:
    return tuple((v + step) % n for v in range(n))


class TestAutomorphisms:
    def test_non_automorphism_rejected(self, g0_pair):
        g, _ = g0_pair
        path = ud.Graph.from_edges(3, [(0, 1), (1, 2)])
        for graph, perm in ((path, (1, 0, 2)), (g, (1, 0) + tuple(range(2, 240)))):
            with pytest.raises(ValueError, match="not the neighbours"):
                ud.max_independent_set(graph, automorphisms=[perm])

    @pytest.mark.parametrize("perm", [(0, 0, 2), (0, 1), (0, 1, 3)],
                             ids=["repeat", "short", "out-of-range"])
    def test_non_bijection_rejected(self, perm):
        path = ud.Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not a permutation"):
            ud.max_independent_set(path, automorphisms=[(2, 1, 0), perm])

    def test_transitive_set_takes_the_pivot(self):
        # A rotation moves vertex 0 around a circulant, and no rotation but
        # the identity fixes it: the orbital root adds vertex 0 and deletes
        # the orbit, and below it the solve is the pivot reduction at 0,
        # node for node, plus the root.
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randrange(6, 17)
            offsets = rng.sample(range(1, n // 2 + 1), rng.randrange(1, n // 2))
            g = ud.Graph.from_edges(n, sorted({tuple(sorted((v, (v + off) % n)))
                                               for v in range(n) for off in offsets}))
            got = ud.max_independent_set(g, automorphisms=[rotation(n)])
            pivot = solve.alpha_vertex_transitive(g, 0)
            assert (got.alpha, got.witness, got.nodes_explored) == (
                pivot.alpha, pivot.witness, pivot.nodes_explored + 1)
            assert got.alpha == brute_alpha(g) and 0 in got.witness

    def test_orbits_short_of_the_graph_branch_on_them(self):
        # The reflection of a path pairs vertex v with n - 1 - v: the search
        # branches on those pairs and agrees with the plain solve.
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randrange(3, 30)
            g = ud.Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
            got = ud.max_independent_set(g, automorphisms=[tuple(range(n - 1, -1, -1))])
            assert got.alpha == ud.max_independent_set(g).alpha == (n + 1) // 2
            assert ud.check_independent_set(g, got.witness) and len(got.witness) == got.alpha

    def test_copies_of_a_transitive_component_pivot_each(self):
        # Interleaved copies of one circulant: the rotation of every copy at
        # once and a shift of each copy onto the next move vertex 0 onto
        # every vertex. Each distinct copy is searched under the rotation,
        # which maps it onto itself, so the first vertex of each copy is
        # taken; when the copies keep the circulant's vertex order, one
        # search serves them all: the pivot search at 0, node for node, plus
        # its orbital root.
        rng = random.Random(8)
        for keep_order in (True, False):
            for _ in range(10):
                n, copies = rng.randrange(6, 14), rng.randrange(2, 5)
                offsets = rng.sample(range(1, n // 2 + 1), rng.randrange(1, n // 2))
                c = ud.Graph.from_edges(n, sorted({tuple(sorted((v, (v + off) % n)))
                                                   for v in range(n) for off in offsets}))
                labels = interleaved_labels(rng, [n] * copies, keep_order)
                g = disjoint_union([c] * copies, labels)
                turn, shift = [0] * g.n, [0] * g.n
                for k, lab in enumerate(labels):
                    for v in range(n):
                        turn[lab[v]] = lab[(v + 1) % n]
                        shift[lab[v]] = labels[(k + 1) % copies][v]
                got = ud.max_independent_set(g, automorphisms=[tuple(turn), tuple(shift)])
                one = solve.alpha_vertex_transitive(c, 0)
                assert got.alpha == copies * one.alpha == copies * brute_alpha(c)
                assert ud.check_independent_set(g, got.witness)
                assert all(min(lab) in got.witness for lab in labels)
                if keep_order:
                    assert got.nodes_explored == one.nodes_explored + 1

    def test_c86_pivots_each_half_and_searches_one(self):
        g, cloud = ud.hamming_graph(8, 6)
        got = ud.max_independent_set(g, ud.SolveOptions(node_budget=50_000),
                                     ud.cloud_automorphisms(cloud))
        plain = ud.max_independent_set(g, ud.SolveOptions(node_budget=50_000))
        assert isinstance(got, ud.MisResult)
        assert got.alpha == plain.alpha == 58 and got.nodes_explored == 111
        assert ud.check_independent_set(g, got.witness)
        assert all(comp.indices()[0] in got.witness for comp in ud.connected_components(g))

    @pytest.mark.parametrize("pair,alpha,nodes,pivot_nodes",
                             [("g0_pair", 16, 14, 3905), ("slice1045", 12, 100, 14341)],
                             ids=["gosset", "c10_4_5"])
    def test_checked_generators_beat_the_pivot_at_0(self, request, pair, alpha, nodes,
                                                    pivot_nodes):
        # The same alpha as the one-level pivot at vertex 0, in fewer nodes.
        g, cloud = request.getfixturevalue(pair)
        got = ud.max_independent_set(g, None, ud.cloud_automorphisms(cloud))
        pivot = solve.alpha_vertex_transitive(g, 0)
        assert (got.alpha, got.nodes_explored) == (pivot.alpha, nodes) == (alpha, nodes)
        assert pivot.nodes_explored == pivot_nodes
        assert ud.check_independent_set(g, got.witness) and len(got.witness) == alpha

    def test_wall_time_covers_the_automorphism_check(self, monkeypatch):
        # The check runs before any search; both result types time the
        # whole call, the check included.
        real = solve.check_automorphisms

        def slow(g, automorphisms):
            time.sleep(0.2)
            return real(g, automorphisms)

        monkeypatch.setattr(solve, "check_automorphisms", slow)
        g = ud.Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
        done = ud.max_independent_set(g, automorphisms=[rotation(6)])
        stopped = ud.max_independent_set(g, ud.SolveOptions(time_budget=1e-9),
                                         automorphisms=[rotation(6)])
        assert isinstance(done, ud.MisResult) and done.alpha == 3
        assert isinstance(stopped, ud.MisIncomplete)
        assert done.wall_time >= 0.2 and stopped.wall_time >= 0.2

    def test_empty_graph_and_no_permutations(self):
        assert ud.max_independent_set(ud.Graph(0, ()), automorphisms=[()]).alpha == 0
        g = ud.Graph.from_edges(4, [(0, 1), (2, 3)])
        assert ud.max_independent_set(g, automorphisms=()).alpha == 2

    def test_shared_budget_counts_every_search(self, h52):
        g, _ = h52
        with _Budget(SolveOptions()) as budget:
            first = ud.max_independent_set(g, budget=budget)
            second = ud.max_independent_set(g, budget=budget)
        assert first.nodes_explored == second.nodes_explored > 0
        assert budget.spent == 2 * first.nodes_explored


def small_cube_graphs():
    """Every C(d,u), H(d,u) (u even) and C(d,u,s) (0 < s < d) with d <= 7."""
    for d in range(2, 8):
        for u in range(1, d + 1):
            yield f"C({d},{u})", ud.hamming_graph(d, u)
            if u % 2 == 0:
                yield f"H({d},{u})", ud.half_cube(d, u)
            for s in range(1, d):
                yield f"C({d},{u},{s})", ud.slice_graph(d, u, s)


class TestOrbital:
    def test_alpha_agrees_with_the_plain_kernel_on_small_cubes(self):
        checked = 0
        for name, (g, cloud) in small_cube_graphs():
            got = ud.max_independent_set(g, None, ud.cloud_automorphisms(cloud))
            plain = ud.max_independent_set(g)
            assert got.alpha == plain.alpha, name
            assert len(got.witness) == got.alpha and ud.check_independent_set(g, got.witness), name
            checked += 1
        assert checked == 151

    @pytest.mark.parametrize("pair,alpha", [("slice1045", 12), ("g0_pair", 16)])
    def test_budgeted_brackets_contain_alpha(self, request, pair, alpha):
        g, cloud = request.getfixturevalue(pair)
        perms = ud.cloud_automorphisms(cloud)
        whole = ud.max_independent_set(g, None, perms).nodes_explored
        for limit in (0, 1, 2, 5, whole // 4, whole // 2, whole - 2):
            res = ud.max_independent_set(g, ud.SolveOptions(node_budget=limit), perms)
            assert isinstance(res, ud.MisIncomplete), limit
            assert res.lower_bound <= alpha <= res.upper_bound, limit
            assert len(res.witness) == res.lower_bound, limit
            assert ud.check_independent_set(g, res.witness), limit
            assert limit < res.nodes_explored <= whole, limit
        res = ud.max_independent_set(g, ud.SolveOptions(node_budget=whole), perms)
        assert isinstance(res, ud.MisResult) and res.alpha == alpha

    def test_same_tuple_on_every_run(self, slice1045):
        g, cloud = slice1045
        perms = ud.cloud_automorphisms(cloud)
        runs = {(r.alpha, r.witness, r.nodes_explored)
                for r in (ud.max_independent_set(g, None, perms) for _ in range(3))}
        assert len(runs) == 1

    def test_orbital_witness_is_rechecked(self, monkeypatch, slice1045):
        # A kernel that adds to its clique a vertex of the pool adjacent to
        # it in g: the orbital search takes the larger set, and its re-check
        # on the whole graph raises.
        g, cloud = slice1045
        real = solve._max_clique_masks

        def wrong(adj, pool, initial_best, budget):
            value, found, nodes, status, upper = real(adj, pool, initial_best=initial_best,
                                                      budget=budget)
            extra = next((1 << w for v in iter_bits(found) for w in iter_bits(g.adj[v] & pool)), 0)
            return value + (extra > 0), found | extra, nodes, status, upper + 1

        monkeypatch.setattr(solve, "_max_clique_masks", wrong)
        with pytest.raises(RuntimeError, match="orbital search failed its re-check"):
            ud.max_independent_set(g, None, ud.cloud_automorphisms(cloud))


class TestDegeneracyOrder:
    def test_matches_reference_scan(self, g0_pair):
        rng = random.Random(909)
        g0, _ = g0_pair
        h114, _ = ud.half_cube(11, 4)
        h_rows = _complement_rows(h114)
        cases = [(_complement_rows(g0), g0.full_mask),
                 (h_rows, h114.full_mask ^ h114.adj[0] ^ 1)]
        for _ in range(200):
            g = random_graph(rng, rng.randrange(0, 60), rng.choice([0.1, 0.4, 0.8]))
            keep = rng.choice([0.3, 0.7, 1.0])
            pool = sum(1 << v for v in range(g.n) if rng.random() < keep)
            cases.append((list(g.adj), pool))
        for adj, pool in cases:
            assert _degeneracy_order(adj, pool) == reference_degeneracy_order(adj, pool)


class TestKColorable:
    def test_c64_six_vs_seven(self):
        g, _ = ud.hamming_graph(6, 4)
        no = ud.k_colorable(g, 6)
        assert no.status == "uncolorable" and no.coloring is None
        yes = ud.k_colorable(g, 7)
        assert yes.status == "colorable"
        assert ud.check_coloring(g, yes.coloring, 7)

    def test_c52_seven_uncolorable(self, c52):
        g, _ = c52
        assert ud.k_colorable(g, 7).status == "uncolorable"

    def test_bipartite_two_colors(self):
        g, _ = ud.hamming_graph(5, 3)
        out = ud.k_colorable(g, 2)
        assert out.status == "colorable"
        assert ud.check_coloring(g, out.coloring, 2)

    def test_k_below_one_rejected(self, h52):
        with pytest.raises(ValueError):
            ud.k_colorable(h52[0], 0)

    def test_budget_gives_unknown_not_uncolorable(self):
        g, _ = ud.hamming_graph(6, 4)
        out = ud.k_colorable(g, 6, ud.SolveOptions(node_budget=10))
        assert out.status == "unknown"
        assert out.coloring is None

    def test_matches_backtracking_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(1, 13)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            k = rng.randrange(1, 6)
            out = ud.k_colorable(g, k)
            assert out.status in ("colorable", "uncolorable")
            assert (out.status == "colorable") == brute_k_colorable(g, k)
            if out.coloring is not None:
                assert ud.check_coloring(g, out.coloring, k)

    def test_deep_odd_cycle_leaves_recursion_limit_alone(self):
        n = 5001
        g = ud.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
        limit = sys.getrecursionlimit()
        assert ud.k_colorable(g, 2).status == "uncolorable"
        assert sys.getrecursionlimit() == limit

    def test_c86_seven_colorable_node_count(self):
        g, _ = ud.hamming_graph(8, 6)
        out = ud.k_colorable(g, 7)
        assert out.status == "colorable"
        assert out.nodes_explored == 3052
        assert ud.check_coloring(g, out.coloring, 7)


class TestChromaticNumber:
    def test_c42_is_four(self):
        g, _ = ud.hamming_graph(4, 2)
        res = ud.chromatic_number(g)
        assert isinstance(res, ud.ColoringResult)
        assert res.chi == 4
        assert ud.check_coloring(g, res.coloring, 4)

    def test_single_vertex(self):
        res = ud.chromatic_number(ud.Graph(1, (0,)))
        assert res.chi == 1 and res.coloring == (1,)

    def test_empty_graph(self):
        res = ud.chromatic_number(ud.Graph(0, ()))
        assert res.chi == 0 and res.coloring == ()

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(55)
        for _ in range(60):
            n = rng.randrange(1, 13)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            res = ud.chromatic_number(g)
            assert isinstance(res, ud.ColoringResult)
            assert res.chi == brute_chi(g)
            assert ud.check_coloring(g, res.coloring, res.chi)

    def test_budget_gives_bracket_containing_chi(self):
        g, _ = ud.hamming_graph(6, 4)
        res = ud.chromatic_number(g, ud.SolveOptions(node_budget=10))
        assert isinstance(res, ud.ChiBracket)
        assert res.lower <= 7 <= res.upper
        assert ud.check_coloring(g, res.coloring, res.upper)

    def test_one_node_budget_covers_every_search(self):
        # The clique bound and every k-colorability search share one limit,
        # so the count stays within the limit plus one 256-node batch. The
        # try from the top finds a 7-coloring before the budget runs out.
        g, _ = ud.hamming_graph(8, 6)
        res = ud.chromatic_number(g, ud.SolveOptions(node_budget=100_000))
        assert isinstance(res, ud.ChiBracket)
        assert (res.lower, res.upper) == (5, 7)
        assert res.nodes_explored <= 100_256
        assert ud.check_coloring(g, res.coloring, res.upper)

    def test_refutation_from_the_top_closes_chi(self, monkeypatch):
        # The Mycielski graph M5: 23 vertices, triangle-free, chi 5, alpha
        # 11, so the bracket starts at [3, 5]. The try at k = 4 refutes, and
        # no search below it is made.
        g = ud.Graph.from_edges(2, [(0, 1)])
        for _ in range(3):
            n = g.n
            edges = list(g.edges())
            edges += [e for i, j in g.edges() for e in ((i, n + j), (j, n + i))]
            g = ud.Graph.from_edges(2 * n + 1, edges + [(n + i, 2 * n) for i in range(n)])
        tried = []
        real = solve._k_color

        def recording(sub, k, budget):
            tried.append(k)
            return real(sub, k, budget)

        monkeypatch.setattr(solve, "_k_color", recording)
        res = ud.chromatic_number(g)
        assert isinstance(res, ud.ColoringResult) and res.chi == 5
        assert ud.check_coloring(g, res.coloring, 5)
        assert tried == [4]

    def test_row_monotonicity_under_embedding(self):
        # appending a zero coordinate makes C(d, u) an induced subgraph of C(d+1, u)
        values = []
        for d in range(2, 7):
            res = ud.chromatic_number(ud.hamming_graph(d, 2)[0])
            values.append(res.chi)
        assert values == sorted(values)
        assert values == [2, 4, 4, 8, 8]

    def test_c76_node_count(self):
        g, _ = ud.hamming_graph(7, 6)
        res = ud.chromatic_number(g)
        assert isinstance(res, ud.ColoringResult)
        assert res.chi == 4 and res.nodes_explored == 6528
        assert ud.check_coloring(g, res.coloring, 4)

    def test_clique_meeting_dsatur_closes_without_search(self):
        g, _ = ud.hamming_graph(8, 2)
        res = ud.chromatic_number(g)
        assert isinstance(res, ud.ColoringResult)
        assert res.chi == 8 and res.nodes_explored == 0
        assert ud.check_coloring(g, res.coloring, 8)

    def test_bipartite_closes_without_search(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randrange(2, 30)
            side = [rng.randrange(2) for _ in range(n)]
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if side[i] != side[j] and rng.random() < 0.3]
            g = ud.Graph.from_edges(n, edges)
            res = ud.chromatic_number(g)
            assert isinstance(res, ud.ColoringResult)
            assert res.chi == (2 if edges else 1) and res.nodes_explored == 0
            assert ud.check_coloring(g, res.coloring, res.chi)


class TestComponents:
    def test_disjoint_unions_match_oracles(self):
        # Repeated copies, different components and interleaved labels; alpha,
        # chi and k-colorability against the brute-force oracles.
        rng = random.Random(606)
        reused = 0
        for trial in range(120):
            pieces = [random_graph(rng, rng.randrange(1, 5), rng.choice([0.4, 0.7, 1.0]))
                      for _ in range(rng.randrange(1, 4))]
            parts = [p for p in pieces for _ in range(rng.randrange(1, 4))]
            while sum(p.n for p in parts) > 12:
                parts.pop()
            labels = interleaved_labels(rng, [p.n for p in parts], keep_order=trial % 3 != 0)
            g = disjoint_union(parts, labels)
            reused += any(len(copies) > 1 for _, copies in _distinct_components(g, g.full_mask))

            mis = ud.max_independent_set(g)
            assert isinstance(mis, ud.MisResult) and mis.alpha == brute_alpha(g)
            assert len(mis.witness) == mis.alpha
            assert ud.check_independent_set(g, mis.witness)

            chi = ud.chromatic_number(g)
            assert isinstance(chi, ud.ColoringResult) and chi.chi == brute_chi(g)
            assert ud.check_coloring(g, chi.coloring, chi.chi)

            for k in range(1, chi.chi + 2):
                out = ud.k_colorable(g, k)
                assert out.status == ("colorable" if k >= chi.chi else "uncolorable")
                if out.coloring is not None:
                    assert ud.check_coloring(g, out.coloring, k)
        assert reused >= 40

    def test_distinct_components_of_even_cubes(self):
        for d, u, size, copies in ((4, 4, 2, 8), (6, 6, 2, 32), (8, 6, 128, 2)):
            g, _ = ud.hamming_graph(d, u)
            ((sub, maps),) = _distinct_components(g, g.full_mask)
            assert sub.n == size and len(maps) == copies
            assert sorted(v for m in maps for v in m) == list(range(g.n))

    def test_relabelled_rows_match_per_bit_loop(self):
        # Cubes whose components interleave or lie far apart, unions with
        # interleaved labels, and pools of random graphs that leave
        # neighbours outside the pool: the same rows and copies, in the same
        # order, as relabelling one bit at a time.
        rng = random.Random(1212)
        cases = [(g, g.full_mask) for g in (ud.hamming_graph(d, u)[0]
                                            for d, u in ((8, 2), (8, 4), (8, 6), (10, 10)))]
        for trial in range(40):
            parts = [random_graph(rng, rng.randrange(1, 7), rng.choice([0.3, 0.7]))
                     for _ in range(rng.randrange(2, 5))]
            g = disjoint_union(parts, interleaved_labels(rng, [p.n for p in parts], trial % 2 == 0))
            cases.append((g, g.full_mask))
            g = random_graph(rng, rng.randrange(2, 90), rng.choice([0.02, 0.05, 0.1]))
            cases.append((g, rng.getrandbits(g.n)))
        split = 0
        for g, pool in cases:
            got = _distinct_components(g, pool)
            if got and got[0][0] is g:  # one component, searched in g's own rows
                assert len(reference_components(g, pool)) == 1
                continue
            split += 1
            assert [(sub.adj, copies) for sub, copies in got] == reference_components(g, pool)
            assert all(sub == ud.Graph(sub.n, sub.adj) for sub, _ in got)
        assert split >= 60

    def test_many_small_components_one_group(self):
        # C(14,14) pairs every vertex with its complement: 8,192 copies of K2.
        g, _ = ud.hamming_graph(14, 14)
        ((sub, copies),) = _distinct_components(g, g.full_mask)
        assert sub.adj == (2, 1) and len(copies) == 8192
        assert copies[0] == (0, g.n - 1)
        mis = ud.max_independent_set(g)
        assert mis.alpha == 8192 and ud.check_independent_set(g, mis.witness)
        chi = ud.chromatic_number(g)
        assert chi.chi == 2 and ud.check_coloring(g, chi.coloring, 2)

    def test_connected_graph_returned_as_itself(self, slice1045):
        g, _ = slice1045
        assert _distinct_components(g, g.full_mask) == [(g, [tuple(range(g.n))])]

    def test_one_component_pool_searched_in_place(self, h52):
        # The pivot's 5 non-neighbours in H(5,2) are one component: no
        # relabelled copy, and a search stopped before it starts bounds alpha
        # by the pool, not the graph: the pivot plus the pool's greedy
        # clique cover, which is one class, since the five form a clique.
        g, _ = h52
        pool = g.full_mask ^ g.adj[0] ^ 1
        assert _distinct_components(g, pool) == [(g, [tuple(range(g.n))])]
        assert all(pool & ~g.adj[v] == 1 << v for v in iter_bits(pool))
        res = solve.alpha_vertex_transitive(g, 0, ud.SolveOptions(time_budget=1e-9))
        assert isinstance(res, ud.MisIncomplete)
        assert (res.lower_bound, res.upper_bound) == (1, 2)
        assert res.witness.bits == 1

    def test_stitched_wrong_solutions_fail_their_re_checks(self, monkeypatch):
        # Two copies of a triangle share one component solution, so a wrong
        # one is wrong on both, and the re-check of the final witness on the
        # whole graph raises.
        tri = complete_graph(3)
        g = disjoint_union([tri, tri], [[0, 1, 2], [3, 4, 5]])
        monkeypatch.setattr(solve, "_max_clique_masks",
                            lambda adj, pool, initial_best, budget: (2, 0b011, 1, "complete", 2))
        with pytest.raises(RuntimeError, match="independent set .* failed its re-check"):
            ud.max_independent_set(g)
        monkeypatch.setattr(solve, "_k_color",
                            lambda sub, k, budget: ud.KColorOutcome("colorable", (1, 1, 2), 1))
        with pytest.raises(RuntimeError, match="stitched coloring"):
            ud.k_colorable(g, 2)
        monkeypatch.setattr(solve, "_chi_connected", lambda sub, budget: (1, 1, (1, 1, 1)))
        with pytest.raises(RuntimeError, match="stitched coloring"):
            ud.chromatic_number(g)

    def test_chi_connected_runs_once_per_distinct_component(self, monkeypatch):
        sizes = []
        real = solve._chi_connected

        def counting(g, budget):
            sizes.append(g.n)
            return real(g, budget)

        monkeypatch.setattr(solve, "_chi_connected", counting)
        g86, _ = ud.hamming_graph(8, 6)
        res = ud.chromatic_number(g86, ud.SolveOptions(node_budget=1000))
        assert sizes == [128]
        assert ud.check_coloring(g86, res.coloring, res.upper)
        sizes.clear()
        g66, _ = ud.hamming_graph(6, 6)  # 32 copies of K2
        res = ud.chromatic_number(g66)
        assert sizes == [2]
        assert res.chi == 2 and ud.check_coloring(g66, res.coloring, 2)


class TestGreedyColoringBound:
    def test_edgeless_one_color(self):
        g = ud.Graph(5, (0,) * 5)
        count, coloring = ud.greedy_coloring_bound(g)
        assert count == 1 and set(coloring) == {1}

    def test_complete_needs_n(self):
        g = complete_graph(6)
        count, coloring = ud.greedy_coloring_bound(g)
        assert count == 6
        assert ud.check_coloring(g, coloring, 6)

    def test_c52_recorded_range(self, c52):
        g, _ = c52
        count, coloring = ud.greedy_coloring_bound(g)
        assert 8 <= count <= 16
        assert ud.check_coloring(g, coloring, count)

    def test_always_at_least_chi(self):
        rng = random.Random(66)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 12), 0.5)
            count, coloring = ud.greedy_coloring_bound(g)
            assert ud.check_coloring(g, coloring, count)
            assert count >= brute_chi(g)

    def test_dsatur_matches_reference_scan(self, c52, h52):
        rng = random.Random(88)
        graphs = [ud.hamming_graph(6, 4)[0], h52[0], c52[0]]
        for _ in range(60):
            graphs.append(random_graph(rng, rng.randrange(1, 40),
                                       rng.choice([0.1, 0.3, 0.6])))
        for g in graphs:
            assert ud.greedy_coloring_bound(g) == reference_dsatur(g)


class TestCliqueLowerBound:
    def test_triangle(self):
        assert ud.clique_lower_bound(complete_graph(3)) == 3

    def test_bipartite_with_edge(self):
        g = ud.Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])
        assert ud.clique_lower_bound(g) == 2

    def test_never_exceeds_true_clique_number(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 13), rng.choice([0.3, 0.6]))
            assert ud.clique_lower_bound(g) <= brute_max_clique(g)

    def test_g0_clique_found_is_eight(self, g0_pair):
        # Adjacent roots are orthogonal, orthogonal vectors are linearly
        # independent, so no clique exceeds the dimension 8.
        g, _ = g0_pair
        found = ud.clique_lower_bound(g)
        assert 2 <= found <= 8
        value, _, _, status, _ = clique_search(list(g.adj), g.full_mask)
        assert status == "complete" and value == 8


class TestCliqueKernelAgainstRecursiveReference:
    def test_identical_results_on_random_graphs(self):
        # (value, mask, nodes, status, upper) must match the recursive kernel
        # bit for bit, for every incumbent, target and budget combination,
        # on the whole graph and inside a random pool mask. The reference
        # searches the pool's induced subgraph; its witness is mapped back.
        # Graphs reach 99 vertices so that enough searches pass the first
        # budget check, at 256 nodes, to stop with status "budget".
        rng = random.Random(2024)
        pool_rng = random.Random(2025)
        statuses = {"complete": 0, "target": 0, "budget": 0}
        for _ in range(200):
            n = rng.randrange(1, 100)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
            opts = SolveOptions(node_budget=rng.choice([None, 0, 300]))
            keep = pool_rng.choice([0.0, 0.3, 0.6, 0.9])
            random_pool = sum(1 << v for v in range(n) if pool_rng.random() < keep)
            for pool in (g.full_mask, random_pool):
                sub, index_map = ud.induced_subgraph(g, ud.VertexSet(n, pool))
                back = list(index_map)  # subgraph vertex -> vertex of g
                sub_adj = list(sub.adj)
                omega = reference_max_clique(sub_adj, sub.n, options=SolveOptions())[0]
                for initial_best in sorted({0, max(omega - 1, 0), omega}):
                    for stop_at in (None, omega):
                        got = clique_search(list(g.adj), pool, opts, initial_best=initial_best,
                                            stop_at=stop_at)
                        value, mask, nodes, status, upper = reference_max_clique(
                            sub_adj, sub.n, initial_best=initial_best, stop_at=stop_at,
                            options=opts)
                        mapped = sum(1 << back[v] for v in range(sub.n) if mask >> v & 1)
                        assert got == (value, mapped, nodes, status, upper), (n, pool, opts)
                        statuses[status] += 1
        assert statuses["budget"] >= 40
        assert statuses["target"] >= 40 and statuses["complete"] >= 40


    def test_identical_results_on_wide_rows(self):
        # Rows of 200-700 bits, where the kernel's bit tables and highest-bit
        # scans run over masks of many machine words: random graphs with
        # p = 0.5, one inside a random pool, and the complement rows of the
        # H(10,4) pivot pool (301 of 512 vertices). Budgets cut each search
        # at a fixed node count, so both kernels must stop at the same node.
        rng = random.Random(4242)
        h104, _ = ud.half_cube(10, 4)
        graphs = [random_graph(rng, n, 0.5) for n in (200, 450, 700)]
        cases = [(list(g.adj), g.full_mask, 0, None) for g in graphs]
        cases.append((list(graphs[2].adj),
                      sum(1 << v for v in range(700) if rng.random() < 0.6), 11, 13))
        cases.append((_complement_rows(h104), h104.full_mask ^ h104.adj[0] ^ 1, 0, None))
        for adj, pool, initial_best, stop_at in cases:
            n = len(adj)
            sub, index_map = ud.induced_subgraph(ud.Graph(n, tuple(adj)), ud.VertexSet(n, pool))
            back = list(index_map)
            budgets = [0, 300, 3000] + ([None] if n == 200 else [])
            for node_budget in budgets:
                opts = SolveOptions(node_budget=node_budget)
                got = clique_search(adj, pool, opts, initial_best=initial_best, stop_at=stop_at)
                value, mask, nodes, status, upper = reference_max_clique(
                    list(sub.adj), sub.n, initial_best=initial_best, stop_at=stop_at,
                    options=opts)
                mapped = sum(1 << back[v] for v in range(sub.n) if mask >> v & 1)
                assert got == (value, mapped, nodes, status, upper), (n, node_budget)
                assert status == ("complete" if node_budget is None else "budget")


@pytest.fixture
def nothing_left_behind():
    """After the test, no child process is left, and this process may run on
    the CPUs it could run on before."""
    affinity = os.sched_getaffinity
    allowed = affinity(0)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert affinity(0) == allowed


@pytest.mark.usefixtures("nothing_left_behind")
class TestCliqueKernelSplitAcrossProcesses(TestCliqueKernelAgainstRecursiveReference):
    """The recursive-reference cases again, with the work left split across
    two processes at the search's first check, at 256 nodes: every tuple,
    budget stops included, must still be the sequential one. Every search
    that passes that check splits, under a node limit too, unless the limit
    stops it there."""

    # (splits, splits under a node limit)
    MIN_SPLITS = {"test_identical_results_on_random_graphs": (80, 40),
                  "test_identical_results_on_wide_rows": (10, 9)}

    @pytest.fixture(autouse=True)
    def force_split(self, monkeypatch, request):
        monkeypatch.setattr(solve, "_SPLIT_NODES", 0)
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        splits = []
        real = split.split_items

        def counted(*args):
            splits.append(args[0][4].node_limit)
            return real(*args)

        monkeypatch.setattr(split, "split_items", counted)
        yield
        least, least_limited = self.MIN_SPLITS[request.function.__name__]
        assert len(splits) >= least
        assert sum(stop is not None for stop in splits) >= least_limited


def split_cases():
    """Clique searches whose root has many branches, with and without an
    incumbent and a target, each also under node limits that stop it a
    quarter, half and three quarters of the way, and one node either side
    of the last multiple of 256 it reaches, so that the stop falls before,
    inside and at the end of the split's items: (adj, pool, keywords)."""
    rng = random.Random(1313)
    cases = []
    for n, p in ((150, 0.5), (99, 0.6), (120, 0.7)):
        g = random_graph(rng, n, p)
        adj = list(g.adj)
        omega = clique_search(adj, g.full_mask)[0]
        for initial_best, stop_at in ((0, None), (omega - 1, omega), (omega, None)):
            nodes = clique_search(adj, g.full_mask, initial_best=initial_best,
                                  stop_at=stop_at)[2]
            last = nodes // 256 * 256
            for node_budget in (None, nodes // 4, nodes // 2, nodes * 3 // 4,
                                max(last - 1, 0), last + 1):
                cases.append((adj, g.full_mask,
                              dict(initial_best=initial_best, stop_at=stop_at,
                                   budget=SolveOptions(node_budget=node_budget))))
    return cases


def run_cases(cases):
    return [clique_search(adj, pool, kw["budget"], initial_best=kw.get("initial_best", 0),
                          stop_at=kw.get("stop_at"))
            for adj, pool, kw in cases]


@pytest.mark.usefixtures("nothing_left_behind")
class TestSplitRobustness:
    """Whatever goes wrong with a forked worker, the kernel returns the
    sequential tuples; a failure of the caller leaves no process behind."""

    @pytest.fixture
    def cases(self, monkeypatch):
        cases = split_cases()
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 1)
        expected = run_cases(cases)
        monkeypatch.setattr(solve, "_SPLIT_NODES", 0)
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 3)
        return cases, expected

    def test_split_matches_sequential(self, cases):
        cases, expected = cases
        assert run_cases(cases) == expected

    def test_fork_failure_searches_every_branch_here(self, cases, monkeypatch):
        cases, expected = cases

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run_cases(cases) == expected

    @pytest.mark.parametrize("crash", ["raise", "kill"])
    def test_crashed_worker_branches_searched_again(self, cases, monkeypatch, crash):
        cases, expected = cases
        caller = os.getpid()
        real = split._search_share

        def share(*args):
            if os.getpid() != caller:
                if crash == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("worker crash")
            return real(*args)

        monkeypatch.setattr(split, "_search_share", share)
        assert run_cases(cases) == expected

    @pytest.mark.parametrize("hold_lock", [False, True])
    def test_worker_killed_after_taking_a_branch(self, cases, monkeypatch, hold_lock):
        # Each worker takes one item, or only the queue's lock, and dies.
        cases, expected = cases
        caller = os.getpid()
        real = split._Queue.take

        def take(queue, done=0):
            if os.getpid() != caller:
                if hold_lock:
                    fcntl.lockf(queue.fd, fcntl.LOCK_EX)
                else:
                    real(queue, done)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(queue, done)

        def hangs(*_):
            raise TimeoutError("the caller waits on a dead worker's lock")

        monkeypatch.setattr(split._Queue, "take", take)
        previous = signal.signal(signal.SIGALRM, hangs)
        signal.alarm(60)
        try:
            assert run_cases(cases) == expected
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_node_limit_forks_and_returns_the_one_cpu_tuple(self, cases, monkeypatch):
        cases, expected = cases
        limited = [i for i, (_, _, kw) in enumerate(cases) if kw["budget"].node_budget is not None]
        forks = []
        real = os.fork

        def fork():
            pid = real()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        assert run_cases([cases[i] for i in limited]) == [expected[i] for i in limited]
        assert len(forks) >= 40

    def test_items_after_a_rise_of_the_incumbent_searched_here(self, cases, monkeypatch):
        # Some searches find a larger clique after the split, in an item
        # that the split searched; the results of the items after it rest
        # on the old incumbent, so the caller searches those items itself.
        cases, expected = cases
        caller = os.getpid()
        split_best = {}  # id of the call's search tuple -> incumbent of its split
        stale = []
        real_items, real_search = split.split_items, solve._search

        def split_items(search, items, best, *args):
            split_best[id(search)] = best
            return real_items(search, items, best, *args)

        def search(search, frame, best, *args, **kw):
            if os.getpid() == caller and best > split_best.get(id(search), best):
                stale.append(frame)
            return real_search(search, frame, best, *args, **kw)

        monkeypatch.setattr(split, "split_items", split_items)
        monkeypatch.setattr(solve, "_search", search)
        assert run_cases(cases) == expected
        assert len(stale) >= 10

    def test_stop_inside_the_item_that_raised_the_incumbent(self, cases, monkeypatch):
        # Split at 256 nodes, this search finds a larger clique inside an
        # item that the 511-node limit stops at count 512: the caller takes
        # from the split both the stop and the clique found before it.
        g = random_graph(random.Random(3), 150, 0.5)
        case = [(list(g.adj), g.full_mask, dict(budget=SolveOptions(node_budget=511)))]
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 1)
        expected = run_cases(case)
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        results = []
        real = split.split_items

        def split_items(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(split, "split_items", split_items)
        assert run_cases(case) == expected
        assert expected[0][3] == "budget" and expected[0][2] == 512
        assert any(trail for (count, status, trail) in results[0].values())

    def test_worker_stopped_by_a_deadline_searched_here(self, cases, monkeypatch):
        # Every worker stops at its first budget check, as if its deadline
        # had passed; the caller searches their items itself.
        cases, expected = cases
        caller = os.getpid()
        real = solve._Budget.exceeded

        def exceeded(budget, nodes=0):
            return os.getpid() != caller or real(budget, nodes)

        monkeypatch.setattr(solve._Budget, "exceeded", exceeded)
        assert run_cases(cases) == expected

    def test_worker_clique_is_rechecked(self, cases, monkeypatch):
        cases, _ = cases
        real = split._search_share

        def share(search, items, queue, best, nodes):
            # Report every improvement with one vertex too few; an item that
            # hands its work back reports the items it had left.
            return [(i, count, status, rest if status == "split" else
                     [(at, value, mask & (mask - 1)) for at, value, mask in rest])
                    for i, count, status, rest in real(search, items, queue, best, nodes)]

        monkeypatch.setattr(split, "_search_share", share)
        adj, pool, _ = cases[-1]
        with pytest.raises(RuntimeError, match="re-check"):
            clique_search(adj, pool)

    def test_exception_after_fork_kills_and_reaps_workers(self, cases, monkeypatch):
        cases, _ = cases
        caller = os.getpid()

        def share(*args):
            if os.getpid() == caller:
                raise RuntimeError("caller fails after the fork")
            time.sleep(60)  # the workers are still running when the caller raises

        monkeypatch.setattr(split, "_search_share", share)
        adj, pool, _ = cases[-1]
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="after the fork"):
            _max_clique_masks(adj, pool, budget=_Budget(SolveOptions()))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_cpu_never_forks(self, cases, monkeypatch):
        cases, expected = cases
        monkeypatch.undo()
        monkeypatch.setattr(solve, "_SPLIT_NODES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        def fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "fork", fork)
        assert run_cases(cases) == expected

    def test_no_split_while_another_thread_runs(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert solve._usable_cpus() == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


def mycielskian(g: ud.Graph) -> ud.Graph:
    """Mycielski's construction: triangle-free when g is, chi one higher."""
    n = g.n
    edges = list(g.edges())
    edges += [e for i, j in g.edges() for e in ((i, n + j), (j, n + i))]
    return ud.Graph.from_edges(2 * n + 1, edges + [(n + i, 2 * n) for i in range(n)])


def queen_graph(m: int) -> ud.Graph:
    """The squares of an m x m board, adjacent when a queen moves between them."""
    cells = [(r, c) for r in range(m) for c in range(m)]
    return ud.Graph.from_edges(m * m, [
        (i, j) for i in range(len(cells)) for j in range(i + 1, len(cells))
        if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]
        or abs(cells[i][0] - cells[j][0]) == abs(cells[i][1] - cells[j][1])])


def seeded_graph(seed: int) -> ud.Graph:
    rng = random.Random(seed)
    n = rng.randrange(26, 40)
    return random_graph(rng, n, rng.choice([0.5, 0.6, 0.7, 0.8]))


@pytest.fixture(scope="module")
def coloring_cases():
    """k-colorability searches of 757 to 3,637 nodes, and the chromatic
    numbers of their graphs, each answer checked by the brute-force oracle,
    each also under node limits that stop it a quarter, half and three
    quarters of the way, and one node either side of every multiple of 256
    it reaches: (call, its one-CPU result) for each."""
    m5 = mycielskian(mycielskian(ud.Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])))
    graphs = {"M5": (m5, 4, "uncolorable"), "queen6": (queen_graph(6), 7, "colorable"),
              "seed361": (seeded_graph(361), 9, "uncolorable"),
              "seed92": (seeded_graph(92), 10, "colorable")}
    cases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "_usable_cpus", lambda: 1)
        for name, (g, k, status) in graphs.items():
            decided = ud.k_colorable(g, k)
            assert decided.status == status
            assert (status == "colorable") == brute_k_colorable(g, k), name
            chi = ud.chromatic_number(g)
            assert chi.chi == brute_chi(g), name
            for call, nodes in ((lambda o, g=g, k=k: ud.k_colorable(g, k, o),
                                 decided.nodes_explored),
                                (lambda o, g=g: ud.chromatic_number(g, o), chi.nodes_explored)):
                limits = {None, nodes // 4, nodes // 2, nodes * 3 // 4}
                limits.update(m * 256 + d for m in range(1, nodes // 256 + 1) for d in (-1, 1))
                for limit in sorted(limits, key=lambda x: -1 if x is None else x):
                    run = (lambda c=call, o=SolveOptions(node_budget=limit): c(o))
                    cases.append((f"{name} {limit}", run, run()))
    return cases


@pytest.mark.usefixtures("nothing_left_behind")
class TestColoringSplit:
    """The k-colorability search splits the work it still has to do as the
    clique search does: with the split forced at its first check, at 256
    nodes, every k_colorable and chromatic_number result, budget stops
    included, is the one-CPU one, whatever happens to a worker."""

    @pytest.fixture
    def forced(self, monkeypatch):
        """Splits forced at 256 nodes; returns the (kind, node limit) of each
        split of a coloring search."""
        monkeypatch.setattr(solve, "_SPLIT_NODES", 0)
        splits = []
        real = split.split_items

        def counted(*args):
            if args[0][5] == "coloring":
                splits.append(args[0][4].node_limit)
            return real(*args)

        monkeypatch.setattr(split, "split_items", counted)
        return splits

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_split_gives_the_one_cpu_result(self, coloring_cases, forced, monkeypatch, cpus):
        monkeypatch.setattr(solve, "_usable_cpus", lambda: cpus)
        for name, run, expected in coloring_cases:
            assert run() == expected, name
        assert len(forced) >= 150
        assert sum(limit is not None for limit in forced) >= 140

    def test_worker_killed_mid_split(self, coloring_cases, forced, monkeypatch):
        # Each worker dies at its first budget check inside an item, which
        # it has then searched for 256 nodes or fewer.
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        caller = os.getpid()
        real = split._ItemBudget.exceeded

        def exceeded(budget, count):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(budget, count)

        monkeypatch.setattr(split._ItemBudget, "exceeded", exceeded)
        for name, run, expected in coloring_cases[::3]:
            assert run() == expected, name
        assert forced

    def test_worker_coloring_is_rechecked(self, forced, monkeypatch):
        # Every coloring a split reports gives vertex 0 the color of a
        # neighbour.
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        g = queen_graph(6)
        real = split._search_share

        def share(*args):
            # An item that hands its work back reports the items it had left.
            return [(i, count, status, rest if status == "split" else
                     [(at, value, (coloring[1],) + coloring[1:]) for at, value, coloring in rest])
                    for i, count, status, rest in real(*args)]

        monkeypatch.setattr(split, "_search_share", share)
        with pytest.raises(RuntimeError, match="a coloring from a split search failed"):
            ud.k_colorable(g, 7)
        assert forced

    @pytest.mark.parametrize("entry", ["k_colorable", "chromatic_number"])
    def test_no_child_after_a_raise(self, forced, monkeypatch, entry):
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        g = queen_graph(6)
        real = split.split_items

        def split_items(*args):
            out = real(*args)
            if args[0][5] == "coloring":
                raise RuntimeError("fails after a coloring split")
            return out

        monkeypatch.setattr(split, "split_items", split_items)
        with pytest.raises(RuntimeError, match="after a coloring split"):
            ud.k_colorable(g, 7) if entry == "k_colorable" else ud.chromatic_number(g)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_items_after_the_end_stop_at_their_first_check(self):
        # This process holds item 1, a search of 757 nodes, while item 0,
        # held by another slot, ends the split: the search stops at its
        # first check and returns nothing.
        m5 = mycielskian(mycielskian(ud.Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])))
        reports = []

        class Queue(split._Queue):
            def report(self, count):
                if not reports:
                    self.slot = 1
                    self.clear(0)
                    self.slot = 0
                reports.append(count)
                return super().report(count)

        with _Budget(SolveOptions()) as budget:
            search = solve._color_tuple(m5.adj, 4, budget)
            root = ((solve._dsatur_select([m5.full_mask, 0, 0, 0], search[1])[0], 0),)
            assert solve._color_search(search, root, 0, None, 1)[2:] == (757, "complete")
            with Queue(2, 2) as queue:
                queue.slot = 1
                assert queue.take() == (0, 0)
                queue.slot = 0
                assert split._search_share(search, [(), root], queue, 0, 1) == []
        assert len(reports) == 1 and reports[0] <= 256


def stack_depth() -> int:
    """The number of frames on the interpreter's stack of the caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.fixture
def rounds(monkeypatch):
    """Splits forced at 256 nodes. Returns a list that gets, for each round
    of a split as it starts, [its nesting, the items it handed back, the
    stack depth it was called at]: nesting 1 for a search's first round, and
    one more than its own round's for the round of an item handed back."""
    monkeypatch.setattr(solve, "_SPLIT_NODES", 0)
    log = []
    nesting = {}  # id of a list of items handed back -> (nesting of its round, the list)
    real = split.split_items

    def split_items(search, items, *args):
        record = [nesting.pop(id(items), (0,))[0] + 1, 0, stack_depth()]
        log.append(record)
        out = real(search, items, *args)
        handed = [rest for _, status, rest in out.values() if status == "split"]
        nesting.update((id(rest), (record[0], rest)) for rest in handed)
        record[1] = len(handed)
        return out

    monkeypatch.setattr(split, "split_items", split_items)
    return log


@pytest.fixture
def eager(monkeypatch):
    """Every item of a split hands its work back at its first check that
    finds neither a stop nor an improvement, whether items are left to take,
    later ones are running or one has ended the split, or not: as many
    hand-backs as the merge can be given."""
    real = split._Queue.report
    monkeypatch.setattr(split._Queue, "report",
                        lambda queue, count: (*real(queue, count)[:2], True, True))


def hand_backs(log) -> tuple[int, int]:
    """(items handed back, those handed back in a round that was itself
    handed back) in the log of the rounds fixture."""
    return sum(r[1] for r in log), sum(r[1] for r in log if r[0] > 1)


@pytest.fixture(scope="module")
def hand_back_clique_cases():
    """Clique searches of 74 to 5,937 nodes on two random graphs, whose
    maximum cliques the recursive reference kernel checks: from no
    incumbent, from the maximum (no improvement left to find) and from one
    less with the maximum as target, each also under a node limit one node
    either side of every multiple of 256 it reaches: (name, call, its
    one-CPU result) for each."""
    rng = random.Random(1313)
    cases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "_usable_cpus", lambda: 1)
        for n, p in ((150, 0.5), (120, 0.7)):
            g = random_graph(rng, n, p)
            adj = list(g.adj)
            omega = clique_search(adj, g.full_mask)[0]
            assert omega == reference_max_clique(adj, n, options=SolveOptions())[0]
            for initial_best, stop_at in ((0, None), (omega, None), (omega - 1, omega)):
                nodes = clique_search(adj, g.full_mask, initial_best=initial_best,
                                      stop_at=stop_at)[2]
                limits = [None] + [m * 256 + d for m in range(1, nodes // 256 + 1) for d in (-1, 1)]
                for limit in limits:
                    run = (lambda o=SolveOptions(node_budget=limit), a=adj, pool=g.full_mask,
                           b=initial_best, t=stop_at: clique_search(a, pool, o, initial_best=b,
                                                                    stop_at=t))
                    cases.append((f"{n} {initial_best} {stop_at} {limit}", run, run()))
    return cases


@pytest.mark.usefixtures("nothing_left_behind")
class TestHandBack:
    """The last item of a split still running once nothing is left to take
    hands the work it has left back, and the merge splits it again over the
    same workers, in rounds that nest: every result, budget stops included,
    is the one-CPU one, whatever happens to a worker in a nested round, and
    nesting costs no stack."""

    @pytest.mark.parametrize("trigger", ["natural", "eager"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_coloring_gives_the_one_cpu_result(self, coloring_cases, rounds, request,
                                               monkeypatch, cpus, trigger):
        if trigger == "eager":
            request.getfixturevalue("eager")
        monkeypatch.setattr(solve, "_usable_cpus", lambda: cpus)
        for name, run, expected in coloring_cases:
            assert run() == expected, name
        handed, nested = hand_backs(rounds)
        least_handed, least_nested = (50, 8) if trigger == "natural" else (300, 100)
        assert handed >= least_handed and nested >= least_nested

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_clique_gives_the_one_cpu_result(self, hand_back_clique_cases, rounds, eager,
                                             monkeypatch, cpus):
        # Random clique searches split into many small items, of which the
        # last rarely runs on once a process is idle; so every item hands
        # back at its first check here.
        monkeypatch.setattr(solve, "_usable_cpus", lambda: cpus)
        for name, run, expected in hand_back_clique_cases:
            assert run() == expected, name
        handed, nested = hand_backs(rounds)
        assert handed >= 300 and nested >= 30

    def test_worker_killed_in_a_round_after_a_hand_back(self, coloring_cases, rounds, eager,
                                                        monkeypatch):
        # At the start of every nested round, once its job is sent, the
        # caller kills its worker: the round and the rest of the call run in
        # the caller alone.
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        caller = os.getpid()
        killed = []
        real = split._search_share

        def share(search, *args):
            procs = search[4].workers.procs
            if os.getpid() == caller and rounds[-1][0] > 1 and procs:
                os.kill(procs[0][0], signal.SIGKILL)
                killed.append(procs[0][0])
            return real(search, *args)

        monkeypatch.setattr(split, "_search_share", share)
        for name, run, expected in coloring_cases[::3]:
            assert run() == expected, name
        assert len(killed) >= 15

    def test_worker_coloring_rechecked_after_a_hand_back(self, rounds, eager, monkeypatch):
        # The caller takes no item, and every coloring the worker reports
        # gives vertex 0 the color of a neighbour: the merge meets the first
        # after the rounds of the items handed back before it.
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        caller = os.getpid()
        real = split._search_share

        def share(*args):
            if os.getpid() == caller:
                return []
            return [(i, count, status, rest if status == "split" else
                     [(at, value, (coloring[1],) + coloring[1:]) for at, value, coloring in rest])
                    for i, count, status, rest in real(*args)]

        monkeypatch.setattr(split, "_search_share", share)
        with pytest.raises(RuntimeError, match="a coloring from a split search failed"):
            ud.k_colorable(queen_graph(6), 7)
        assert len(rounds) >= 2 and hand_backs(rounds)[1] >= 1

    @pytest.mark.parametrize("entry", ["k_colorable", "chromatic_number", "clique"])
    def test_no_child_after_a_raise_in_a_nested_round(self, rounds, eager, monkeypatch, entry):
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        g = random_graph(random.Random(1313), 150, 0.5)
        omega = clique_search(list(g.adj), g.full_mask)[0]
        calls = {"k_colorable": lambda: ud.k_colorable(queen_graph(6), 7),
                 "chromatic_number": lambda: ud.chromatic_number(queen_graph(6)),
                 "clique": lambda: clique_search(list(g.adj), g.full_mask, initial_best=omega)}
        real = split.split_items

        def split_items(*args):
            out = real(*args)
            if rounds[-1][0] > 1:
                raise RuntimeError("fails in a nested round")
            return out

        monkeypatch.setattr(split, "split_items", split_items)
        with pytest.raises(RuntimeError, match="in a nested round"):
            calls[entry]()

    def test_nested_rounds_take_no_stack(self, rounds, eager, monkeypatch):
        # Every round of a search is called at one stack depth, however deep
        # it nests, so a recursion limit a few frames above the caller's
        # depth does not stop a search that nests rounds ten deep.
        g, _ = ud.hamming_graph(8, 6)
        options = SolveOptions(node_budget=50_000)
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 1)
        expected = ud.k_colorable(g, 5, options)
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 40)
        try:
            got = ud.k_colorable(g, 5, options)
        finally:
            sys.setrecursionlimit(limit)
        assert got == expected and expected.status == "unknown"
        assert max(r[0] for r in rounds) >= 8
        assert len({r[2] for r in rounds}) == 1


@pytest.mark.usefixtures("nothing_left_behind")
def test_budgeted_h11_4_pivot_split_gives_the_one_cpu_result(monkeypatch):
    # The benchmark's H(11,4) search stops at 150,016 nodes inside its
    # first root branch; split on two CPUs at 1,024 nodes, it still returns
    # the one-CPU bracket, witness and node count. The bracket's upper end
    # is the pivot plus the pool's greedy clique cover, 101, which is below
    # the kernel's 114 colors at the root. The item in which the
    # stop falls runs no more than 256 nodes past it: its process's start
    # bound counts the nodes of the items before it, running ones too. That
    # item, 624, hands no work back: by the time it is the last one running,
    # item 626 has ended the split at the stop.
    g, _ = ud.half_cube(11, 4)
    splits = []
    real = split.split_items

    def split_items(search, items, best, nodes, processes):
        out = real(search, items, best, nodes, processes)
        splits.append((search[4].stop_count(), nodes, len(items), out))
        return out

    monkeypatch.setattr(split, "split_items", split_items)

    def on(cpus):
        monkeypatch.setattr(solve, "_usable_cpus", lambda: cpus)
        res = solve.alpha_vertex_transitive(g, 0, SolveOptions(node_budget=150_000))
        return (res.lower_bound, res.upper_bound, res.witness, res.nodes_explored)

    one = on(1)
    assert not splits
    assert on(2) == one
    assert len(splits) == 1
    assert (one[0], one[1], one[3]) == (32, 102, 150_016)
    assert ud.check_independent_set(g, one[2])
    stop, start, size, out = splits[0]
    for i in range(size):
        count = out[i][0]
        if start + count >= stop:
            break
        start += count
    assert out[i][1] == "budget" and 0 <= count - (stop - start) <= 256


@pytest.fixture(scope="module")
def walk_setup():
    """The Gosset graph's augmentation state and the first 80 points of the
    lex ball, of which the walk tests the first 40 not in the graph."""
    return ud.initial_state(*ud.build_g0()), ud.enumerate_ball().points[:80]


@pytest.fixture
def forced_split(monkeypatch):
    """Every clique search that reaches its first check, at 256 nodes,
    splits across two processes. Returns (forks, splits): the pid of each
    process this one forks, and the items of each split."""
    monkeypatch.setattr(solve, "_SPLIT_NODES", 0)
    monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
    forks, splits = [], []
    real_fork, real_split = os.fork, split.split_items

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def split_items(*args):
        splits.append(len(args[1]))
        return real_split(*args)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(split, "split_items", split_items)
    return forks, splits


def walk(walk_setup, log=None):
    state, points = walk_setup
    final = ud.augment_greedy(state, points, max_candidates=40, log=log)
    return final.added, final.rejected_count, final.candidates_tested, final.nodes_explored


def chain(claimed_alpha=16):
    points = ud.shipped_certificate().points[:4]
    report = ud.verify_certificate(ud.Certificate(
        "gosset-240", points, claimed_alpha, ud.ratio_lower_bound(244, claimed_alpha)))
    return report.alpha, report.chi_lower


@pytest.mark.usefixtures("nothing_left_behind")
class TestKeptWorkers:
    """A call forks its workers at its first split and keeps them for the
    rest: one fork per walk or certificate chain, however often it splits,
    and no process left once the call returns or raises."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("call", ["walk", "chain"])
    def test_one_fork_per_call(self, walk_setup, forced_split, monkeypatch, call, cpus):
        # One worker per further CPU, forked once; with three processes on
        # a 2-vCPU machine, more than there are CPUs.
        forks, splits = forced_split
        run = (lambda: walk(walk_setup)) if call == "walk" else chain
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 1)
        one = run()
        assert not forks and not splits
        monkeypatch.setattr(solve, "_usable_cpus", lambda: cpus)
        assert run() == one
        assert len(splits) >= 4 and len(forks) == cpus - 1
        if call == "walk":
            assert one[2] == 40 and len(one[0]) == 1

    @pytest.mark.parametrize("call", ["walk", "chain"])
    def test_worker_killed_between_splits(self, walk_setup, forced_split, monkeypatch, call):
        # After the call's first split, its worker is killed: the later
        # splits run in the caller alone, with the one-CPU decisions and
        # node count, and the dead worker is reaped.
        forks, splits = forced_split
        run = (lambda: walk(walk_setup)) if call == "walk" else chain
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 1)
        one = run()
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        real = split.split_items
        killed = []

        def split_items(search, *args):
            out = real(search, *args)
            if not killed:
                pid = search[4].workers.procs[0][0]
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            return out

        monkeypatch.setattr(split, "split_items", split_items)
        assert run() == one
        assert killed == forks and len(splits) >= 4

    def test_caller_cpu_set_unchanged(self, walk_setup, forced_split):
        allowed = os.sched_getaffinity(0)
        walk(walk_setup)
        assert forced_split[0] and os.sched_getaffinity(0) == allowed

    def test_walk_whose_log_raises(self, walk_setup, forced_split):
        def log(x, accepted, alpha):
            if len(forced_split[1]) >= 2:
                raise RuntimeError("log fails")

        with pytest.raises(RuntimeError, match="log fails"):
            walk(walk_setup, log)
        assert len(forced_split[0]) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("entry", ["max_independent_set", "alpha_vertex_transitive",
                                       "chromatic_number", "augment_greedy",
                                       "verify_certificate"])
    def test_no_child_after_entry_point(self, walk_setup, slice1045, forced_split,
                                        monkeypatch, entry, fails):
        # Each entry point that splits returns, or raises after its first
        # split, and leaves no child behind.
        g = random_graph(random.Random(5), 100, 0.3)
        calls = {
            "max_independent_set": lambda: ud.max_independent_set(g),
            "alpha_vertex_transitive": lambda: solve.alpha_vertex_transitive(slice1045[0], 0),
            "chromatic_number": lambda: ud.chromatic_number(g, SolveOptions(node_budget=3000)),
            "augment_greedy": lambda: walk(walk_setup),
            "verify_certificate": chain,
        }
        if fails:
            real = split.split_items

            def split_items(*args):
                real(*args)
                raise RuntimeError("fails after a split")

            monkeypatch.setattr(split, "split_items", split_items)
            with pytest.raises(RuntimeError, match="after a split"):
                calls[entry]()
        else:
            calls[entry]()
        assert len(forced_split[0]) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_claim_failed_after_splits(self, forced_split):
        with pytest.raises(ud.CertificateError, match="recomputed alpha 16"):
            chain(claimed_alpha=17)
        assert len(forced_split[0]) == 1 and len(forced_split[1]) >= 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("nothing_left_behind")
class TestSplitStarts:
    """With _SPLIT_NODES as it is, a call's first split is at 2^10 nodes,
    where it forks the call's workers, and each later search of the call,
    whose budget holds them, splits at its first check, at 256 nodes."""

    @pytest.mark.parametrize("call", ["walk", "chain"])
    def test_first_split_at_split_nodes_later_ones_at_first_check(self, walk_setup,
                                                                   monkeypatch, call):
        events = []  # ("start",), ("split", count) and ("end", nodes, status), in order
        real_split, real_search = solve._split, e8._max_clique_masks

        def spy_split(search, items, best, best_mask, nodes):
            if not search[4].hand_back:  # not an item handing its work back
                events.append(("split", nodes))
            return real_split(search, items, best, best_mask, nodes)

        def spy_search(*args, **keywords):
            events.append(("start",))
            out = real_search(*args, **keywords)
            events.append(("end", out[2], out[3]))
            return out

        monkeypatch.setattr(solve, "_split", spy_split)
        monkeypatch.setattr(e8, "_max_clique_masks", spy_search)

        def run():
            events.clear()
            log = []
            if call == "walk":
                out = walk(walk_setup, lambda *decision: log.append(decision))
            else:
                points = ud.shipped_certificate().points[:4]
                out = ud.verify_certificate(ud.Certificate(
                    "gosset-240", points, 16, ud.ratio_lower_bound(244, 16)))
            return out, log, [e[1:] for e in events if e[0] == "end"]

        monkeypatch.setattr(solve, "_usable_cpus", lambda: 1)
        one = run()
        assert not any(e[0] == "split" for e in events)
        monkeypatch.setattr(solve, "_usable_cpus", lambda: 2)
        assert run() == one
        if call == "walk":
            assert len(one[0][0]) == 1 and len(one[1]) == 40

        splits = [e[1] for e in events if e[0] == "split"]
        assert len(splits) >= 4 and splits == [1024] + [256] * (len(splits) - 1)
        # No split in a search that ends within 256 nodes; the walk makes
        # some, the chain's decisions each take thousands.
        short = 0
        for start in (i for i, e in enumerate(events) if e[0] == "start"):
            end = next(i for i in range(start, len(events)) if events[i][0] == "end")
            if events[end][1] < 256:
                short += 1
                assert all(e[0] != "split" for e in events[start:end])
        assert call == "chain" or short >= 3


@pytest.mark.usefixtures("nothing_left_behind")
class TestQueue:
    def test_each_position_taken_once_and_in_order(self):
        # More positions than a pipe holds as 4-byte records, taken by more
        # processes than there are CPUs, each as fast as it can.
        size = 20_000
        procs = []
        with split._Queue(size) as queue:
            for _ in range(3):
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        os.close(read_end)
                        taken = [i for i, _ in iter(queue.take, None)]
                        with open(write_end, "wb") as pipe:
                            pipe.write(marshal.dumps(taken))
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write_end)
                procs.append((pid, read_end))
            shares = [[i for i, _ in iter(queue.take, None)]]
            for pid, read_end in procs:
                with open(read_end, "rb") as pipe:
                    shares.append(marshal.loads(pipe.read()))
                assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert all(share == sorted(share) for share in shares)
        assert sorted(i for share in shares for i in share) == list(range(size))

    def test_clear_leaves_nothing_to_take(self):
        with split._Queue(3) as queue:
            assert queue.take() == (0, 0)
            queue.clear(0)
            assert queue.take() is None
            assert queue.take() is None

    def test_nodes_finished_summed(self):
        with split._Queue(3) as queue:
            assert queue.take() == (0, 0)
            assert queue.take(4) == (1, 4)
            assert queue.take(5) == (2, 9)
            assert queue.take(1) is None  # only the positions run out
            assert queue.take() is None
        with split._Queue(2) as queue:
            assert queue.take(10**12) == (0, 10**12)
            assert queue.take(1) == (1, 10**12 + 1)
            assert queue.take() is None

    def test_start_bound_counts_items_in_flight(self):
        # Three slots in one process: each report returns the nodes of the
        # positions before the slot's own, finished or running, whether one
        # of them ended the split, whether the slot's position is the last
        # one held with none left to take and none that ended the split (an
        # item that may hand its work back), and whether a slot holds none.
        with split._Queue(4, 3) as queue:
            def as_slot(slot, method, *args):
                queue.slot = slot
                return getattr(queue, method)(*args)

            assert as_slot(1, "take") == (0, 0)
            assert as_slot(2, "take") == (1, 0)
            assert as_slot(0, "take") == (2, 0)
            assert as_slot(1, "report", 500) == (0, False, False, False)
            assert as_slot(2, "report", 40) == (500, False, False, False)
            assert as_slot(0, "report", 7) == (540, False, False, False)
            assert as_slot(2, "take", 90) == (3, 90)  # position 1 finished in 90
            assert as_slot(0, "report", 8) == (590, False, False, False)  # position 3 runs
            assert as_slot(2, "report", 3) == (598, False, True, False)
            assert as_slot(1, "take", 600) is None  # position 0 finished in 600
            assert as_slot(0, "report", 9) == (690, False, False, True)
            assert as_slot(2, "report", 4) == (699, False, True, True)
            as_slot(0, "clear", 2)
            assert as_slot(2, "report", 5) == (699, True, False, True)
            assert as_slot(0, "report", 10) == (690, False, False, True)
            queue.reset(3)  # every slot holds none until it takes
            assert as_slot(0, "take") == (0, 0)
            assert as_slot(0, "report", 1) == (0, False, False, True)
            assert as_slot(1, "take") == (1, 0)
            assert as_slot(2, "take") == (2, 0)
            assert as_slot(1, "report", 2) == (1, False, False, False)  # position 2 runs
            assert as_slot(2, "report", 3) == (3, False, True, False)
            assert as_slot(2, "take", 4) is None
            assert as_slot(1, "report", 5) == (1, False, True, True)
            assert as_slot(0, "report", 6) == (0, False, False, True)  # position 1 runs


def test_current_cpu_is_one_this_process_may_run_on():
    assert split._current_cpu() in os.sched_getaffinity(0)


class TestRootColouring:
    def test_at_most_degeneracy_plus_one_colours(self):
        # The kernel colours its pool first-fit, last-removed vertex of the
        # smallest-last order first, so each vertex has at most degeneracy
        # coloured neighbours when it is coloured (Matula & Beck 1983).
        rng = random.Random(1983)
        for _ in range(1000):
            n = rng.randrange(5, 40)
            g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))
            pool = g.full_mask
            if rng.random() < 0.5:
                pool = sum(1 << v for v in range(n) if rng.random() < 0.7)
            degeneracy, alive = 0, pool
            for v in reference_degeneracy_order(list(g.adj), pool):
                degeneracy = max(degeneracy, (g.adj[v] & alive).bit_count())
                alive ^= 1 << v
            upper = clique_search(list(g.adj), pool)[4]
            assert upper <= degeneracy + 1, (n, pool)


class TestRelabel:
    def test_matches_set_oracle(self):
        rng = random.Random(717)
        for n in (1, 2, 31, 64, 65, 200, 700):
            g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
            for keep in (1.0, 0.5):
                members = [v for v in range(n) if rng.random() < keep]
                pool = sum(1 << v for v in members)
                order = rng.sample(members, len(members))
                pos = {v: i for i, v in enumerate(order)}
                expected = [sum(1 << pos[w] for w in members if g.has_edge(v, w))
                            for v in order]
                assert _relabel(list(g.adj), pool, order) == expected, (n, keep)

    def test_matches_per_bit_loop(self):
        rng = random.Random(718)
        for n in (1, 2, 63, 64, 65, 184, 301, 700):
            g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
            for keep in (1.0, 0.6, 0.1):
                members = [v for v in range(n) if rng.random() < keep] or [n - 1]
                pool = sum(1 << v for v in members)
                order = rng.sample(members, len(members))
                adj = list(g.adj)
                assert _relabel(adj, pool, order) == reference_relabel(adj, pool, order), n


class TestComplementDuality:
    def test_alpha_equals_complement_clique(self):
        rng = random.Random(91)
        for _ in range(30):
            n = rng.randrange(1, 15)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            full = g.full_mask
            co = ud.Graph(n, tuple(full ^ g.adj[v] ^ (1 << v) for v in range(n)))
            assert brute_alpha(g) == brute_max_clique(co)
            assert ud.max_independent_set(g).alpha == brute_max_clique(co)


class TestResultTypes:
    def test_incomplete_type_distinct_from_result(self, slice1045):
        g, _ = slice1045
        res = ud.max_independent_set(g, ud.SolveOptions(node_budget=100))
        assert not isinstance(res, ud.MisResult)
        assert isinstance(res, ud.MisIncomplete)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ud.SolveOptions(node_budget=-1)
        with pytest.raises(ValueError):
            ud.SolveOptions(time_budget=0)
