import random

import pytest

import unitdist as ud
from unitdist import e8
from unitdist.core import DuplicatePointError, check_automorphisms, permute_rows, sq_dist

from conftest import random_graph
from oracles import reference_check_automorphisms


def bfs_components_oracle(g: ud.Graph) -> list[set[int]]:
    """Plain dict/set breadth-first search, independent of the bit-row code."""
    adj = {v: {w for w in range(g.n) if g.has_edge(v, w)} for v in range(g.n)}
    seen: set[int] = set()
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


class TestGraphConstruction:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError, match="symmetric"):
            ud.Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            ud.Graph(1, (0b1,))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            ud.Graph(3, (0, 0))

    def test_from_edges_round_trip(self):
        g = ud.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert g.edge_count() == 3

    def test_empty_graph(self):
        g = ud.Graph(0, ())
        assert g.edge_count() == 0
        assert ud.degree_profile(g) == (0, 0, True)


class TestGraphFromPoints:
    def test_two_point_adjacency(self):
        cloud = ud.PointCloud(8, ((2, 2, 0, 0, 0, 0, 0, 0), (0, 0, 2, 2, 0, 0, 0, 0)), 16)
        g = ud.graph_from_points(cloud)
        assert g.n == 2
        assert g.has_edge(0, 1)

    def test_single_point(self):
        cloud = ud.PointCloud(3, ((1, 2, 3),), 4)
        g = ud.graph_from_points(cloud)
        assert g.n == 1 and g.edge_count() == 0

    def test_gosset_roots_regular_by_direct_count(self, g0_pair):
        # Degree recounted straight from the coordinates, pair by pair.
        g, cloud = g0_pair
        pts = cloud.points
        for v in (0, 57, 239):
            count = sum(
                1 for w in range(len(pts))
                if w != v and sq_dist(pts[v], pts[w]) == 16)
            assert count == 126
        assert ud.degree_profile(g) == (126, 126, True)

    def test_duplicate_points_rejected_with_index_pair(self):
        with pytest.raises(DuplicatePointError) as err:
            ud.PointCloud(2, ((0, 0), (1, 1), (0, 0)), 2)
        assert err.value.indices == (0, 2)

    def test_order_equivariance(self):
        rng = random.Random(7)
        points = [(rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4))
                  for _ in range(12)]
        points = list(dict.fromkeys(points))
        cloud = ud.PointCloud(3, tuple(points), 5)
        g = ud.graph_from_points(cloud)
        perm = list(range(len(points)))
        rng.shuffle(perm)
        permuted = ud.PointCloud(3, tuple(points[p] for p in perm), 5)
        gp = ud.graph_from_points(permuted)
        # new index i holds old vertex perm[i]
        for i in range(len(points)):
            for j in range(len(points)):
                if i != j:
                    assert gp.has_edge(i, j) == g.has_edge(perm[i], perm[j])


class TestInducedSubgraph:
    def test_keep_all_is_identity(self, c52):
        g, _ = c52
        sub, index_map = ud.induced_subgraph(g, ud.VertexSet(g.n, g.full_mask))
        assert sub.adj == g.adj
        assert index_map == {v: v for v in range(g.n)}

    def test_keep_none_is_empty(self, c52):
        g, _ = c52
        sub, index_map = ud.induced_subgraph(g, ud.VertexSet(g.n, 0))
        assert sub.n == 0 and index_map == {}

    def test_weight_five_slice_of_c104(self, c104):
        g, _ = c104
        keep = ud.VertexSet.from_indices(g.n, [v for v in range(g.n) if v.bit_count() == 5])
        sub, _ = ud.induced_subgraph(g, keep)
        assert sub.n == 252

    def test_width_mismatch_rejected(self, c52):
        g, _ = c52
        with pytest.raises(ValueError):
            ud.induced_subgraph(g, ud.VertexSet(g.n + 1, (1 << (g.n + 1)) - 1))

    def test_edge_count_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(1, 17)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            keep_ids = [v for v in range(n) if rng.random() < 0.6]
            sub, _ = ud.induced_subgraph(g, ud.VertexSet.from_indices(g.n, keep_ids))
            inside = set(keep_ids)
            expect = sum(1 for i, j in g.edges() if i in inside and j in inside)
            assert sub.edge_count() == expect


def revalidated(g: ud.Graph) -> ud.Graph:
    """g rebuilt through the public constructor, which re-checks every row."""
    return ud.Graph(g.n, g.adj, g.name)


class TestTrustedBuilders:
    # The package's builders skip the symmetry check; the public constructor
    # runs it again on their rows.
    def test_families(self, g0_pair):
        graphs = [g0_pair[0]]
        for d in range(1, 9):
            for u in range(1, d + 1):
                graphs.append(ud.hamming_graph(d, u)[0])
                graphs.append(ud.slice_graph(d, u, d // 2)[0])
                if u % 2 == 0:
                    graphs.append(ud.half_cube(d, u)[0])
        for g in graphs:
            assert revalidated(g) == g

    def test_random_subgraphs_point_graphs_and_extensions(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randrange(1, 25)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            sub, _ = ud.induced_subgraph(
                g, ud.VertexSet.from_indices(g.n, [v for v in range(n) if rng.random() < 0.6]))
            assert revalidated(sub) == sub

            points = list(dict.fromkeys(
                tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(n + 1)))
            cloud = ud.PointCloud(3, tuple(points[:-1]), rng.choice([1, 2, 5]))
            base = ud.graph_from_points(cloud)
            assert revalidated(base) == base
            x = points[-1]
            new_cloud, grown = e8._extend(cloud, base, x, e8._neighbor_mask(cloud, x))
            assert revalidated(grown) == grown
            assert grown == ud.graph_from_points(new_cloud)


class TestDegreeProfile:
    def test_c52_ten_regular(self, c52):
        assert ud.degree_profile(c52[0]) == (10, 10, True)

    def test_c104_210_regular(self, c104):
        assert ud.degree_profile(c104[0]) == (210, 210, True)

    def test_single_vertex(self):
        assert ud.degree_profile(ud.Graph(1, (0,))) == (0, 0, True)


class TestConnectedComponents:
    def test_c62_two_halves(self):
        g, _ = ud.hamming_graph(6, 2)
        comps = ud.connected_components(g)
        oracle = bfs_components_oracle(g)
        assert sorted(len(c) for c in comps) == sorted(len(c) for c in oracle)
        assert {frozenset(c.indices()) for c in comps} == {frozenset(c) for c in oracle}
        assert len(comps) == 2
        assert all(len(c) == 32 for c in comps)

    def test_complete_graph_one_component(self):
        g = ud.Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert len(ud.connected_components(g)) == 1

    def test_edgeless_graph(self):
        g = ud.Graph(6, (0,) * 6)
        comps = ud.connected_components(g)
        assert len(comps) == 6
        # deterministic order by smallest contained vertex
        assert [min(c.indices()) for c in comps] == list(range(6))

    def test_components_match_oracle_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 12), 0.15)
            comps = {frozenset(c.indices()) for c in ud.connected_components(g)}
            assert comps == {frozenset(c) for c in bfs_components_oracle(g)}

    def test_pool_components_match_induced_subgraph(self):
        # Components inside a pool mask are the induced subgraph's, mapped back.
        rng = random.Random(29)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 12), 0.3)
            keep = ud.VertexSet.from_indices(g.n, [v for v in range(g.n) if rng.random() < 0.6])
            sub, index_map = ud.induced_subgraph(g, keep)
            back = {new: old for old, new in index_map.items()}
            expected = [tuple(back[v] for v in c.indices())
                        for c in ud.connected_components(sub)]
            got = ud.connected_components(g, keep.bits)
            assert [c.indices() for c in got] == expected
            assert all(c.n == g.n for c in got)


class TestRatioLowerBound:
    def test_headline_ratio_bounds(self):
        assert ud.ratio_lower_bound(512, 20) == 26
        assert ud.ratio_lower_bound(289, 16) == 19

    def test_equal_arguments(self):
        assert ud.ratio_lower_bound(7, 7) == 1

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            ud.ratio_lower_bound(10, 0)

    def test_unique_integer_characterization(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 10_000)
            a = rng.randrange(1, 200)
            k = ud.ratio_lower_bound(n, a)
            assert (k - 1) * a < n <= k * a


class TestVertexSet:
    def test_membership_and_len(self):
        s = ud.VertexSet.from_indices(8, [1, 5, 7])
        assert len(s) == 3
        assert 5 in s and 0 not in s
        assert s.indices() == (1, 5, 7)

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            ud.VertexSet(2, 0b100)


class TestBoundReport:
    def test_consistent_report(self):
        report = ud.BoundReport("g", 289, alpha=16, chi_lower=19)
        assert report.chi_lower == 19

    def test_inconsistent_ratio_rejected(self):
        with pytest.raises(ValueError):
            ud.BoundReport("g", 289, alpha=16, chi_lower=18)


def check_outcome(check, g, perms):
    """The message of the ValueError that check raises, or None."""
    try:
        check(g, perms)
    except ValueError as exc:
        return str(exc)
    return None


class TestPermuteRows:
    def test_moves_each_bit(self):
        rng = random.Random(808)
        for width in (0, 1, 2, 63, 64, 65, 300):
            rows = [rng.getrandbits(width) for _ in range(5)]
            sources = rng.sample(range(width), rng.randrange(width + 1))
            expected = [sum(1 << i for i, w in enumerate(sources) if row >> w & 1)
                        for row in rows]
            assert permute_rows(rows, sources, width) == expected, width

    def test_check_automorphisms_matches_per_bit_loop(self):
        # Automorphisms from the coordinates, the same moved by one
        # transposition (mostly not automorphisms), random permutations and
        # non-bijections: the same pass, or the same ValueError, as the loop.
        rng = random.Random(909)
        outcomes = set()
        for d, u in ((5, 2), (6, 4), (7, 2), (8, 6)):
            g, cloud = ud.hamming_graph(d, u)
            perms = ud.cloud_automorphisms(cloud)
            n = g.n
            trials = [perms]
            for p in perms:
                i, j = rng.sample(range(n), 2)
                q = list(p)
                q[i], q[j] = q[j], q[i]
                trials.append([p, tuple(q)])
            trials.append([tuple(rng.sample(range(n), n))])
            trials.append([perms[0], tuple(perms[0][:-1]) + (perms[0][0],)])
            trials.append([tuple(range(n - 1))])
            for trial in trials:
                got = check_outcome(check_automorphisms, g, trial)
                assert got == check_outcome(reference_check_automorphisms, g, trial)
                outcomes.add(got is None)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 80), rng.choice([0.1, 0.5, 0.9]))
            trial = [tuple(rng.sample(range(g.n), g.n)) for _ in range(2)]
            assert (check_outcome(check_automorphisms, g, trial)
                    == check_outcome(reference_check_automorphisms, g, trial))
        assert outcomes == {True, False}
