from math import comb

import pytest

import unitdist as ud
from unitdist.core import check_automorphisms, iter_bits, mask_from_indices, orbit, sq_dist
from unitdist.hypercube import vector_of


def hamming(i: int, j: int) -> int:
    return (i ^ j).bit_count()


class TestHammingGraph:
    def test_c52_shape(self, c52):
        g, cloud = c52
        assert g.n == 32
        assert ud.degree_profile(g) == (10, 10, True)
        assert cloud.adjacency_sq_dist == 2

    def test_c104_shape(self, c104):
        g, _ = c104
        assert g.n == 1024
        assert ud.degree_profile(g) == (210, 210, True)

    def test_u_exceeding_d_rejected(self):
        with pytest.raises(ValueError, match="u exceeds d"):
            ud.hamming_graph(3, 4)

    def test_width_cap_rejected(self):
        with pytest.raises(ValueError, match="width cap"):
            ud.hamming_graph(17, 2)

    @pytest.mark.parametrize("d,u", [(3, 1), (4, 2), (5, 3), (5, 2)])
    def test_matches_generic_point_construction(self, d, u):
        g, cloud = ud.hamming_graph(d, u)
        regen = ud.graph_from_points(cloud)
        assert regen.adj == g.adj

    def test_vertex_order_is_lexicographic(self):
        _, cloud = ud.hamming_graph(3, 1)
        assert cloud.points == tuple(sorted(cloud.points))
        assert cloud.points[0] == (0, 0, 0)
        assert cloud.points[-1] == (1, 1, 1)

    @pytest.mark.parametrize("d,u", [(4, 2), (5, 2), (5, 4), (6, 3)])
    def test_xor_translation_is_automorphism(self, d, u):
        g, _ = ud.hamming_graph(d, u)
        for t in (1, 5, (1 << d) - 1):
            for v in range(g.n):
                for w in iter_bits(g.adj[v]):
                    assert g.has_edge(v ^ t, w ^ t)


class TestHalfCube:
    @pytest.mark.parametrize("d,u,n", [(5, 2, 16), (10, 4, 512), (11, 4, 1024)])
    def test_vertex_counts(self, d, u, n):
        g, cloud = ud.half_cube(d, u)
        assert g.n == n == 1 << (d - 1)
        assert all(sum(p) % 2 == 0 for p in cloud.points)

    def test_odd_u_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ud.half_cube(5, 3)

    @pytest.mark.parametrize("d,u", [(2, 2), (4, 2), (5, 4), (6, 6), (7, 4)])
    def test_half_vertex_count_formula(self, d, u):
        g, _ = ud.half_cube(d, u)
        assert g.n == 1 << (d - 1)

    @pytest.mark.parametrize("d,u", [(4, 2), (5, 2), (6, 4), (7, 4), (8, 6)])
    def test_parity_classes_carry_every_edge(self, d, u):
        # u even: flipping u bits preserves weight parity, so no edge of
        # C(d, u) joins an even-weight vertex to an odd-weight vertex.
        g, _ = ud.hamming_graph(d, u)
        odd_mask = 0
        for v in range(g.n):
            if v.bit_count() % 2 == 1:
                odd_mask |= 1 << v
        for v in range(g.n):
            if v.bit_count() % 2 == 0:
                assert g.adj[v] & odd_mask == 0

    @pytest.mark.parametrize("d,u", [(3, 2), (5, 2), (6, 4), (8, 4)])
    def test_parity_halves_isomorphic_by_flipping_first_coordinate(self, d, u):
        g, _ = ud.hamming_graph(d, u)
        evens = [v for v in range(g.n) if v.bit_count() % 2 == 0]
        flip = 1 << (d - 1)
        for a_pos, a in enumerate(evens):
            for b in evens[a_pos + 1:]:
                assert g.has_edge(a, b) == g.has_edge(a ^ flip, b ^ flip)

    def test_half_cube_is_even_induced_subgraph(self):
        full, _ = ud.hamming_graph(5, 2)
        half, cloud = ud.half_cube(5, 2)
        evens = [v for v in range(32) if v.bit_count() % 2 == 0]
        for i, vi in enumerate(evens):
            for j, vj in enumerate(evens):
                if i != j:
                    assert half.has_edge(i, j) == full.has_edge(vi, vj)
        assert cloud.points == tuple(vector_of(v, 5) for v in evens)


def induced_on(d: int, u: int, keep) -> tuple[ud.Graph, list[int]]:
    """C(d, u) induced on the vertex indices satisfying keep, via the generic
    induced_subgraph, with the kept indices in order."""
    full, _ = ud.hamming_graph(d, u)
    kept = [v for v in range(full.n) if keep(v)]
    sub, _ = ud.induced_subgraph(full, ud.VertexSet(full.n, mask_from_indices(kept)))
    return sub, kept


class TestDirectBuilders:
    def test_half_cube_equals_induced_even_half(self):
        for d in range(2, 12):
            for u in range(2, d + 1, 2):
                g, cloud = ud.half_cube(d, u)
                sub, kept = induced_on(d, u, lambda v: v.bit_count() % 2 == 0)
                assert g.adj == sub.adj, (d, u)
                assert g.name == f"H({d},{u})"
                assert cloud.points == tuple(vector_of(v, d) for v in kept)
                assert cloud.adjacency_sq_dist == u

    def test_slice_equals_induced_slice(self):
        for d in range(1, 11):
            for u in range(1, d + 1):
                for s in range(d + 1):
                    g, cloud = ud.slice_graph(d, u, s)
                    sub, kept = induced_on(d, u, lambda v: v.bit_count() == s)
                    assert g.adj == sub.adj, (d, u, s)
                    assert g.name == f"C({d},{u},{s})"
                    assert cloud.points == tuple(vector_of(v, d) for v in kept)


class TestSliceGraph:
    def test_slice_1045(self, slice1045):
        g, cloud = slice1045
        assert g.n == comb(10, 5) == 252
        assert ud.degree_profile(g) == (100, 100, True)
        assert all(sum(p) == 5 for p in cloud.points)

    def test_height_zero_single_vertex(self):
        g, _ = ud.slice_graph(6, 2, 0)
        assert g.n == 1 and g.edge_count() == 0

    def test_slice_422_four_regular(self):
        # A weight-2 neighbor at Hamming distance 2 drops 1 of 2 ones and
        # adds 1 of 2 zeros: 2*2 = 4 neighbors.
        g, _ = ud.slice_graph(4, 2, 2)
        assert g.n == 6
        assert ud.degree_profile(g) == (4, 4, True)

    def test_out_of_range_height_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ud.slice_graph(5, 2, 6)

    def test_degree_formula_all_dims_up_to_ten(self):
        # Weight-preserving flips split u into u/2 ones dropped inside the
        # support and u/2 zeros raised outside it.
        for d in range(1, 11):
            for u in range(1, d + 1):
                for s in range(d + 1):
                    g, _ = ud.slice_graph(d, u, s)
                    if u % 2 == 1:
                        assert g.edge_count() == 0
                        continue
                    expect = comb(s, u // 2) * comb(d - s, u // 2)
                    lo, hi, regular = ud.degree_profile(g)
                    assert regular
                    assert lo == expect


class TestCloudAutomorphisms:
    # The swap and the cyclic shift generate every coordinate permutation,
    # and a slice keeps only those. Complementing x0 adds the translation by
    # e0 on C(d,u), and complementing x0 and x1 the translation by e0 + e1,
    # which keeps the parity of H(d,u). Either way the orbit of vertex 0 is
    # the whole graph, and every permutation passes the solver's check.
    @pytest.mark.parametrize("d,u", [(2, 1), (3, 2), (5, 2), (6, 4), (8, 6)])
    def test_cube_is_transitive(self, d, u):
        g, cloud = ud.hamming_graph(d, u)
        perms = ud.cloud_automorphisms(cloud)
        assert len(perms) == 4  # swap, shift and both complements
        check_automorphisms(g, perms)
        assert orbit(perms, 0) == g.full_mask

    @pytest.mark.parametrize("d,u", [(3, 2), (4, 2), (6, 2), (6, 4), (8, 6), (10, 4)])
    def test_half_cube_is_transitive(self, d, u):
        g, cloud = ud.half_cube(d, u)
        perms = ud.cloud_automorphisms(cloud)
        assert len(perms) == 3  # swap, shift and the two-coordinate complement
        check_automorphisms(g, perms)
        assert orbit(perms, 0) == g.full_mask

    @pytest.mark.parametrize("d,u,s", [(4, 2, 2), (5, 2, 2), (6, 4, 3), (7, 2, 3), (10, 4, 5)])
    def test_slice_is_transitive(self, d, u, s):
        g, cloud = ud.slice_graph(d, u, s)
        perms = ud.cloud_automorphisms(cloud)
        assert len(perms) == 2  # swap and shift
        check_automorphisms(g, perms)
        assert orbit(perms, 0) == g.full_mask

    def test_slice_solve_takes_the_checked_pivot(self, slice1045):
        g, cloud = slice1045
        res = ud.max_independent_set(g, None, ud.cloud_automorphisms(cloud))
        assert res.alpha == 12 and res.nodes_explored == 14341
        assert 0 in res.witness and ud.check_independent_set(g, res.witness)


class TestAppendZeroEmbedding:
    # Appending a zero coordinate maps vertex i of C(d, u) to vertex 2i of
    # C(d+1, u) (the last coordinate is the least significant bit), and the
    # map is induced, which gives chi(C(d, u)) <= chi(C(d+1, u)).
    @pytest.mark.parametrize("d,u", [(3, 2), (4, 2), (5, 3), (4, 4)])
    def test_embedding_is_induced(self, d, u):
        g_small, _ = ud.hamming_graph(d, u)
        g_big, _ = ud.hamming_graph(d + 1, u)
        for v in range(g_small.n):
            for w in range(g_small.n):
                if v != w:
                    assert g_small.has_edge(v, w) == g_big.has_edge(2 * v, 2 * w)

    def test_images_append_zero(self):
        small = ud.hamming_graph(3, 2)[1].points
        big = ud.hamming_graph(4, 2)[1].points
        for v in range(8):
            assert big[2 * v] == small[v] + (0,) == vector_of(v, 3) + (0,)

    def test_hamming_distances_unchanged(self):
        big = ud.hamming_graph(5, 2)[1].points
        for v in range(16):
            for w in range(16):
                assert sq_dist(big[2 * v], big[2 * w]) == hamming(v, w)
