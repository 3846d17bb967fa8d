import random
from itertools import permutations

import pytest

import unitdist as ud
from unitdist import e8
from unitdist.core import sq_dist
from unitdist.e8 import BALL_SQ_RADIUS, CertificateError, _neighbor_mask


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def ball_count_by_convolution(dim: int, sq_radius: int) -> int:
    """Independent count of lattice points: convolve the 1-dim counts."""
    r_one = [0] * (sq_radius + 1)
    c = 0
    while c * c <= sq_radius:
        r_one[c * c] += 1 if c == 0 else 2
        c += 1
    counts = r_one[:]
    for _ in range(dim - 1):
        nxt = [0] * (sq_radius + 1)
        for m, a in enumerate(counts):
            if a:
                for m2, b in enumerate(r_one[: sq_radius + 1 - m]):
                    if b:
                        nxt[m + m2] += a * b
        counts = nxt
    return sum(counts)


class TestGossetRoots:
    def test_counts_and_types(self):
        roots = ud.gosset_roots().roots
        assert len(roots) == len(set(roots)) == 240
        pair_type = [v for v in roots if sorted(map(abs, v)) == [0, 0, 0, 0, 0, 0, 2, 2]]
        sign_type = [v for v in roots if sorted(map(abs, v)) == [1] * 8]
        assert len(pair_type) == 112
        assert len(sign_type) == 128
        assert all(sum(1 for c in v if c < 0) % 2 == 0 for v in sign_type)

    def test_all_norms_eight(self):
        assert all(dot(v, v) == 8 for v in ud.gosset_roots().roots)

    def test_contains_example_vector(self):
        assert (2, 2, 0, 0, 0, 0, 0, 0) in ud.gosset_roots().roots

    def test_excludes_odd_minus_count(self):
        assert (1, 1, 1, 1, 1, 1, 1, -1) not in ud.gosset_roots().roots

    def test_deterministic_order(self):
        a = ud.gosset_roots().roots
        b = ud.gosset_roots().roots
        assert a == b
        assert list(a[:112]) == sorted(a[:112])
        assert list(a[112:]) == sorted(a[112:])

    def test_rootset_validation_rejects_partial_sets(self):
        roots = ud.gosset_roots().roots
        with pytest.raises(ValueError, match="not a full root set"):
            ud.RootSet(roots[:239])


class TestG0:
    def test_example_edge(self, g0_pair):
        g, cloud = g0_pair
        i = cloud.points.index((2, 2, 0, 0, 0, 0, 0, 0))
        j = cloud.points.index((0, 0, 2, 2, 0, 0, 0, 0))
        assert g.has_edge(i, j)

    def test_adjacency_iff_orthogonal(self, g0_pair):
        # |a - b|^2 = 8 + 8 - 2 a.b, so distance 4 is exactly a.b = 0.
        g, cloud = g0_pair
        pts = cloud.points
        for i in range(240):
            for j in range(i + 1, 240):
                assert g.has_edge(i, j) == (dot(pts[i], pts[j]) == 0)

    def test_degree_equals_orthogonal_count_everywhere(self, g0_pair):
        g, cloud = g0_pair
        pts = cloud.points
        base = sum(1 for w in range(240) if w != 0 and dot(pts[0], pts[w]) == 0)
        assert ud.degree_profile(g) == (base, base, True)


class TestEnumerateBall:
    def test_count_matches_convolution_oracle(self):
        pool = ud.enumerate_ball()
        assert len(pool.points) == ball_count_by_convolution(8, BALL_SQ_RADIUS)

    def test_contains_all_roots_and_origin(self):
        points = set(ud.enumerate_ball().points)
        assert (0,) * 8 in points
        assert all(r in points for r in ud.gosset_roots().roots)

    def test_contains_all_shipped_points(self):
        points = set(ud.enumerate_ball().points)
        cert = ud.shipped_certificate()
        assert all(p in points for p in cert.points)

    def test_lexicographic_order(self):
        pool = ud.enumerate_ball(5, dim=3)
        assert list(pool.points) == sorted(pool.points)

    def test_norm_bound_tight(self):
        pts = ud.enumerate_ball(9, dim=3).points
        assert all(dot(p, p) <= 9 for p in pts)
        assert (3, 0, 0) in pts and (2, 2, 1) in pts

    def test_orbit_closure_small_radius(self):
        pts = set(ud.enumerate_ball(6, dim=4).points)
        for perm in permutations(range(4)):
            assert {tuple(p[k] for k in perm) for p in pts} == pts
        for signs in ((-1, 1, 1, 1), (-1, -1, 1, -1), (-1, -1, -1, -1)):
            assert {tuple(c * s for c, s in zip(p, signs)) for p in pts} == pts

    def test_orbit_closure_full_radius_sampled(self):
        pts = set(ud.enumerate_ball().points)
        rng = random.Random(17)
        perm = list(range(8))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(8)]
        assert {tuple(p[k] * signs[k] for k in perm) for p in pts} == pts


NORM_12_POINT = (0, 1, 1, 0, -2, 1, -2, 1)


@pytest.fixture(scope="module")
def g0_state(g0_pair):
    return ud.initial_state(*g0_pair)


def tiny_state(points, sq, options=None):
    cloud = ud.PointCloud(len(points[0]), tuple(points), sq)
    graph = ud.graph_from_points(cloud)
    return ud.initial_state(graph, cloud, options)


class TestAdditionPreservesAlpha:
    def test_universal_neighbor_preserves(self):
        # Two adjacent vertices (alpha = 1); x adjacent to both keeps alpha.
        state = tiny_state([(0,) * 8, (4, 0, 0, 0, 0, 0, 0, 0)], 16)
        assert state.alpha == 1
        x = (2, 2, 2, 2, 0, 0, 0, 0)
        assert sq_dist(x, state.cloud.points[0]) == 16
        assert sq_dist(x, state.cloud.points[1]) == 16
        preserved, new_alpha = ud.addition_preserves_alpha(state, x)
        assert preserved and new_alpha == 1

    def test_isolated_point_increases(self):
        state = tiny_state([(0,) * 8, (4, 0, 0, 0, 0, 0, 0, 0)], 16)
        x = (1, 0, 0, 0, 0, 0, 0, 0)
        preserved, new_alpha = ud.addition_preserves_alpha(state, x)
        assert not preserved and new_alpha == 2

    def test_existing_vertex_rejected(self):
        state = tiny_state([(0, 0), (2, 0)], 4)
        with pytest.raises(ValueError, match="already a vertex"):
            ud.addition_preserves_alpha(state, (0, 0))

    def test_first_shipped_points_preserve_alpha(self, g0_pair):
        graph, cloud = g0_pair
        state = ud.initial_state(graph, cloud)
        cert = ud.shipped_certificate()
        for x in cert.points[:3]:
            preserved, new_alpha = ud.addition_preserves_alpha(state, x)
            assert preserved and new_alpha == 16
            state = ud.augment_greedy(state, [x])

    def test_isolated_point_on_empty_graph(self):
        # alpha 0: the no-neighbour rule still gives the exact value 1.
        cloud = ud.PointCloud(2, (), 4)
        state = ud.initial_state(ud.graph_from_points(cloud), cloud)
        assert state.alpha == 0
        assert ud.addition_preserves_alpha(state, (0, 0)) == (False, 1)

    def test_matches_from_scratch_recomputation(self):
        # Random integer clouds; compare the non-neighbor reduction against
        # rebuilding the extended cloud and solving it fresh.
        rng = random.Random(99)
        for trial in range(12):
            dim = rng.choice([3, 4])
            sq = rng.choice([4, 5, 9])
            pts = set()
            while len(pts) < rng.randrange(20, 45):
                pts.add(tuple(rng.randrange(-3, 4) for _ in range(dim)))
            pts = sorted(pts)
            state = tiny_state(pts, sq)
            for _ in range(4):
                x = tuple(rng.randrange(-3, 4) for _ in range(dim))
                if x in pts:
                    continue
                preserved, new_alpha = ud.addition_preserves_alpha(state, x)
                bigger = ud.PointCloud(dim, tuple(pts) + (x,), sq)
                fresh = ud.max_independent_set(ud.graph_from_points(bigger))
                assert new_alpha == fresh.alpha
                assert preserved == (fresh.alpha == state.alpha)


class TestAugmentGreedy:
    def test_far_point_rejected_on_single_vertex_base(self):
        state = tiny_state([(0, 0, 0)], 4)
        assert state.alpha == 1
        final = ud.augment_greedy(state, [(9, 9, 9)])
        assert final.added == ()
        assert final.rejected_count == 1
        assert final.alpha == 1
        assert final.termination == "pool_exhausted"

    def test_adjacent_point_accepted_on_single_vertex_base(self):
        state = tiny_state([(0, 0, 0)], 4)
        final = ud.augment_greedy(state, [(2, 0, 0)])
        assert final.added == ((2, 0, 0),)
        assert final.graph.n == 2
        assert final.graph.has_edge(0, 1)

    def test_existing_points_skipped_without_budget(self):
        state = tiny_state([(0, 0, 0), (2, 0, 0)], 4)
        final = ud.augment_greedy(state, [(0, 0, 0), (2, 0, 0)])
        assert final.candidates_tested == 0
        assert final.termination == "pool_exhausted"

    def test_candidate_budget_reported_distinctly(self):
        state = tiny_state([(0, 0, 0)], 4)
        final = ud.augment_greedy(state, [(2, 0, 0), (0, 2, 0)], max_candidates=1)
        assert final.candidates_tested == 1
        assert final.termination == "budget_candidates"

    def test_accepted_budget_reported_distinctly(self):
        state = tiny_state([(0, 0, 0)], 4)
        final = ud.augment_greedy(
            state, [(2, 0, 0), (0, 2, 0), (0, 0, 2)], max_accepted=1)
        assert len(final.added) == 1
        assert final.termination == "budget_accepted"

    def test_log_callback_sees_every_tested_candidate(self):
        state = tiny_state([(0, 0, 0)], 4)
        seen = []
        ud.augment_greedy(state, [(2, 0, 0), (9, 9, 9)],
                          log=lambda x, ok, a: seen.append((x, ok, a)))
        # the running alpha is reported, and a rejection leaves it unchanged
        assert seen == [((2, 0, 0), True, 1), ((9, 9, 9), False, 1)]

    def test_skip_isolated_prefilter(self):
        state = tiny_state([(0, 0, 0)], 4)
        final = ud.augment_greedy(state, [(9, 9, 9)])
        assert final.rejected_count == 1 and final.nodes_explored == state.nodes_explored

    def test_rejection_stops_at_first_witness(self, g0_state):
        # An exact solve of this point's non-neighbour subgraph takes 20,287
        # nodes; the decision stops at its first independent 16-set.
        state = g0_state
        assert ud.addition_preserves_alpha(state, NORM_12_POINT) == (False, 17)
        final = ud.augment_greedy(state, [NORM_12_POINT])
        assert final.rejected_count == 1 and final.added == ()
        assert final.nodes_explored - state.nodes_explored == 16

    @pytest.mark.parametrize("corrupt", [lambda m: m & (m - 1), lambda m: (1 << 16) - 1],
                             ids=["short", "not-independent"])
    def test_rejection_witness_is_rechecked(self, g0_state, monkeypatch, corrupt):
        state = g0_state
        real = e8._max_clique_masks

        def tampered(*args, **kwargs):
            value, mask, nodes, status, upper = real(*args, **kwargs)
            return value, corrupt(mask), nodes, status, upper

        monkeypatch.setattr(e8, "_max_clique_masks", tampered)
        with pytest.raises(RuntimeError, match="re-check"):
            ud.augment_greedy(state, [NORM_12_POINT])

    def test_search_stopped_by_deadline_ends_walk_undecided(self, monkeypatch):
        # (9, 9, 9) has no neighbour and is rejected without search; the
        # search for (2, 0, 0) reports the deadline, so the walk stops there.
        state = tiny_state([(0, 0, 0)], 4)
        monkeypatch.setattr(e8, "_max_clique_masks",
                            lambda *args, **kwargs: (0, 0, 256, "budget", 1))
        final = ud.augment_greedy(state, [(9, 9, 9), (2, 0, 0), (0, 2, 0)],
                                  time_budget=3600)
        assert final.termination == "budget_time"
        assert final.candidates_tested == 1 and final.rejected_count == 1
        assert final.added == () and final.graph.n == 1
        assert final.nodes_explored == state.nodes_explored

    def test_odd_norm_point_rejected_without_search(self, g0_state):
        # Odd squared norm: every distance to a root is odd, never 16.
        state = g0_state
        x = (1, 0, 0, 0, 0, 0, 0, 0)
        assert ud.addition_preserves_alpha(state, x) == (False, 17)
        final = ud.augment_greedy(state, [x])
        assert final.rejected_count == 1
        assert final.nodes_explored == state.nodes_explored

    def test_full_ball_prefix_on_g0(self, g0_pair):
        graph, cloud = g0_pair
        state = ud.initial_state(graph, cloud)
        pool = ud.enumerate_ball()
        final = ud.augment_greedy(state, pool, max_candidates=3)
        assert final.candidates_tested == 3
        assert len(final.added) + final.rejected_count == 3
        assert final.alpha == 16
        assert final.termination == "budget_candidates"
        # existing roots inside the ball are skipped without consuming budget
        assert not set(final.added) & set(cloud.points)


class TestVerifyCertificateChecks:
    def test_unknown_base(self):
        cert = ud.Certificate("other-graph", (), 16, 15)
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(cert)
        assert err.value.condition == "unknown-base"

    def test_ratio_arithmetic(self):
        cert = ud.Certificate("gosset-240", (), 16, 19)  # ceil(240/16) = 15
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(cert)
        assert err.value.condition == "ratio-arithmetic"

    def test_point_outside_ball(self):
        cert = ud.Certificate("gosset-240", ((5, 0, 0, 0, 0, 0, 0, 0),), 16, 16)
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(cert)
        assert err.value.condition == "outside-ball"

    def test_duplicated_base_vertex(self):
        cert = ud.Certificate("gosset-240", ((2, 2, 0, 0, 0, 0, 0, 0),), 16, 16)
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(cert)
        assert err.value.condition == "duplicate-vertex"

    def test_duplicated_certificate_point(self):
        p = (1, 1, 1, 1, 0, 0, 0, 0)
        cert = ud.Certificate("gosset-240", (p, p), 16, 16)
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(cert)
        assert err.value.condition == "duplicate-vertex"

    def test_non_eight_vector(self):
        cert = ud.Certificate("gosset-240", ((1, 1),), 16, 16)
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(cert)
        assert err.value.condition == "bad-point"


class TestRationalRescale:
    def test_perfect_square_distances(self):
        for sq, expect in ((16, True), (4, True), (2, False), (3, False), (9, True)):
            cloud = ud.PointCloud(2, ((0, 0), (5, 5)), sq)
            assert ud.rational_rescale_check(cloud) is expect

    def test_gosset_cloud_rescalable(self, g0_pair):
        assert ud.rational_rescale_check(g0_pair[1]) is True


class TestNeighborMask:
    def test_mask_matches_distance_scan(self, g0_pair):
        _, cloud = g0_pair
        x = (1, 1, 1, 1, 0, 0, 0, 0)
        mask = _neighbor_mask(cloud, x)
        for i, p in enumerate(cloud.points):
            assert bool((mask >> i) & 1) == (sq_dist(p, x) == 16)
