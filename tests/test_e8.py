import random
import re
from itertools import permutations

import pytest

import unitdist as ud
from unitdist import e8
from unitdist.core import orbit, sq_dist
from unitdist.e8 import BALL_SQ_RADIUS, CertificateError, _alpha_after_adding, _neighbor_mask
from unitdist.solve import SolveOptions, _Budget


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
# Norm 12, and no neighbour in the witness that rejects NORM_12_POINT.
MISSES_NORM_12_WITNESS = (-3, -1, 1, -1, 0, 0, 0, 0)


@pytest.fixture(scope="module")
def g0_state(g0_pair):
    return ud.initial_state(*g0_pair)


def tiny_state(points, sq, options=None):
    cloud = ud.PointCloud(len(points[0]), tuple(points), sq)
    graph = ud.graph_from_points(cloud)
    return ud.initial_state(graph, cloud, options)


def decide(state, x, witnesses=None):
    """(alpha of the state's graph plus x, nodes), by augment's decision."""
    with _Budget(SolveOptions()) as budget:
        return _alpha_after_adding(state.graph, state.cloud, state.alpha, x,
                                   budget, witnesses)[:2]


class TestAdditionPreservesAlpha:
    def test_universal_neighbor_preserves(self):
        # Two adjacent vertices (alpha = 1); x adjacent to both keeps alpha.
        state = tiny_state([(0,) * 8, (4, 0, 0, 0, 0, 0, 0, 0)], 16)
        assert state.alpha == 1
        x = (2, 2, 2, 2, 0, 0, 0, 0)
        assert sq_dist(x, state.cloud.points[0]) == 16
        assert sq_dist(x, state.cloud.points[1]) == 16
        assert decide(state, x)[0] == 1

    def test_isolated_point_increases(self):
        state = tiny_state([(0,) * 8, (4, 0, 0, 0, 0, 0, 0, 0)], 16)
        x = (1, 0, 0, 0, 0, 0, 0, 0)
        assert decide(state, x) == (2, 0)

    def test_first_shipped_points_preserve_alpha(self, g0_pair):
        graph, cloud = g0_pair
        state = ud.initial_state(graph, cloud)
        cert = ud.shipped_certificate()
        for x in cert.points[:3]:
            assert decide(state, x)[0] == 16
            state = ud.augment_greedy(state, [x])

    def test_isolated_point_on_empty_graph(self):
        # alpha 0: the no-neighbour rule still gives the exact value 1.
        cloud = ud.PointCloud(2, (), 4)
        state = ud.initial_state(ud.graph_from_points(cloud), cloud)
        assert state.alpha == 0
        assert decide(state, (0, 0)) == (1, 0)

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
                new_alpha, _ = decide(state, x)
                bigger = ud.PointCloud(dim, tuple(pts) + (x,), sq)
                fresh = ud.max_independent_set(ud.graph_from_points(bigger))
                assert new_alpha == fresh.alpha


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
        # An exact solve of this point's non-neighbour subgraph takes 18,975
        # nodes; the decision stops at its first independent 16-set.
        state = g0_state
        assert decide(state, NORM_12_POINT) == (17, 21)
        final = ud.augment_greedy(state, [NORM_12_POINT])
        assert final.rejected_count == 1 and final.added == ()
        assert final.nodes_explored - state.nodes_explored == 21

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

    def test_cached_witness_rejects_at_zero_nodes(self, g0_state):
        state = g0_state
        witnesses = []
        assert decide(state, NORM_12_POINT, witnesses) == (17, 21)
        assert len(witnesses) == 1
        assert decide(state, MISSES_NORM_12_WITNESS, witnesses) == (17, 0)
        assert len(witnesses) == 1
        final = ud.augment_greedy(state, [NORM_12_POINT, MISSES_NORM_12_WITNESS])
        assert final.rejected_count == 2
        assert final.nodes_explored - state.nodes_explored == 21

    def test_cached_witness_rejects_before_the_neighbour_scan(self, g0_state, monkeypatch):
        # The cache is tested on the witness's own coordinates, so a point it
        # rejects never pays for the scan of every point of the graph.
        state = g0_state
        witnesses = []
        decide(state, NORM_12_POINT, witnesses)
        scans = []
        real = e8._neighbor_mask

        def counting(cloud, x):
            scans.append(x)
            return real(cloud, x)

        monkeypatch.setattr(e8, "_neighbor_mask", counting)
        with _Budget(SolveOptions()) as budget:
            assert _alpha_after_adding(state.graph, state.cloud, 16, MISSES_NORM_12_WITNESS,
                                       budget, witnesses) == (17, 0, None)
        assert scans == []
        assert decide(state, NORM_12_POINT, []) == (17, 21)
        assert scans == [NORM_12_POINT]

    @pytest.mark.parametrize("tamper", ["short", "not-independent"])
    def test_cached_witness_is_rechecked(self, g0_state, tamper):
        # Either tampered set still misses the second point's neighbours, so
        # it is the one the cache offers.
        state = g0_state
        witnesses = []
        decide(state, NORM_12_POINT, witnesses)
        rest = witnesses[0] & (witnesses[0] - 1)
        if tamper == "not-independent":
            nbr = _neighbor_mask(state.cloud, MISSES_NORM_12_WITNESS)
            rest |= 1 << next(v for v in range(state.graph.n)
                              if state.graph.adj[v] & rest and not (nbr >> v) & 1)
        witnesses[0] = rest
        with pytest.raises(RuntimeError, match="re-check"):
            decide(state, MISSES_NORM_12_WITNESS, witnesses)

    def test_lex_walk_accepts_what_uncached_decisions_accept(self, g0_state):
        # The first 300 candidates of the ball, decided once with the walk's
        # witness cache and once each by its own search.
        state = g0_state
        final = ud.augment_greedy(state, ud.enumerate_ball().points, max_candidates=300)
        assert final.candidates_tested == 300 and len(final.added) == 2
        assert final.nodes_explored - state.nodes_explored == 72429
        present = set(state.cloud.points)
        candidates = [x for x in ud.enumerate_ball().points if x not in present][:300]
        graph, cloud = state.graph, state.cloud
        for x in candidates:
            with _Budget(SolveOptions()) as budget:
                alpha, _, nbr = _alpha_after_adding(graph, cloud, 16, x, budget)
            if alpha == 16:
                cloud, graph = e8._extend(cloud, graph, x, nbr)
        assert cloud.points[240:] == final.added

    def test_search_stopped_by_deadline_ends_walk_undecided(self, monkeypatch):
        # (9, 9, 9) has no neighbour and is rejected without search; the
        # search for (2, 0, 0) reports the deadline, so the walk stops there.
        state = tiny_state([(0, 0, 0)], 4)

        def stopped(*args, budget, **kwargs):
            budget.spent += 256
            return (0, 0, 256, "budget", 1)

        monkeypatch.setattr(e8, "_max_clique_masks", stopped)
        final = ud.augment_greedy(state, [(9, 9, 9), (2, 0, 0), (0, 2, 0)],
                                  time_budget=3600)
        assert final.termination == "budget_time"
        assert final.candidates_tested == 1 and final.rejected_count == 1
        assert final.added == () and final.graph.n == 1
        assert final.nodes_explored == state.nodes_explored + 256

    def test_odd_norm_point_rejected_without_search(self, g0_state):
        # Odd squared norm: every distance to a root is odd, never 16.
        state = g0_state
        x = (1, 0, 0, 0, 0, 0, 0, 0)
        assert decide(state, x) == (17, 0)
        final = ud.augment_greedy(state, [x])
        assert final.rejected_count == 1
        assert final.nodes_explored == state.nodes_explored

    def test_full_ball_prefix_on_g0(self, g0_pair):
        graph, cloud = g0_pair
        state = ud.initial_state(graph, cloud)
        pool = ud.enumerate_ball().points
        final = ud.augment_greedy(state, pool, max_candidates=3)
        assert final.candidates_tested == 3
        assert len(final.added) + final.rejected_count == 3
        assert final.alpha == 16
        assert final.termination == "budget_candidates"
        # existing roots inside the ball are skipped without consuming budget
        assert not set(final.added) & set(cloud.points)


def isometry_perm(cloud, isometry):
    index = {p: i for i, p in enumerate(cloud.points)}
    return tuple(index[isometry(p)] for p in cloud.points)


def orbit_sizes(n, perms):
    sizes, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            v = frontier.pop()
            for p in perms:
                if p[v] not in orbit:
                    orbit.add(p[v])
                    frontier.append(p[v])
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


class TestBaseSymmetry:
    def test_w_d8_maps_alone_branch_on_its_two_orbits(self, g0_pair):
        # Without the reflection the group is not transitive, and the orbital
        # search branches on its orbits: 32 nodes, against 178,808 without
        # symmetry.
        g, cloud = g0_pair
        perms = [isometry_perm(cloud, f) for f in (lambda x: (x[1], x[0]) + x[2:],
                                                  lambda x: x[1:] + x[:1],
                                                  lambda x: (-x[0], -x[1]) + x[2:])]
        assert orbit_sizes(g.n, perms) == [112, 128]
        assert [orbit(perms, v).bit_count() for v in (0, g.n - 1)] == [112, 128]
        res = ud.max_independent_set(g, automorphisms=perms)
        assert res.alpha == 16 and res.nodes_explored == 32
        assert ud.check_independent_set(g, res.witness)

    def test_initial_state_takes_the_checked_pivot(self, g0_pair):
        # The two complements x0 -> 1 - x0 and (x0, x1) -> (1 - x0, 1 - x1)
        # do not map the roots onto themselves, so the same four are kept.
        g, cloud = g0_pair
        perms = ud.cloud_automorphisms(cloud)
        assert perms == [isometry_perm(cloud, f) for f in (
            lambda x: (x[1], x[0]) + x[2:],
            lambda x: x[1:] + x[:1],
            lambda x: (-x[0], -x[1]) + x[2:],
            lambda x: tuple(c - sum(x) // 4 for c in x))]
        assert orbit_sizes(g.n, perms) == [240]
        state = ud.initial_state(g, cloud)
        assert state.alpha == 16 and state.nodes_explored == 14

    def test_tiny_clouds_get_no_transitive_set(self):
        assert ud.cloud_automorphisms(ud.PointCloud(3, ((0, 0, 0), (2, 0, 0)), 4)) == []
        assert ud.cloud_automorphisms(ud.PointCloud(1, ((0,), (2,)), 4)) == []
        state = tiny_state([(0, 0, 0), (2, 0, 0), (9, 9, 9)], 4)
        assert state.alpha == 2


def counted_nodes(monkeypatch):
    """Count solver nodes at the two names e8 searches through."""
    total = [0]
    for attr, nodes_of in (("_max_clique_masks", lambda r: r[2]),
                           ("max_independent_set", lambda r: r.nodes_explored)):
        def wrapper(*args, _fn=getattr(e8, attr), _nodes_of=nodes_of, **kwargs):
            result = _fn(*args, **kwargs)
            total[0] += _nodes_of(result)
            return result
        monkeypatch.setattr(e8, attr, wrapper)
    return total


ODD_POINT = (1, 0, 0, 0, 0, 0, 0, 0)


class TestVerifyChain:
    def test_shipped_prefix_node_count(self, monkeypatch):
        points = ud.shipped_certificate().points[:12]
        nodes = counted_nodes(monkeypatch)
        report = ud.verify_certificate(ud.Certificate("gosset-240", points, 16, 16))
        assert (report.graph_name, report.n_vertices, report.alpha, report.chi_lower) == (
            "gosset-240+12", 252, 16, 16)
        assert nodes[0] == 116127

    def test_isolated_point_raises_alpha(self):
        # An odd-norm point has no neighbour: alpha(G0 + x) = 17.
        report = ud.verify_certificate(ud.Certificate("gosset-240", (ODD_POINT,), 17, 15))
        assert report.alpha == 17 and report.chi_lower == 15
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(ud.Certificate("gosset-240", (ODD_POINT,), 16, 16))
        assert err.value.condition == "alpha-mismatch"
        assert "recomputed alpha 17" in err.value.detail

    def test_claim_passed_mid_chain_fails_at_once(self, monkeypatch):
        # The odd point lifts alpha to 17 above the claimed 16, so the
        # shipped points after it are never decided.
        points = (ODD_POINT,) + ud.shipped_certificate().points
        nodes = counted_nodes(monkeypatch)
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(ud.Certificate("gosset-240", points, 16, 19))
        assert err.value.condition == "alpha-mismatch"
        assert "recomputed alpha 17 after 1 of 50 points" in err.value.detail
        assert nodes[0] == 14

    def test_chain_matches_a_fresh_solve(self, g0_pair):
        # A rise in the middle of the chain, then points decided against 17.
        _, cloud = g0_pair
        points = (ud.shipped_certificate().points[0], ODD_POINT,
                  ud.shipped_certificate().points[1], NORM_12_POINT)
        whole = ud.PointCloud(8, cloud.points + points, 16)
        fresh = ud.max_independent_set(ud.graph_from_points(whole))
        report = ud.verify_certificate(ud.Certificate(
            "gosset-240", points, fresh.alpha, ud.ratio_lower_bound(len(whole), fresh.alpha)))
        assert report.alpha == fresh.alpha == 18

    @pytest.mark.parametrize("node_budget", [8, 1000, 6000])
    def test_node_budget_gives_bracket(self, node_budget):
        # 8 nodes stop the base solve, which takes 14; 1,000 and 6,000 stop
        # a step of the chain.
        cert = ud.shipped_certificate()
        with pytest.raises(CertificateError) as err:
            ud.verify_certificate(cert, ud.SolveOptions(node_budget=node_budget))
        assert err.value.condition == "budget"
        lower, upper = map(int, re.search(r"\[(\d+), (\d+)\]", err.value.detail).groups())
        assert lower <= 16 <= upper
        assert (lower == 16) == (node_budget > 14)  # the base alpha is exact


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


class TestNeighborMask:
    def test_mask_matches_distance_scan(self, g0_pair):
        _, cloud = g0_pair
        x = (1, 1, 1, 1, 0, 0, 0, 0)
        mask = _neighbor_mask(cloud, x)
        for i, p in enumerate(cloud.points):
            assert bool((mask >> i) & 1) == (sq_dist(p, x) == 16)
