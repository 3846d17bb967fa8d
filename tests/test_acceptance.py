"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. All asserted values are exact integers.
"""
import random
import time

import pytest

import unitdist as ud
from unitdist import formats
from unitdist.cli import EXIT_OK, main
from unitdist.core import sq_dist

from conftest import random_graph
from oracles import brute_alpha, brute_chi, brute_max_clique

EXPECTED_CHI_CELLS = {
    2: {2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8},
    4: {2: 1, 3: 1, 4: 2, 5: 4, 6: 7, 7: 8},
    6: {2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 4},
}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def chi_cell(d: int, u: int, options: ud.SolveOptions | None = None):
    if u > d:
        # no pair of d-bit vectors lies at Hamming distance u: edgeless
        g = ud.Graph(1 << d, (0,) * (1 << d), name=f"C({d},{u})")
    else:
        g, _ = ud.hamming_graph(d, u)
    return ud.chromatic_number(g, options or ud.SolveOptions())


def test_criterion_1_alpha_h52():
    g, _ = ud.half_cube(5, 2)
    t0 = time.perf_counter()
    res = ud.max_independent_set(g)
    elapsed = time.perf_counter() - t0
    bound = ud.ratio_lower_bound(g.n, res.alpha)
    ok = (isinstance(res, ud.MisResult) and res.alpha == 2 and bound == 8
          and ud.check_independent_set(g, res.witness) and elapsed < 1.0)
    report("criterion-1", ok, f"alpha(H(5,2))={res.alpha} bound={bound} "
                              f"time={elapsed:.3f}s")


def test_criterion_2_chi_grid_d_up_to_7():
    worst = 0.0
    values = {}
    for u, row in EXPECTED_CHI_CELLS.items():
        for d, expect in row.items():
            t0 = time.perf_counter()
            res = chi_cell(d, u)
            elapsed = time.perf_counter() - t0
            worst = max(worst, elapsed)
            assert isinstance(res, ud.ColoringResult), (d, u)
            values[(d, u)] = res.chi
            assert res.chi == expect, f"chi(C({d},{u})) = {res.chi}, expected {expect}"
            assert elapsed < 300.0, f"cell ({d},{u}) took {elapsed:.1f}s"
    report("criterion-2", True,
           f"all 18 exact cells for d<=7 match, worst cell {worst:.1f}s")


@pytest.mark.slow
def test_criterion_2_stretch_d8():
    # chi(C(8,2)) = chi(C(8,4)) = 8. chi(C(8,6)) is open here, but C(8,6) has a
    # checked 7-coloring (k_colorable(C(8,6), 7)), so chi(C(8,6)) <= 7.
    outcomes = []
    ok = True
    for u in (2, 4, 6):
        g, _ = ud.hamming_graph(8, u)
        t0 = time.perf_counter()
        res = ud.chromatic_number(g, ud.SolveOptions(time_budget=300))
        elapsed = time.perf_counter() - t0
        if isinstance(res, ud.ColoringResult):
            outcomes.append(f"chi(C(8,{u}))={res.chi} [{elapsed:.0f}s]")
            proper = ud.check_coloring(g, res.coloring, res.chi)
            ok = ok and proper and (res.chi <= 7 if u == 6 else res.chi == 8)
        else:
            outcomes.append(f"chi(C(8,{u})) in [{res.lower},{res.upper}] [{elapsed:.0f}s]")
            proper = ud.check_coloring(g, res.coloring, res.upper)
            ok = ok and proper and (res.lower <= 7 if u == 6 else res.lower <= 8 <= res.upper)
    report("criterion-2-stretch", ok, "; ".join(outcomes))


def test_criterion_3_slice_alpha_12():
    g, _ = ud.slice_graph(10, 4, 5)
    t0 = time.perf_counter()
    res = ud.max_independent_set(g)
    elapsed = time.perf_counter() - t0
    bound = ud.ratio_lower_bound(g.n, res.alpha)
    ok = (isinstance(res, ud.MisResult) and res.alpha == 12 and bound == 21
          and ud.check_independent_set(g, res.witness) and elapsed < 1800)
    report("criterion-3", ok,
           f"alpha(C(10,4,5))={res.alpha} => chi(R^9) >= {bound}, time={elapsed:.1f}s")


def test_criterion_4_half_cube_10_4():
    g, cloud = ud.half_cube(10, 4)
    t0 = time.perf_counter()
    res = ud.max_independent_set(g, None, ud.cloud_automorphisms(cloud))
    elapsed = time.perf_counter() - t0
    bound = ud.ratio_lower_bound(g.n, res.alpha)
    ok = (isinstance(res, ud.MisResult) and res.alpha == 20 and bound == 26
          and ud.check_independent_set(g, res.witness) and elapsed < 14400)
    report("criterion-4", ok,
           f"alpha(H(10,4))={res.alpha} => chi(R^10) >= {bound}, time={elapsed:.1f}s")


def test_criterion_5_half_cube_11_4_budgeted():
    # Exact under checked symmetry: orbital branching closes alpha(H(11,4))
    # = 32 well inside a 150,000-node budget, which only guards against a
    # search that runs away.
    g, cloud = ud.half_cube(11, 4)
    t0 = time.perf_counter()
    res = ud.max_independent_set(g, ud.SolveOptions(node_budget=150_000),
                                 ud.cloud_automorphisms(cloud))
    elapsed = time.perf_counter() - t0
    bound = ud.ratio_lower_bound(g.n, 32)
    ok = (isinstance(res, ud.MisResult) and res.alpha == 32
          and res.nodes_explored == 2_852 and len(res.witness) == 32
          and ud.check_independent_set(g, res.witness)
          and bound == 32 and elapsed < 60)
    report("criterion-5", ok,
           f"alpha(H(11,4))={getattr(res, 'alpha', None)} in {res.nodes_explored} nodes "
           f"=> chi(R^11) >= {bound} and chi(R^12) >= {bound}, time={elapsed:.1f}s")


def test_criterion_6_g0_structure(g0_pair):
    g, cloud = g0_pair
    t0 = time.perf_counter()
    pts = cloud.points
    pair_type = sum(1 for v in pts if sorted(map(abs, v)) == [0, 0, 0, 0, 0, 0, 2, 2])
    sign_type = sum(1 for v in pts if sorted(map(abs, v)) == [1] * 8)
    norms_ok = all(sum(c * c for c in v) == 8 for v in pts)
    adjacency_ok = True
    for i in range(240):
        row = g.adj[i]
        pi = pts[i]
        for j in range(i + 1, 240):
            dot = sum(a * b for a, b in zip(pi, pts[j]))
            if ((row >> j) & 1) != (dot == 0):
                adjacency_ok = False
    elapsed = time.perf_counter() - t0
    ok = (g.n == 240 and pair_type == 112 and sign_type == 128 and norms_ok
          and adjacency_ok and elapsed < 1.0)
    report("criterion-6", ok,
           f"240 = {pair_type}+{sign_type}, norms 8, adjacency iff orthogonal, "
           f"time={elapsed:.2f}s")


def test_criterion_7_alpha_g0(g0_pair):
    g, _ = g0_pair
    t0 = time.perf_counter()
    res = ud.max_independent_set(g)
    elapsed = time.perf_counter() - t0
    bound = ud.ratio_lower_bound(g.n, res.alpha)
    ok = (isinstance(res, ud.MisResult) and res.alpha == 16 and bound == 15
          and ud.check_independent_set(g, res.witness) and elapsed < 300)
    report("criterion-7", ok,
           f"alpha(G0)={res.alpha} => ratio bound {bound} (Gosset bound), "
           f"time={elapsed:.1f}s")


def test_criterion_8_certificate_verification():
    cert = ud.shipped_certificate()
    t0 = time.perf_counter()
    rep = ud.verify_certificate(cert)
    elapsed = time.perf_counter() - t0
    ok = (rep.n_vertices == 289 and rep.alpha == 16 and rep.chi_lower == 19
          and elapsed < 1800)
    report("criterion-8", ok,
           f"G0 + 49 points: n={rep.n_vertices} alpha={rep.alpha} "
           f"bound={rep.chi_lower}, time={elapsed:.1f}s")


def test_criterion_8_tampered_alpha_fails():
    cert = ud.shipped_certificate()
    tampered = ud.Certificate(cert.base, cert.points, 15,
                              ud.ratio_lower_bound(289, 15))
    with pytest.raises(ud.CertificateError) as err:
        ud.verify_certificate(tampered)
    ok = err.value.condition == "alpha-mismatch" and "16" in err.value.detail
    report("criterion-8-negative", ok,
           f"claimed alpha 15 rejected: {err.value.condition} ({err.value.detail})")


def test_criterion_9_augmentation_replay(tmp_path, capsys):
    cert = ud.shipped_certificate()
    pool_path = tmp_path / "pool.txt"
    pool_path.write_text(
        "\n".join(" ".join(str(c) for c in p) for p in cert.points) + "\n")
    out_path = tmp_path / "replayed.cert"
    t0 = time.perf_counter()
    code = main(["augment", "--pool-file", str(pool_path),
                 "--budget-candidates", "-1", "-o", str(out_path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("candidate ")]
    all_accepted = (len(lines) == 49
                    and all("outcome=accepted" in ln for ln in lines)
                    and all("alpha=16" in ln for ln in lines))
    replayed = formats.read_certificate(out_path)
    ok = (code == EXIT_OK and all_accepted and replayed.points == cert.points
          and replayed.claimed_alpha == 16 and replayed.claimed_chi_lower == 19
          and elapsed < 3600)
    report("criterion-9", ok,
           f"49/49 accepted in order, alpha pinned at 16, time={elapsed:.1f}s")


class TestCriterion10Properties:
    start = None

    @classmethod
    def setup_class(cls):
        cls.start = time.perf_counter()
        cls.pieces = []

    @classmethod
    def teardown_class(cls):
        total = time.perf_counter() - cls.start
        ok = total < 300.0
        report("criterion-10", ok,
               f"property suites total {total:.1f}s: " + "; ".join(cls.pieces))

    def test_oracle_equivalence_500_graphs(self):
        t0 = time.perf_counter()
        rng = random.Random(20240)
        for _ in range(500):
            n = rng.randrange(1, 19)
            p = rng.choice([0.2, 0.5, 0.8])
            g = random_graph(rng, n, p)
            mis = ud.max_independent_set(g)
            assert mis.alpha == brute_alpha(g)
            assert ud.check_independent_set(g, mis.witness)
            chi = ud.chromatic_number(g)
            assert chi.chi == brute_chi(g)
            assert ud.check_coloring(g, chi.coloring, chi.chi)
        self.pieces.append(f"500-graph oracle equivalence {time.perf_counter()-t0:.1f}s")

    def test_complement_duality(self):
        t0 = time.perf_counter()
        rng = random.Random(999)
        for _ in range(40):
            n = rng.randrange(1, 15)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            co = ud.Graph(n, tuple(g.full_mask ^ g.adj[v] ^ (1 << v) for v in range(n)))
            assert ud.max_independent_set(g).alpha == brute_max_clique(co)
        self.pieces.append(f"duality {time.perf_counter()-t0:.1f}s")

    def test_parity_edge_exclusion(self):
        t0 = time.perf_counter()
        for d, u in [(2, 2), (4, 2), (5, 2), (6, 2), (6, 4), (7, 4), (8, 4),
                     (8, 6), (10, 4)]:
            g, _ = ud.hamming_graph(d, u)
            odd_mask = 0
            for v in range(g.n):
                if v.bit_count() % 2 == 1:
                    odd_mask |= 1 << v
            for v in range(g.n):
                if v.bit_count() % 2 == 0:
                    assert g.adj[v] & odd_mask == 0, (d, u, v)
        self.pieces.append(f"parity exclusion {time.perf_counter()-t0:.1f}s")

    def test_g0_orthogonality(self, g0_pair):
        t0 = time.perf_counter()
        g, cloud = g0_pair
        pts = cloud.points
        for i in range(240):
            for j in range(i + 1, 240):
                dot = sum(a * b for a, b in zip(pts[i], pts[j]))
                assert g.has_edge(i, j) == (dot == 0)
        self.pieces.append(f"orthogonality {time.perf_counter()-t0:.1f}s")

    def test_round_trip_stability_all_formats(self, tmp_path):
        t0 = time.perf_counter()
        g, cloud = ud.half_cube(5, 2)
        graph_path = tmp_path / "g.graph"
        formats.write_graph(g, graph_path)
        blob = graph_path.read_bytes()
        formats.write_graph(formats.read_graph(graph_path), graph_path)
        assert graph_path.read_bytes() == blob

        coords_path = tmp_path / "g.coords"
        formats.write_point_cloud(cloud, coords_path)
        blob = coords_path.read_bytes()
        formats.write_point_cloud(formats.read_point_cloud(coords_path), coords_path)
        assert coords_path.read_bytes() == blob

        mis = ud.max_independent_set(g)
        wit_path = tmp_path / "g.alpha.witness"
        formats.write_independent_set_witness(wit_path, graph_path, mis.witness)
        blob = wit_path.read_bytes()
        formats.write_independent_set_witness(
            wit_path, graph_path,
            formats.read_independent_set_witness(wit_path, graph_path))
        assert wit_path.read_bytes() == blob

        chi = ud.chromatic_number(g)
        col_path = tmp_path / "g.coloring.witness"
        formats.write_coloring_witness(col_path, graph_path, chi.coloring)
        blob = col_path.read_bytes()
        formats.write_coloring_witness(
            col_path, graph_path, formats.read_coloring_witness(col_path, graph_path))
        assert col_path.read_bytes() == blob

        cert = ud.shipped_certificate()
        cert_path = tmp_path / "ship.cert"
        formats.write_certificate(cert, cert_path)
        blob = cert_path.read_bytes()
        formats.write_certificate(formats.read_certificate(cert_path), cert_path)
        assert cert_path.read_bytes() == blob
        self.pieces.append(f"round trips {time.perf_counter()-t0:.1f}s")

    def test_single_thread_determinism_every_path(self, g0_pair):
        t0 = time.perf_counter()
        g, cloud = ud.half_cube(6, 4)
        first = ud.max_independent_set(g)
        second = ud.max_independent_set(g)
        assert (first.alpha, first.witness, first.nodes_explored) == \
               (second.alpha, second.witness, second.nodes_explored)

        piv1 = ud.max_independent_set(g, None, ud.cloud_automorphisms(cloud))
        piv2 = ud.max_independent_set(g, None, ud.cloud_automorphisms(cloud))
        assert (piv1.alpha, piv1.witness) == (piv2.alpha, piv2.witness)

        k1 = ud.k_colorable(g, 6)
        k2 = ud.k_colorable(g, 6)
        assert (k1.status, k1.coloring, k1.nodes_explored) == \
               (k2.status, k2.coloring, k2.nodes_explored)

        chi1 = ud.chromatic_number(g)
        chi2 = ud.chromatic_number(g)
        assert (chi1.chi, chi1.coloring, chi1.nodes_explored) == \
               (chi2.chi, chi2.coloring, chi2.nodes_explored)

        assert ud.greedy_coloring_bound(g) == ud.greedy_coloring_bound(g)
        assert ud.clique_lower_bound(g) == ud.clique_lower_bound(g)
        self.pieces.append(f"single-thread determinism {time.perf_counter()-t0:.1f}s")
