import random

import pytest

import unitdist as ud
from unitdist import orbital
from unitdist.core import check_automorphisms, iter_bits, orbit


# Cube graphs and the Gosset graph, each with the cloud its generators come from.
CASES = {
    "c62": ud.hamming_graph(6, 2),
    "h74": ud.half_cube(7, 4),
    "c843": ud.slice_graph(8, 4, 3),
    "gosset": ud.build_g0(),
}


def invariant_pool(g, v):
    """The non-neighbours of v other than v: a pool the stabiliser of v maps
    onto itself."""
    return g.full_mask & ~g.adj[v] & ~(1 << v)


@pytest.mark.parametrize("name", CASES)
class TestGroup:
    def test_stabiliser_fixes_v_and_is_checked(self, name):
        g, cloud = CASES[name]
        perms = ud.cloud_automorphisms(cloud)
        for v in (0, g.n // 3, g.n - 1):
            pool = invariant_pool(g, v)
            gens = orbital.stabiliser(perms, v, pool, random.Random(0), 32)
            assert gens, "a vertex of these graphs has a non-trivial stabiliser"
            assert all(h[v] == v for h in gens)
            check_automorphisms(g, gens)
            # Distinct and non-trivial in their action on the pool.
            actions = {tuple(h[x] for x in iter_bits(pool)) for h in gens}
            assert len(actions) == len(gens)
            assert tuple(iter_bits(pool)) not in actions

    def test_orbits_in_a_pool_match_core_orbit(self, name):
        # The stabiliser of v maps v's non-neighbours onto themselves; the
        # orbits inside them partition them, and each is core.orbit of each
        # of its vertices.
        g, cloud = CASES[name]
        perms = ud.cloud_automorphisms(cloud)
        v = g.n // 2
        pool = invariant_pool(g, v)
        gens = orbital.stabiliser(perms, v, pool, random.Random(1), 32)
        orbits = orbital.pool_orbits(gens, pool)
        assert sum(o.bit_count() for o in orbits) == pool.bit_count()
        covered = 0
        for o in orbits:
            assert not o & covered and not o & ~pool
            covered |= o
            for w in iter_bits(o):
                assert orbit(gens, w) == o

    def test_transversal_maps_v_onto_each_orbit_vertex(self, name):
        g, cloud = CASES[name]
        perms = ud.cloud_automorphisms(cloud)
        schreier = orbital.Schreier(perms, 0)
        assert sorted(schreier.orbit) == list(iter_bits(orbit(perms, 0)))
        for w in schreier.orbit[::7]:
            u, inv = schreier.transversal(w), schreier.inverse(w)
            assert u[0] == w and inv[w] == 0
            assert all(inv[u[x]] == x for x in range(g.n))
        check_automorphisms(g, [schreier.transversal(w) for w in schreier.orbit[::7]])


def test_same_draws_same_generators():
    g, cloud = CASES["h74"]
    perms = ud.cloud_automorphisms(cloud)
    pool = invariant_pool(g, 5)
    first = orbital.stabiliser(perms, 5, pool, random.Random(3), 16)
    assert orbital.stabiliser(perms, 5, pool, random.Random(3), 16) == first


def test_trivial_stabiliser_gives_no_generator():
    # A rotation of a cycle fixes no vertex unless it is the identity.
    n = 9
    rotation = tuple((v + 1) % n for v in range(n))
    assert orbital.stabiliser([rotation], 0, 0b111111110, random.Random(0), 32) == []
    assert orbital.pool_orbits([rotation], (1 << n) - 1) == [(1 << n) - 1]
