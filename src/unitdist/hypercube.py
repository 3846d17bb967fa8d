"""Hamming-distance graphs on the 0/1 cube and their induced families.

C(d, u): all 2^d binary vectors, adjacent at Hamming distance exactly u.
H(d, u): the even-weight half of C(d, u), for u even (flipping an even
number of bits preserves weight parity, so no edge leaves the class).
C(d, u, s): the slice of C(d, u) at coordinate sum s.

Vertices are ordered lexicographically over bit vectors everywhere, so the
vertex of index i is the d-bit binary expansion of i (first coordinate most
significant). Hamming distance u equals squared Euclidean distance u on 0/1
vectors, so each constructor also returns the integer point cloud realizing
the graph at squared adjacency distance u.
"""
from __future__ import annotations

from .core import Graph, PointCloud

# Dense bit rows cost n bits per vertex; 2^16 vertices is the practical cap
# and far beyond the d <= 11 this package is used for.
MAX_DIM = 16


def vector_of(index: int, d: int) -> tuple[int, ...]:
    """The d-bit vector of a vertex index, first coordinate most significant."""
    return tuple((index >> (d - 1 - k)) & 1 for k in range(d))


def _check_dims(d: int, u: int) -> None:
    if d < 1:
        raise ValueError(f"dimension d={d} must be at least 1")
    if d > MAX_DIM:
        raise ValueError(f"dimension d={d} exceeds the width cap {MAX_DIM}")
    if u < 1:
        raise ValueError(f"Hamming distance u={u} must be at least 1")
    if u > d:
        raise ValueError(f"u exceeds d: no pair of {d}-bit vectors has Hamming distance {u}")


def _flips(d: int, u: int) -> list[int]:
    """The d-bit masks that flip exactly u coordinates."""
    return [m for m in range(1, 1 << d) if m.bit_count() == u]


def hamming_graph(d: int, u: int) -> tuple[Graph, PointCloud]:
    """C(d, u): 2^d vertices, i ~ j iff popcount(i ^ j) == u."""
    _check_dims(d, u)
    n = 1 << d
    deltas = _flips(d, u)
    adj = [0] * n
    for i in range(n):
        row = 0
        for m in deltas:
            row |= 1 << (i ^ m)
        adj[i] = row
    graph = Graph._trusted(n, tuple(adj), f"C({d},{u})")
    cloud = PointCloud(d, tuple(vector_of(i, d) for i in range(n)), u)
    return graph, cloud


def half_cube(d: int, u: int) -> tuple[Graph, PointCloud]:
    """H(d, u): the even-weight induced half of C(d, u), 2^(d-1) vertices.

    Requires u even: for odd u every edge crosses between parity classes,
    so the class would be edgeless rather than a union of components.
    """
    _check_dims(d, u)
    if u % 2 != 0:
        raise ValueError(f"u={u} is odd: parity classes of C({d},{u}) carry no edges")
    # The even-weight vertex of rank k is k followed by its parity bit, so
    # ranks follow the lexicographic order and x ^ m has rank (x ^ m) >> 1.
    keep_indices = [(k << 1) | (k.bit_count() & 1) for k in range(1 << (d - 1))]
    deltas = _flips(d, u)
    adj = []
    for x in keep_indices:
        row = 0
        for m in deltas:
            row |= 1 << ((x ^ m) >> 1)
        adj.append(row)
    graph = Graph._trusted(len(adj), tuple(adj), f"H({d},{u})")
    cloud = PointCloud(d, tuple(vector_of(i, d) for i in keep_indices), u)
    return graph, cloud


def slice_graph(d: int, u: int, s: int) -> tuple[Graph, PointCloud]:
    """C(d, u, s): the slice of C(d, u) at coordinate sum s, binom(d, s) vertices."""
    _check_dims(d, u)
    if not 0 <= s <= d:
        raise ValueError(f"slice height s={s} out of range 0..{d}")
    keep_indices = [i for i in range(1 << d) if i.bit_count() == s]
    rank_bit = {x: 1 << k for k, x in enumerate(keep_indices)}
    deltas = _flips(d, u)
    adj = []
    for x in keep_indices:
        row = 0
        for m in deltas:
            row |= rank_bit.get(x ^ m, 0)
        adj.append(row)
    graph = Graph._trusted(len(adj), tuple(adj), f"C({d},{u},{s})")
    cloud = PointCloud(d, tuple(vector_of(i, d) for i in keep_indices), u)
    return graph, cloud


def append_zero_embedding(d: int, u: int) -> tuple[int, ...]:
    """Vertex map of the embedding C(d, u) -> C(d+1, u) that appends a zero.

    Entry i is the image of vertex i. The appended coordinate never differs,
    so Hamming distances are unchanged and the embedding is induced:
    edges map to edges and non-edges to non-edges, giving the row
    monotonicity chi(C(d, u)) <= chi(C(d+1, u)).
    """
    _check_dims(d, u)
    # Appending a zero as the new least-significant (last) coordinate.
    return tuple(i << 1 for i in range(1 << d))
