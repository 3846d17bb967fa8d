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


def _family(d: int, u: int, keep: list[int], name: str) -> tuple[Graph, PointCloud]:
    """The subgraph of C(d, u) induced on the sorted vertex list keep, with its cloud."""
    bit = [0] * (1 << d)
    for rank, x in enumerate(keep):
        bit[x] = 1 << rank
    deltas = _flips(d, u)
    adj = []
    for x in keep:
        row = 0
        for m in deltas:
            row |= bit[x ^ m]
        adj.append(row)
    graph = Graph._trusted(len(adj), tuple(adj), name)
    cloud = PointCloud(d, tuple(vector_of(i, d) for i in keep), u)
    return graph, cloud


def hamming_graph(d: int, u: int) -> tuple[Graph, PointCloud]:
    """C(d, u): 2^d vertices, i ~ j iff popcount(i ^ j) == u."""
    _check_dims(d, u)
    return _family(d, u, list(range(1 << d)), f"C({d},{u})")


def half_cube(d: int, u: int) -> tuple[Graph, PointCloud]:
    """H(d, u): the even-weight induced half of C(d, u), 2^(d-1) vertices.

    Requires u even: for odd u every edge crosses between parity classes,
    so the class would be edgeless rather than a union of components.
    """
    _check_dims(d, u)
    if u % 2 != 0:
        raise ValueError(f"u={u} is odd: parity classes of C({d},{u}) carry no edges")
    keep = [i for i in range(1 << d) if i.bit_count() % 2 == 0]
    return _family(d, u, keep, f"H({d},{u})")


def slice_graph(d: int, u: int, s: int) -> tuple[Graph, PointCloud]:
    """C(d, u, s): the slice of C(d, u) at coordinate sum s, binom(d, s) vertices."""
    _check_dims(d, u)
    if not 0 <= s <= d:
        raise ValueError(f"slice height s={s} out of range 0..{d}")
    keep = [i for i in range(1 << d) if i.bit_count() == s]
    return _family(d, u, keep, f"C({d},{u},{s})")
