"""Immutable bit-row graphs over dense vertex indices.

Every graph in this package is stored the same way: ``n`` vertices numbered
0..n-1 and one Python integer per vertex whose set bits are its neighbours.
Geometry (integer coordinates plus one squared adjacency distance) lives in a
separate PointCloud sidecar, so solver code never touches coordinates.
Vertex permutations are derived and checked here only: cloud_automorphisms
derives them, check_automorphisms checks them against the rows, and orbit
follows them; module orbital builds products of checked ones.
All arithmetic is exact integer arithmetic; there is no floating point
anywhere in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter


class DuplicatePointError(ValueError):
    """Raised when a point cloud contains the same point twice."""

    def __init__(self, first: int, second: int, point: tuple[int, ...]):
        self.indices = (first, second)
        self.point = point
        super().__init__(f"duplicate point at indices {first} and {second}: {point}")


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def mask_from_indices(indices) -> int:
    mask = 0
    for v in indices:
        mask |= 1 << v
    return mask


@dataclass(frozen=True)
class VertexSet:
    """A set of vertices of a fixed-width graph, stored as a bit mask."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative width")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bit mask out of range for width {self.n}")

    @classmethod
    def from_indices(cls, n: int, indices) -> "VertexSet":
        return cls(n, mask_from_indices(indices))

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __iter__(self):
        return iter_bits(self.bits)


@dataclass(frozen=True)
class Graph:
    """Undirected loop-free graph with one adjacency bit row per vertex.

    Immutable after construction; construction validates symmetry and
    loop-freeness, so a Graph instance is always structurally sound. Builders
    whose rows are symmetric and loop-free by construction use _trusted,
    which skips that check.
    """

    n: int
    adj: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.adj)}")
        limit = 1 << self.n
        transpose = [0] * self.n
        for v, row in enumerate(self.adj):
            if not 0 <= row < limit:
                raise ValueError(f"adjacency row {v} out of range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for w in iter_bits(row):
                transpose[w] |= 1 << v
        if tuple(transpose) != tuple(self.adj):
            raise ValueError("adjacency is not symmetric")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...], name: str = "") -> "Graph":
        """A Graph over rows that are symmetric and loop-free by construction.

        Skips the transpose check of __post_init__; only builders in this
        package whose rows cannot be asymmetric call it. Input from outside
        the program goes through Graph(...) or Graph.from_edges.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        object.__setattr__(g, "name", name)
        return g

    @classmethod
    def from_edges(cls, n: int, edges, name: str = "") -> "Graph":
        adj = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(n, tuple(adj), name)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, i: int, j: int) -> bool:
        return (self.adj[i] >> j) & 1 == 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        """Yield each undirected edge once, as (i, j) with i < j, sorted."""
        for i in range(self.n):
            higher = self.adj[i] >> (i + 1)
            for off in iter_bits(higher):
                yield (i, i + 1 + off)


@dataclass(frozen=True)
class PointCloud:
    """Integer points plus the single squared distance that defines adjacency.

    Whenever the squared adjacency distance is a perfect square k*k, dividing
    all coordinates by k turns the cloud into a genuine unit-distance
    realization with rational coordinates.
    """

    dim: int
    points: tuple[tuple[int, ...], ...]
    adjacency_sq_dist: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("negative dimension")
        if self.adjacency_sq_dist <= 0:
            raise ValueError("squared adjacency distance must be positive")
        seen: dict[tuple[int, ...], int] = {}
        for i, p in enumerate(self.points):
            if len(p) != self.dim:
                raise ValueError(f"point {i} has length {len(p)}, expected {self.dim}")
            for c in p:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(f"point {i} has non-integer coordinate {c!r}")
            if p in seen:
                raise DuplicatePointError(seen[p], i, p)
            seen[p] = i

    def __len__(self) -> int:
        return len(self.points)


def sq_dist(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    s = 0
    for x, y in zip(a, b):
        t = x - y
        s += t * t
    return s


def graph_from_points(cloud: PointCloud, name: str = "") -> Graph:
    """Graph on the cloud's points, i ~ j iff their squared distance equals
    the cloud's adjacency distance. Vertex order matches point order.

    Each row comes from packed integers, with no Python loop over pairs.
    Field j of an integer is its B bits from bit jB, where B is one more
    than the bit length of the larger of the target and 4 max|c|^2 dim, a
    bound on every squared distance, so every field below stays under
    2^(B-1). With C_k = sum_j p_j[k] 2^(jB), N = sum_j |p_j|^2 2^(jB) and
    ONES = sum_j 2^(jB), the integer N + |p_i|^2 ONES - 2 sum_k p_i[k] C_k
    holds |p_i - p_j|^2 exactly in field j. Its XOR with target ONES is 0
    in the fields at the target distance; adding 2^(B-1) - 1 to every field
    sets a field's top bit unless the field is 0, and row i is the fields'
    top bits, flipped, read as one format/slice/int(..., 2), highest field
    first (as permute_rows reads its digits). Field i holds 0, never the
    positive target, so no row has a loop.
    """
    points = cloud.points
    n = len(points)
    top = max((abs(c) for p in points for c in p), default=0)
    width = max(cloud.adjacency_sq_dist, 4 * top * top * cloud.dim).bit_length() + 1
    ones = sum(1 << (j * width) for j in range(n))
    high = ones << (width - 1)
    low = high - ones  # 2^(B-1) - 1 in every field
    norms = [sum(c * c for c in p) for p in points]
    norm = sum(s << (j * width) for j, s in enumerate(norms))
    twice = [sum(p[k] << (j * width + 1) for j, p in enumerate(points)) for k in range(cloud.dim)]
    at_target = cloud.adjacency_sq_dist * ones
    digits = f"0{n * width}b"
    adj = []
    for p, s in zip(points, norms):
        dist = norm + s * ones - sum(c * column for c, column in zip(p, twice) if c)
        adj.append(int(format((((dist ^ at_target) + low) & high) ^ high, digits)[::width], 2))
    return Graph._trusted(n, tuple(adj), name)


def cloud_automorphisms(cloud: PointCloud) -> list[tuple[int, ...]]:
    """Vertex permutations of the cloud's graph induced by integer isometries.

    Six isometries of R^dim are tried: swap x0 and x1, the cyclic shift of
    the coordinates, negate x0 and x1, complement x0 (x0 -> 1 - x0),
    complement x0 and x1, and the reflection in the hyperplane orthogonal to
    (1, ..., 1), x -> x - (2 sum(x) / dim)(1, ..., 1). One that maps the
    cloud's points onto themselves keeps every squared distance, so it
    permutes the vertices as an automorphism; the others are dropped. With
    the swap and the shift, the complements make C(d,u), H(d,u) and C(d,u,s)
    vertex-transitive. On the Gosset roots the first three and the
    reflection are kept: the first three generate W(D8), whose two orbits
    are the 112 pair-type and the 128 sign-type roots, and the reflection
    joins them. The solver checks every permutation with check_automorphisms
    before it uses one.
    """
    dim = cloud.dim
    if dim < 2:
        return []

    def reflect(x: tuple[int, ...]) -> tuple[int, ...] | None:
        shift, rest = divmod(2 * sum(x), dim)
        return None if rest else tuple(c - shift for c in x)

    index = {p: i for i, p in enumerate(cloud.points)}
    perms = []
    for isometry in (lambda x: (x[1], x[0]) + x[2:],
                     lambda x: x[1:] + x[:1],
                     lambda x: (-x[0], -x[1]) + x[2:],
                     lambda x: (1 - x[0],) + x[1:],
                     lambda x: (1 - x[0], 1 - x[1]) + x[2:],
                     reflect):
        perm = tuple(index.get(isometry(p), -1) for p in cloud.points)
        if -1 not in perm:
            perms.append(perm)
    return perms


def permute_rows(rows, sources: list[int], width: int) -> list[int]:
    """Each row with its bits moved: bit i of an output row is bit sources[i]
    of the input row, which has at most width bits; bits that sources does
    not name are dropped.

    A row is written out as width binary digits, the digits that sources
    names are picked in one itemgetter call, highest output bit first, and
    read back with one int(..., 2), so no Python loop runs over the bits."""
    if not sources:
        return [0] * len(rows)
    last = width - 1
    pick = itemgetter(*[last - w for w in reversed(sources)])
    digits = f"0{width}b"
    join = "".join  # of one index, itemgetter returns a string, which join keeps
    return [int(join(pick(format(row, digits))), 2) for row in rows]


def check_automorphisms(g: Graph, perms) -> None:
    """Raise ValueError naming the first of perms that is not an automorphism
    of g: p[v] is the image of vertex v, and p passes when it is a bijection
    of 0..n-1 and adj[p[v]] is the image of adj[v] for every v, the image
    having bit p[w] for each bit w (permute_rows with the inverse of p)."""
    n = g.n
    adj = g.adj
    for i, p in enumerate(perms):
        if sorted(p) != list(range(n)):
            raise ValueError(f"automorphism {i} is not a permutation of the {n} vertices")
        inverse = [0] * n
        for v, w in enumerate(p):
            inverse[w] = v
        for v, image in enumerate(permute_rows(adj, inverse, n)):
            if adj[p[v]] != image:
                raise ValueError(f"automorphism {i} maps the neighbours of vertex {v} "
                                 f"onto vertices that are not the neighbours of {p[v]}")


def orbit(perms, v: int) -> int:
    """The orbit of vertex v under the group that perms generate: the mask
    of the vertices that products of perms map v onto."""
    mask, frontier = 1 << v, [v]
    while frontier:
        u = frontier.pop()
        for p in perms:
            w = p[u]
            if not (mask >> w) & 1:
                mask |= 1 << w
                frontier.append(w)
    return mask


def induced_subgraph(g: Graph, keep: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on ``keep``, plus the old->new index map.

    New indices preserve the relative order of the kept old indices.
    """
    if keep.n != g.n:
        raise ValueError(f"vertex set width {keep.n} does not match graph n={g.n}")
    old = keep.indices()
    index_map = {v: i for i, v in enumerate(old)}
    bits = keep.bits
    adj = []
    for v in old:
        row = g.adj[v] & bits
        new_row = 0
        for w in iter_bits(row):
            new_row |= 1 << index_map[w]
        adj.append(new_row)
    sub = Graph._trusted(len(old), tuple(adj), f"{g.name}[{len(old)}]" if g.name else "")
    return sub, index_map


def degree_profile(g: Graph) -> tuple[int, int, bool]:
    """(min degree, max degree, is_regular); (0, 0, True) for the empty graph."""
    if g.n == 0:
        return (0, 0, True)
    degs = [row.bit_count() for row in g.adj]
    lo, hi = min(degs), max(degs)
    return (lo, hi, lo == hi)


def connected_components(g: Graph, pool: int | None = None) -> list[VertexSet]:
    """Maximal connected classes of g, or of its subgraph induced on the
    vertex mask pool, ordered by their smallest vertex index."""
    comps = []
    unseen = g.full_mask if pool is None else pool
    while unseen:
        low = unseen & -unseen
        comp = low
        frontier = low
        while frontier:
            grown = 0
            for v in iter_bits(frontier):
                grown |= g.adj[v]
            frontier = grown & unseen & ~comp
            comp |= frontier
        comps.append(VertexSet(g.n, comp))
        unseen &= ~comp
    return comps


def ratio_lower_bound(n_vertices: int, alpha: int) -> int:
    """ceil(n/alpha): sets of pairwise non-adjacent vertices have size at most
    alpha, so any proper coloring needs at least this many classes."""
    if not isinstance(n_vertices, int) or not isinstance(alpha, int):
        raise ValueError("exact integer arguments required")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if n_vertices < 1:
        raise ValueError("vertex count must be at least 1")
    return -(-n_vertices // alpha)


@dataclass(frozen=True)
class BoundReport:
    """Summary of what is known about one graph's chromatic number."""

    graph_name: str
    n_vertices: int
    alpha: int | None = None
    chi_lower: int | None = None

    def __post_init__(self):
        if self.alpha is not None:
            expect = ratio_lower_bound(self.n_vertices, self.alpha)
            if self.chi_lower != expect:
                raise ValueError(
                    f"chi_lower {self.chi_lower} inconsistent with "
                    f"ceil({self.n_vertices}/{self.alpha}) = {expect}"
                )
