"""The 240 shortest E8 lattice vectors, the Gosset graph on them, and the
greedy alpha-preserving point augmentation.

The base graph lives on the 240 integer vectors of squared norm 8: the 112
coordinate-pair vectors (two entries +-2, the rest 0) and the 128 all +-1
vectors with an even number of minus signs. Adjacency is squared Euclidean
distance 16; since all vertices share squared norm 8, two roots are adjacent
exactly when they are orthogonal.

The augmentation walks a pool of integer points of squared norm <= 16 and
keeps every point whose addition leaves the independence number unchanged,
which only ever improves the ratio bound ceil(|V|/alpha).
The base solves pass core.cloud_automorphisms to max_independent_set, which
checks them with core.check_automorphisms; this module checks none itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from math import isqrt

from .core import (
    BoundReport,
    Graph,
    PointCloud,
    VertexSet,
    cloud_automorphisms,
    graph_from_points,
    iter_bits,
    ratio_lower_bound,
    sq_dist,
)
from .solve import (
    MisResult,
    SolveOptions,
    _Budget,
    _max_clique_masks,
    check_independent_set,
    max_independent_set,
)

Vec = tuple[int, ...]

GOSSET_BASE_NAME = "gosset-240"
GOSSET_ADJ_SQ_DIST = 16  # adjacency: squared Euclidean distance between roots
BALL_SQ_RADIUS = 16      # candidate pool: integer points x with |x|^2 <= 16


class CertificateError(ValueError):
    """A certificate check failed; names the first violated condition."""

    def __init__(self, condition: str, detail: str):
        self.condition = condition
        self.detail = detail
        super().__init__(f"{condition}: {detail}")


def _is_pair_type(v: Vec) -> bool:
    nonzero = [c for c in v if c != 0]
    return len(nonzero) == 2 and all(abs(c) == 2 for c in nonzero)


def _is_sign_type(v: Vec) -> bool:
    return all(abs(c) == 1 for c in v) and sum(1 for c in v if c < 0) % 2 == 0


@dataclass(frozen=True)
class RootSet:
    """The 240 shortest E8 vectors: 112 pair-type plus 128 sign-type."""

    roots: tuple[Vec, ...]

    def __post_init__(self):
        pair = sum(1 for v in self.roots if _is_pair_type(v))
        sign = sum(1 for v in self.roots if _is_sign_type(v))
        if len(self.roots) != 240 or pair != 112 or sign != 128:
            raise ValueError(
                f"not a full root set: {len(self.roots)} vectors, "
                f"{pair} pair-type, {sign} sign-type")
        if len(set(self.roots)) != 240:
            raise ValueError("duplicate root")
        for v in self.roots:
            if sum(c * c for c in v) != 8:
                raise ValueError(f"root {v} has squared norm != 8")


def gosset_roots() -> RootSet:
    """All 240 roots: pair-type in lexicographic order, then sign-type."""
    pair_type = []
    for i, j in combinations(range(8), 2):
        for si in (-2, 2):
            for sj in (-2, 2):
                v = [0] * 8
                v[i], v[j] = si, sj
                pair_type.append(tuple(v))
    sign_type = []
    for bits in range(256):
        v = tuple(-1 if (bits >> k) & 1 else 1 for k in range(8))
        if sum(1 for c in v if c < 0) % 2 == 0:
            sign_type.append(v)
    return RootSet(tuple(sorted(pair_type)) + tuple(sorted(sign_type)))


def build_g0() -> tuple[Graph, PointCloud]:
    """The Gosset graph: the 240 roots, adjacent at squared distance 16."""
    roots = gosset_roots().roots
    cloud = PointCloud(8, roots, GOSSET_ADJ_SQ_DIST)
    return graph_from_points(cloud, name=GOSSET_BASE_NAME), cloud


@dataclass(frozen=True)
class CandidatePool:
    """Integer points of bounded squared norm, in a fixed iteration order."""

    points: tuple[Vec, ...]


def enumerate_ball(sq_radius: int = BALL_SQ_RADIUS, dim: int = 8) -> CandidatePool:
    """Every integer vector of squared norm <= sq_radius, lexicographic order."""
    if sq_radius < 0:
        raise ValueError("negative squared radius")
    bound = isqrt(sq_radius)
    points: list[Vec] = []
    prefix = [0] * dim

    def rec(position: int, budget: int) -> None:
        if position == dim:
            points.append(tuple(prefix))
            return
        top = isqrt(budget)
        for c in range(-min(bound, top), min(bound, top) + 1):
            prefix[position] = c
            rec(position + 1, budget - c * c)
        prefix[position] = 0

    rec(0, sq_radius)
    return CandidatePool(tuple(points))


@dataclass(frozen=True)
class AugmentationState:
    """Current graph, its exact independence number, and the audit trail."""

    cloud: PointCloud
    graph: Graph
    alpha: int
    added: tuple[Vec, ...]
    rejected_count: int
    candidates_tested: int
    termination: str  # "pool_exhausted" | "budget_candidates" | "budget_accepted" | "budget_time"
    nodes_explored: int


def _neighbor_mask(cloud: PointCloud, x: Vec) -> int:
    mask = 0
    target = cloud.adjacency_sq_dist
    for i, p in enumerate(cloud.points):
        if sq_dist(p, x) == target:
            mask |= 1 << i
    return mask


def _extend(cloud: PointCloud, graph: Graph, x: Vec, nbr_mask: int) -> tuple[PointCloud, Graph]:
    n = graph.n
    adj = [graph.adj[v] | (((nbr_mask >> v) & 1) << n) for v in range(n)]
    adj.append(nbr_mask)
    new_cloud = PointCloud(cloud.dim, cloud.points + (x,), cloud.adjacency_sq_dist)
    return new_cloud, Graph._trusted(n + 1, tuple(adj), graph.name)


def _alpha_after_adding(graph: Graph, cloud: PointCloud, alpha: int, x: Vec,
                        budget: _Budget,
                        witnesses: list[int] | None = None) -> tuple[int, int, int | None]:
    """(alpha of graph+x, solver nodes, x's neighbor mask in graph), the mask
    None when a cached witness decided x before it was needed.

    alpha(G + x) = max(alpha(G), 1 + alpha(G restricted to non-neighbors of x)),
    and adding one vertex raises alpha by at most one. So the step is a
    decision: does some independent alpha-set avoid every neighbor of x? The
    search starts from the virtual incumbent alpha-1 and stops at the first
    such set, which makes alpha(G + x) = alpha + 1 exact; a search that
    completes without one is a refutation, and alpha is preserved. A point
    with no neighbor is decided without search: any maximum independent set
    plus x is independent.

    witnesses, when given, holds the vertex masks of independent alpha-sets
    of graph from earlier rejections; the first one with no point at the
    adjacency distance from x rejects x at 0 nodes, tested on the
    coordinates of its own points, so x's neighbor mask, a scan of every
    point of the graph, is built only when no witness rejects x. The set a
    search finds is appended. Either witness is re-checked on the graph and
    against x's coordinates before the rejection is returned. The search's
    nodes are charged to the budget; a budget spent on entry, or one that
    stops the search, raises TimeoutError.
    """
    if budget.exceeded():
        raise TimeoutError(f"solver budget exhausted before testing point {x}")
    points, target = cloud.points, cloud.adjacency_sq_dist
    mask = next((w for w in witnesses or ()
                 if not any(sq_dist(points[v], x) == target for v in iter_bits(w))), None)
    cached = mask is not None
    nbr = None
    nodes = 0
    if not cached:
        nbr = _neighbor_mask(cloud, x)
        if nbr == 0:
            return alpha + 1, 0, nbr
        _, mask, nodes, status, _ = _max_clique_masks(
            graph.adj, graph.full_mask & ~nbr, initial_best=alpha - 1, stop_at=alpha,
            budget=budget)
        if status == "budget":
            raise TimeoutError(f"solver budget exhausted while testing point {x}")
        if status == "complete":
            return alpha, nodes, nbr
    witness = VertexSet(graph.n, mask)
    if (len(witness) != alpha or not check_independent_set(graph, witness)
            or any(sq_dist(points[v], x) == target for v in witness)):
        raise RuntimeError(f"witness for rejecting point {x} failed its re-check")
    if not cached and witnesses is not None:
        witnesses.append(mask)
    return alpha + 1, nodes, nbr


def initial_state(graph: Graph, cloud: PointCloud,
                  options: SolveOptions | None = None) -> AugmentationState:
    """Augmentation state for a base graph, solving its alpha exactly.

    The solver gets the cloud's automorphisms (core.cloud_automorphisms),
    checks them and searches by orbital branching under them: 14 nodes on
    the Gosset graph, against 178,808 without them.
    """
    res = max_independent_set(graph, options, cloud_automorphisms(cloud))
    if not isinstance(res, MisResult):
        raise TimeoutError("solver budget exhausted while computing base alpha")
    return AugmentationState(cloud, graph, res.alpha, (), 0, 0,
                             "pool_exhausted", res.nodes_explored)


def augment_greedy(state: AugmentationState, pool, *,
                   max_candidates: int | None = None,
                   max_accepted: int | None = None,
                   time_budget: float | None = None,
                   log=None) -> AugmentationState:
    """Accept every point of the iterable pool, in its order, whose addition
    preserves alpha.

    Each candidate is a decision, not a solve: a rejection stops at the first
    independent alpha-set among x's non-neighbors, which is exact because one
    point raises alpha by at most one, and a point with no neighbor is
    rejected without search. Only accepted points pay for a full refutation.
    The walk keeps every rejection's witness: alpha never changes, and the
    graph only gains vertices, so each stays an independent alpha-set, and a
    later candidate with no neighbor in one of them is rejected by it at 0
    nodes, after the same re-check as a searched witness.
    Points already in the graph are skipped without consuming budget. Budget
    exhaustion terminates the walk with a termination tag distinct from
    "pool_exhausted". All candidates share one budget with one deadline,
    time_budget seconds away (none if 0); the candidate that meets it ends the
    walk untested, and the nodes its stopped search spent still count in
    nodes_explored, which adds the walk's budget.spent to the state's count.
    """
    with _Budget(SolveOptions(time_budget=time_budget or None)) as budget:
        cloud, graph, alpha = state.cloud, state.graph, state.alpha
        added = list(state.added)
        rejected = state.rejected_count
        tested = state.candidates_tested
        present = set(cloud.points)
        termination = "pool_exhausted"
        witnesses: list[int] = []

        for x in pool:
            if x in present:
                continue
            if max_candidates is not None and tested >= max_candidates:
                termination = "budget_candidates"
                break
            if max_accepted is not None and len(added) - len(state.added) >= max_accepted:
                termination = "budget_accepted"
                break
            try:
                new_alpha, _, nbr = _alpha_after_adding(graph, cloud, alpha, x, budget, witnesses)
            except TimeoutError:
                termination = "budget_time"
                break
            tested += 1
            if new_alpha == alpha:
                cloud, graph = _extend(cloud, graph, x, nbr)
                present.add(x)
                added.append(x)
                if log:
                    log(x, True, alpha)
            else:
                # rejection leaves the graph, and therefore the running alpha, unchanged
                rejected += 1
                if log:
                    log(x, False, alpha)

        return AugmentationState(cloud, graph, alpha, tuple(added), rejected,
                                 tested, termination, state.nodes_explored + budget.spent)


@dataclass(frozen=True)
class Certificate:
    """Claimed alpha-preserving extension of a named base graph.

    The verifier recomputes every claim from scratch, so a Certificate object
    itself carries no guarantee; see verify_certificate.
    """

    base: str
    points: tuple[Vec, ...]
    claimed_alpha: int
    claimed_chi_lower: int


def shipped_certificate() -> Certificate:
    """The 49-point extension of the Gosset graph shipped with the package."""
    from .formats import parse_certificate
    text = resources.files("unitdist.data").joinpath("gosset-ext-49.cert").read_text()
    return parse_certificate(text)


def point_violation(x: Vec) -> tuple[str, str] | None:
    """The certificate condition a single point breaks, as (condition, detail).

    A certificate or candidate point (already parsed as integers) must have
    8 coordinates and lie inside the ball of squared radius BALL_SQ_RADIUS;
    None when x does.
    """
    if len(x) != 8:
        return ("bad-point", f"{x} is not an 8-vector")
    if sum(c * c for c in x) > BALL_SQ_RADIUS:
        return ("outside-ball", f"{x} has squared norm > {BALL_SQ_RADIUS}")
    return None


def verify_certificate(cert: Certificate,
                       options: SolveOptions | None = None) -> BoundReport:
    """Recompute every claim of a certificate from first principles.

    Checks, in order: the base is known, the claimed ratio arithmetic is
    consistent, every point is an integer vector inside the ball, no point
    duplicates a base vertex or another certificate point, the recomputed
    independence number matches, and the ratio bound matches. Raises
    CertificateError naming the first violated condition.

    The independence number is decided point by point, not re-solved. The
    base is solved as initial_state solves it, with the cloud's checked
    automorphisms. The certificate's points are then added in order, each
    with the decision augment_greedy makes: one point raises alpha by at
    most one, a rise comes with a re-checked independent set and no rise is
    a completed refutation, so by induction the last alpha is exact. The
    base witness is re-checked on the final graph. One budget covers the
    base and every step; when it runs out, the "budget" error gives the
    bracket alpha is known to lie in: the current alpha plus at most one per
    point not yet decided. Since alpha never falls as points are added, a
    claim that the chain has already passed fails without deciding the
    remaining points.
    """
    with _Budget(options or SolveOptions()) as budget:
        return _verify(cert, budget)


def _verify(cert: Certificate, budget: _Budget) -> BoundReport:
    """verify_certificate's checks, in its order, spending budget."""
    if cert.base != GOSSET_BASE_NAME:
        raise CertificateError("unknown-base", f"cannot resolve base {cert.base!r}")
    graph, cloud = build_g0()
    n_total = graph.n + len(cert.points)
    if cert.claimed_alpha < 1:
        raise CertificateError("bad-alpha", f"claimed alpha {cert.claimed_alpha}")
    expected_ratio = ratio_lower_bound(n_total, cert.claimed_alpha)
    if cert.claimed_chi_lower != expected_ratio:
        raise CertificateError(
            "ratio-arithmetic",
            f"claimed chi_lower {cert.claimed_chi_lower} != "
            f"ceil({n_total}/{cert.claimed_alpha}) = {expected_ratio}")
    base_points = set(cloud.points)
    seen: set[Vec] = set()
    for x in cert.points:
        violation = point_violation(x)
        if violation is not None:
            raise CertificateError(*violation)
        if x in base_points:
            raise CertificateError("duplicate-vertex", f"{x} is already a base vertex")
        if x in seen:
            raise CertificateError("duplicate-vertex", f"{x} listed twice")
        seen.add(x)

    def out_of_budget(lower: int, upper: int) -> CertificateError:
        return CertificateError(
            "budget", f"solver budget exhausted after {budget.spent} nodes "
                      f"at bracket [{lower}, {upper}]")

    base = max_independent_set(graph, automorphisms=cloud_automorphisms(cloud),
                               budget=budget)
    if not isinstance(base, MisResult):
        raise out_of_budget(base.lower_bound, base.upper_bound + len(cert.points))
    alpha = base.alpha
    for i, x in enumerate(cert.points):
        if alpha > cert.claimed_alpha:  # adding points never lowers alpha
            raise CertificateError(
                "alpha-mismatch",
                f"recomputed alpha {alpha} after {i} of {len(cert.points)} points "
                f"already exceeds claimed {cert.claimed_alpha}")
        try:
            alpha, _, nbr = _alpha_after_adding(graph, cloud, alpha, x, budget)
        except TimeoutError:
            raise out_of_budget(alpha, alpha + len(cert.points) - i) from None
        cloud, graph = _extend(cloud, graph, x, nbr)
    if not check_independent_set(graph, VertexSet(graph.n, base.witness.bits)):
        raise RuntimeError("base witness failed its re-check on the final graph")
    if alpha != cert.claimed_alpha:
        raise CertificateError(
            "alpha-mismatch",
            f"recomputed alpha {alpha} != claimed {cert.claimed_alpha}")
    bound = ratio_lower_bound(graph.n, alpha)
    if bound != cert.claimed_chi_lower:
        raise CertificateError(
            "ratio-mismatch",
            f"recomputed bound {bound} != claimed {cert.claimed_chi_lower}")
    return BoundReport(graph_name=f"{cert.base}+{len(cert.points)}", n_vertices=graph.n,
                       alpha=alpha, chi_lower=bound)

