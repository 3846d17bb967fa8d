"""The benchmark's three workloads: inputs built in set-up, timed operations,
and the checks that every output states a true fact.

A workload's ``setup(seed, workdir, small)`` builds every input and returns the
list of operations of one pass. Each operation's ``run`` is the timed call; its
``check`` runs afterwards, outside the timed region, and returns one message
per violated fact. ``small`` swaps in instances that finish in seconds, for
the harness self-check.

Expected values are the paper's and the acceptance suite's. Where a search is
cut by a node budget, only facts that are certain are checked: the bracket
contains the known value, and the witness passes the program's own checker.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Callable

from unitdist import cli, core, e8, hypercube, solve


@dataclass
class Outcome:
    nodes: int        # branch-and-bound nodes the operation reported
    open_values: int  # sum over its answers of upper - lower + 1 (1 per exact answer)
    result: object    # whatever the check needs


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]


# ---------------------------------------------------------------------------
# alpha_exact: the paper's headline independence numbers
# ---------------------------------------------------------------------------


def _alpha_op(name: str, graph: core.Graph, true_alpha: int, *,
              pivot: int | None = None, node_budget: int | None = None) -> Op:
    opts = solve.SolveOptions(node_budget=node_budget)

    def run() -> Outcome:
        if pivot is None:
            res = solve.max_independent_set(graph, opts)
        else:
            res = solve.alpha_vertex_transitive(graph, pivot, opts)
        if isinstance(res, solve.MisResult):
            lower = upper = res.alpha
        else:
            lower, upper = res.lower_bound, res.upper_bound
        return Outcome(res.nodes_explored, upper - lower + 1, (res.witness, lower, upper))

    def check(out: Outcome) -> list[str]:
        witness, lower, upper = out.result
        errors = []
        if not lower <= true_alpha <= upper:
            errors.append(f"{name}: bracket [{lower}, {upper}] misses alpha = {true_alpha}")
        if len(witness) != lower or len(witness) != true_alpha:
            errors.append(f"{name}: witness has {len(witness)} vertices, "
                          f"lower bound {lower}, alpha {true_alpha}")
        if not solve.check_independent_set(graph, witness):
            errors.append(f"{name}: witness is not an independent set")
        return errors

    return Op(name, run, check)


def alpha_exact(seed: int, workdir: Path, small: bool = False) -> list[Op]:
    """Four independence numbers; the seed plays no part (the inputs are fixed)."""
    gosset, _ = e8.build_g0()
    if small:
        return [
            _alpha_op("h5_2", hypercube.half_cube(5, 2)[0], 2),
            _alpha_op("gosset_pivot", gosset, 16, pivot=0),
            _alpha_op("gosset_budget", gosset, 16, node_budget=2_000),
        ]
    return [
        _alpha_op("gosset_direct", gosset, 16),
        _alpha_op("c10_4_5", hypercube.slice_graph(10, 4, 5)[0], 12),
        _alpha_op("h10_4_pivot", hypercube.half_cube(10, 4)[0], 20, pivot=0),
        _alpha_op("h11_4_pivot_150k", hypercube.half_cube(11, 4)[0], 32,
                  pivot=0, node_budget=150_000),
    ]


# ---------------------------------------------------------------------------
# chi_grid: chromatic numbers chi(C(d, u))
# ---------------------------------------------------------------------------

# Exact cells of the acceptance grid; d = 8 for u in {2, 4} from the roadmap's
# baseline. chi(C(8, 6)) is open: only its checked 7-colouring is known.
CHI_GRID = {
    2: {2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8},
    4: {2: 1, 3: 1, 4: 2, 5: 4, 6: 7, 7: 8, 8: 8},
    6: {2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 4},
}
C86_COLORABLE_K = 7
C86_NODE_BUDGET = 100_000


def _cube_graph(d: int, u: int) -> core.Graph:
    if u > d:  # no two d-bit vectors are u apart: edgeless
        return core.Graph(1 << d, (0,) * (1 << d), name=f"C({d},{u})")
    return hypercube.hamming_graph(d, u)[0]


def _chi_op(d: int, u: int, expected: int | None, *, known_k: int | None = None,
            node_budget: int | None = None) -> Op:
    name = f"chi_c{d}_{u}"
    graph = _cube_graph(d, u)
    opts = solve.SolveOptions(node_budget=node_budget)

    def run() -> Outcome:
        res = solve.chromatic_number(graph, opts)
        if isinstance(res, solve.ColoringResult):
            lower = upper = res.chi
        else:
            lower, upper = res.lower, res.upper
        return Outcome(res.nodes_explored, upper - lower + 1, (res.coloring, lower, upper))

    def check(out: Outcome) -> list[str]:
        coloring, lower, upper = out.result
        errors = []
        if not solve.check_coloring(graph, coloring, upper) or max(coloring) != upper:
            errors.append(f"{name}: colouring is not proper with {upper} colours")
        if expected is not None and not lower == upper == expected:
            errors.append(f"{name}: [{lower}, {upper}] != chi = {expected}")
        if known_k is not None and lower > known_k:
            errors.append(f"{name}: lower bound {lower} > {known_k}, "
                          f"but a {known_k}-colouring exists")
        return errors

    return Op(name, run, check)


def _k_colorable_op(d: int, u: int, k: int) -> Op:
    name = f"k{k}_c{d}_{u}"
    graph = _cube_graph(d, u)

    def run() -> Outcome:
        res = solve.k_colorable(graph, k)
        return Outcome(res.nodes_explored, 2 if res.status == "unknown" else 1, res)

    def check(out: Outcome) -> list[str]:
        res = out.result
        if res.status != "colorable" or not solve.check_coloring(graph, res.coloring, k):
            return [f"{name}: status {res.status}, expected a checked {k}-colouring"]
        return []

    return Op(name, run, check)


def chi_grid(seed: int, workdir: Path, small: bool = False) -> list[Op]:
    """chi(C(d, u)) for u in {2, 4, 6}, d = 2..8; the seed plays no part."""
    top = 5 if small else 8
    ops = []
    for u, row in CHI_GRID.items():
        for d in range(2, top + 1):
            if d in row:
                ops.append(_chi_op(d, u, row[d]))
    if small:
        ops.append(_chi_op(6, 4, None, known_k=7, node_budget=200))
        ops.append(_k_colorable_op(5, 2, 8))
    else:
        ops.append(_chi_op(8, 6, None, known_k=C86_COLORABLE_K, node_budget=C86_NODE_BUDGET))
        ops.append(_k_colorable_op(8, 6, C86_COLORABLE_K))
    return ops


# ---------------------------------------------------------------------------
# gosset_certificate: the chi(R^8) pipeline through the command line
# ---------------------------------------------------------------------------

GOSSET_ALPHA = 16
SHIPPED_PREFIX = 12
# One random point from each of three squared-norm shells of the ball. Each
# shell fixes the shape of the witness search a rejection needs: odd norms
# have no neighbour in the graph (a search over the whole graph), norm 12
# about 50 neighbours, norm 16 about 28. A uniform draw would mix these at
# random, so the seed rather than the program would move the figures.
SHELLS = ("odd", 12, 16)
CONFIRM_NODE_BUDGET = 50_000  # the seeded greedy start finds the 16-set; the budget caps the rest

_CANDIDATE = re.compile(r"^candidate point=(\S+) outcome=(accepted|rejected) alpha=(\d+)$", re.M)
_RESULT = re.compile(r"^result accepted=(\d+) rejected=(\d+) tested=(\d+) n=(\d+) "
                     r"alpha=(\d+) chi_lower=(\d+) termination=(\S+)$", re.M)
_PASS = re.compile(r"^PASS graph=\S+ n=(\d+) alpha=(\d+) chi_lower=(\d+)$", re.M)


def _shell(point: tuple[int, ...]):
    norm = sum(c * c for c in point)
    return "odd" if norm % 2 else norm


def draw_points(seed: int, shells, present: set) -> list[tuple[int, ...]]:
    """One point per shell, drawn by the workload seed from enumerate_ball()."""
    by_shell: dict = {shell: [] for shell in shells}
    for x in e8.enumerate_ball().points:
        shell = _shell(x)
        if shell in by_shell and x not in present:
            by_shell[shell].append(x)
    rng = random.Random(seed)
    return [rng.choice(by_shell[shell]) for shell in shells]


@contextlib.contextmanager
def _counting_nodes(total: list[int]):
    """Add up the nodes of every solve e8 makes, at the names e8 imports.

    The command line prints no node counts, so this is the only way to read
    them; it costs one extra function call per solve.
    """
    patched = []

    def counter(fn, nodes_of):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            total[0] += nodes_of(result)
            return result
        return wrapper

    for attr, nodes_of in (("_max_clique_masks", lambda r: r[2]),
                           ("max_independent_set", lambda r: r.nodes_explored)):
        fn = getattr(e8, attr)  # AttributeError: the benchmark needs updating
        patched.append((attr, fn))
        setattr(e8, attr, counter(fn, nodes_of))
    try:
        yield
    finally:
        for attr, fn in patched:
            setattr(e8, attr, fn)


def _run_cli(argv: list[str]) -> tuple[int, str, int]:
    """(exit code, standard output, solver nodes) of one command-line call."""
    nodes = [0]
    out = io.StringIO()
    with _counting_nodes(nodes), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), nodes[0]


def _parse_point(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


def gosset_certificate(seed: int, workdir: Path, small: bool = False) -> list[Op]:
    """augment --pool-file over shipped points plus seeded random points, then verify."""
    shipped = e8.shipped_certificate().points[:2 if small else SHIPPED_PREFIX]
    roots = e8.gosset_roots().roots
    randoms = draw_points(seed, (12,) if small else SHELLS, set(roots) | set(shipped))
    pool = workdir / "pool.txt"
    pool.write_text("".join(" ".join(map(str, x)) + "\n" for x in shipped + tuple(randoms)),
                    encoding="ascii")
    cert = workdir / "out.cert"
    confirmed: dict = {}

    def augment() -> Outcome:
        code, text, nodes = _run_cli(["augment", "--pool-file", str(pool),
                                      "--budget-candidates", "-1", "--budget-seconds", "0",
                                      "--threads", "1", "-o", str(cert)])
        decisions = len(_CANDIDATE.findall(text))
        return Outcome(nodes, 1 + decisions, (code, text, cert.read_text(encoding="ascii")))

    def check_augment(out: Outcome) -> list[str]:
        code, text, cert_text = out.result
        errors = [] if code == 0 else [f"augment: exit code {code}"]
        decisions = [(_parse_point(p), word, int(a)) for p, word, a in _CANDIDATE.findall(text)]
        if [x for x, _, _ in decisions] != list(shipped) + randoms:
            errors.append("augment: candidates logged differ from the pool")
        present = list(roots)
        for x, word, alpha in decisions:
            if alpha != GOSSET_ALPHA:
                errors.append(f"augment: alpha {alpha} logged at {x}")
            if word == "accepted":
                present.append(x)
            elif x in shipped:
                errors.append(f"augment: shipped point {x} rejected")
            else:
                if x not in confirmed:
                    confirmed[x] = _confirm_rejection(tuple(present), x)
                if not confirmed[x]:
                    errors.append(f"augment: no independent 17-set confirms rejecting {x}")
        accepted = present[len(roots):]
        n = len(present)
        result = _RESULT.search(text)
        if not result or result.groups()[3:] != (
                str(n), str(GOSSET_ALPHA), str(ceil(n / GOSSET_ALPHA)), "pool_exhausted"):
            errors.append(f"augment: result line wrong for n={n}")
        expected_cert = [f"base {e8.GOSSET_BASE_NAME}", f"alpha {GOSSET_ALPHA}",
                         f"chi_lower {ceil(n / GOSSET_ALPHA)}"]
        expected_cert += [" ".join(map(str, x)) for x in accepted]
        if cert_text.splitlines() != expected_cert:
            errors.append("augment: certificate file differs from the accepted points")
        return errors

    def verify() -> Outcome:
        code, text, nodes = _run_cli(["verify", str(cert), "--threads", "1"])
        return Outcome(nodes, 1, (code, text, cert.read_text(encoding="ascii")))

    def check_verify(out: Outcome) -> list[str]:
        code, text, cert_text = out.result
        n = len(roots) + len(cert_text.splitlines()) - 3
        passed = _PASS.search(text)
        if code != 0 or not passed or passed.groups() != (
                str(n), str(GOSSET_ALPHA), str(ceil(n / GOSSET_ALPHA))):
            return [f"verify: exit code {code}, expected PASS n={n} alpha={GOSSET_ALPHA} "
                    f"chi_lower={ceil(n / GOSSET_ALPHA)}"]
        return []

    return [Op("augment", augment, check_augment), Op("verify", verify, check_verify)]


def _confirm_rejection(points: tuple, x: tuple[int, ...]) -> bool:
    """Whether the graph on points + x has an independent set of 17 vertices.

    alpha(points) is 16, so such a set holds x plus 16 of x's non-neighbours;
    a node-budgeted search among those supplies it, and the program's checker
    re-validates the whole set on a graph built afresh from the coordinates.
    """
    graph = core.graph_from_points(core.PointCloud(8, points + (x,), e8.GOSSET_ADJ_SQ_DIST))
    xi = graph.n - 1
    non_nbr = graph.full_mask & ~graph.adj[xi] & ~(1 << xi)
    sub, index_map = core.induced_subgraph(graph, core.VertexSet(graph.n, non_nbr))
    res = solve.max_independent_set(sub, solve.SolveOptions(node_budget=CONFIRM_NODE_BUDGET))
    back = {new: old for old, new in index_map.items()}
    bits = 1 << xi
    for v in res.witness:
        bits |= 1 << back[v]
    witness = core.VertexSet(graph.n, bits)
    return len(witness) == GOSSET_ALPHA + 1 and solve.check_independent_set(graph, witness)


WORKLOADS = {
    "alpha_exact": alpha_exact,
    "gosset_certificate": gosset_certificate,
    "chi_grid": chi_grid,
}
