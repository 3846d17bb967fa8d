"""Deterministic text serialization of graphs, coordinates, witnesses,
certificates, and result tables.

Graph files use the plain-text edge-list convention (problem line plus one
"e i j" line per undirected edge, 1-indexed, smaller endpoint first, sorted)
so third-party tools can read the instances. Coordinates live in a separate
sidecar because the edge format has no coordinate slot. Witness files name
the graph file they certify by SHA-256 content hash, so a stale or swapped
witness is detected on load, and every witness is re-validated against the
graph it names rather than trusted.

All output is newline-terminated and uses only digits, '-', spaces, and a
fixed token set, so serialization is byte-identical across platforms, and
parse(serialize(x)) followed by serialize is the identity on bytes.
"""
from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

from .core import Graph, PointCloud, VertexSet, ratio_lower_bound
from .e8 import Certificate
from .solve import check_coloring, check_independent_set


class FormatError(ValueError):
    """Malformed file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        self.line = line
        self.offset = offset
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif offset is not None:
            where = f" (byte offset {offset})"
        super().__init__(message + where)


def _ints(parts: list[str], line_no: int) -> list[int]:
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise FormatError(f"expected integer, got {p!r}", line=line_no) from None
    return out


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------


def serialize_graph(g: Graph) -> str:
    lines = []
    if g.name:
        lines.append(f"c name {g.name}")
    lines.append(f"p edge {g.n} {g.edge_count()}")
    for i, j in g.edges():
        lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    name = ""
    n = None
    declared_edges = None
    edges: list[tuple[int, int]] = []
    last = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            raise FormatError("blank line", line=line_no)
        parts = line.split()
        kind = parts[0]
        if kind == "c":
            if parts[1:2] == ["name"]:
                name = " ".join(parts[2:])
            continue
        if kind == "p":
            if n is not None:
                raise FormatError("duplicate problem line", line=line_no)
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError("malformed problem line", line=line_no)
            n, declared_edges = _ints(parts[2:], line_no)
            if n < 0 or declared_edges < 0:
                raise FormatError("negative counts in problem line", line=line_no)
            continue
        if kind == "e":
            if n is None:
                raise FormatError("edge before problem line", line=line_no)
            if len(parts) != 3:
                raise FormatError("malformed edge line", line=line_no)
            i, j = _ints(parts[1:], line_no)
            if i == j:
                raise FormatError(f"self-loop e {i} {j}", line=line_no)
            if not (1 <= i < j <= n):
                raise FormatError(f"edge e {i} {j} not in canonical 1..{n} order",
                                  line=line_no)
            pair = (i - 1, j - 1)
            if last is not None and pair <= last:
                raise FormatError("edges out of sorted order or duplicated", line=line_no)
            last = pair
            edges.append(pair)
            continue
        raise FormatError(f"unknown line type {kind!r}", line=line_no)
    if n is None:
        raise FormatError("missing problem line", offset=len(text.encode()))
    if len(edges) != declared_edges:
        raise FormatError(
            f"problem line declares {declared_edges} edges, found {len(edges)}",
            offset=len(text.encode()))
    return Graph.from_edges(n, edges, name=name)


def write_graph(g: Graph, path) -> None:
    Path(path).write_text(serialize_graph(g), encoding="ascii")


def read_graph(path) -> Graph:
    return parse_graph(Path(path).read_text(encoding="ascii"))


def graph_content_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Coordinate sidecars
# ---------------------------------------------------------------------------


def serialize_point_cloud(cloud: PointCloud) -> str:
    lines = [f"p coords {len(cloud.points)} {cloud.dim} {cloud.adjacency_sq_dist}"]
    for idx, point in enumerate(cloud.points, start=1):
        lines.append("v " + " ".join(str(c) for c in (idx, *point)))
    return "\n".join(lines) + "\n"


def parse_point_cloud(text: str) -> PointCloud:
    header = None
    points: list[tuple[int, ...]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.strip().split()
        if not parts:
            raise FormatError("blank line", line=line_no)
        if parts[0] == "p":
            if header is not None:
                raise FormatError("duplicate header", line=line_no)
            if len(parts) != 5 or parts[1] != "coords":
                raise FormatError("malformed coords header", line=line_no)
            header = _ints(parts[2:], line_no)
            continue
        if parts[0] == "v":
            if header is None:
                raise FormatError("vertex line before header", line=line_no)
            vals = _ints(parts[1:], line_no)
            if len(vals) != header[1] + 1:
                raise FormatError(
                    f"expected index plus {header[1]} coordinates", line=line_no)
            if vals[0] != len(points) + 1:
                raise FormatError(
                    f"vertex index {vals[0]} out of order", line=line_no)
            points.append(tuple(vals[1:]))
            continue
        raise FormatError(f"unknown line type {parts[0]!r}", line=line_no)
    if header is None:
        raise FormatError("missing coords header", offset=len(text.encode()))
    count, dim, sq = header
    if len(points) != count:
        raise FormatError(f"header declares {count} points, found {len(points)}",
                          offset=len(text.encode()))
    return PointCloud(dim, tuple(points), sq)


def write_point_cloud(cloud: PointCloud, path) -> None:
    Path(path).write_text(serialize_point_cloud(cloud), encoding="ascii")


def read_point_cloud(path) -> PointCloud:
    return parse_point_cloud(Path(path).read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# Witness files
# ---------------------------------------------------------------------------


def write_independent_set_witness(path, graph_path, witness: VertexSet) -> None:
    digest = graph_content_hash(graph_path)
    lines = [f"s independent-set {len(witness)} {digest}"]
    for v in witness.indices():
        lines.append(f"v {v + 1}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_independent_set_witness(path, graph_path) -> VertexSet:
    """Load and re-validate an independent-set witness against its graph."""
    g = read_graph(graph_path)
    digest = graph_content_hash(graph_path)
    text = Path(path).read_text(encoding="ascii")
    size = None
    vertices: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.strip().split()
        if not parts:
            raise FormatError("blank line", line=line_no)
        if parts[0] == "s":
            if len(parts) != 4 or parts[1] != "independent-set":
                raise FormatError("malformed witness header", line=line_no)
            (size,) = _ints(parts[2:3], line_no)
            if parts[3] != digest:
                raise FormatError("witness does not match graph", line=line_no)
            continue
        if parts[0] == "v":
            if size is None:
                raise FormatError("vertex before header", line=line_no)
            (v,) = _ints(parts[1:], line_no)
            if not 1 <= v <= g.n:
                raise FormatError(f"vertex {v} out of range", line=line_no)
            vertices.append(v - 1)
            continue
        raise FormatError(f"unknown line type {parts[0]!r}", line=line_no)
    if size is None:
        raise FormatError("missing witness header", offset=len(text.encode()))
    if len(vertices) != size:
        raise FormatError(f"header declares {size} vertices, found {len(vertices)}",
                          offset=len(text.encode()))
    witness = VertexSet.from_indices(g.n, vertices)
    if len(witness) != size:
        raise FormatError("duplicate vertex in witness", offset=len(text.encode()))
    if not check_independent_set(g, witness):
        raise FormatError("witness is not an independent set of the named graph",
                          offset=len(text.encode()))
    return witness


def write_coloring_witness(path, graph_path, coloring: tuple[int, ...]) -> None:
    digest = graph_content_hash(graph_path)
    k = max(coloring) if coloring else 0
    lines = [f"s coloring {k} {digest}"]
    for v, c in enumerate(coloring, start=1):
        lines.append(f"v {v} {c}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_coloring_witness(path, graph_path) -> tuple[int, ...]:
    """Load and re-validate a coloring witness against its graph."""
    g = read_graph(graph_path)
    digest = graph_content_hash(graph_path)
    text = Path(path).read_text(encoding="ascii")
    k = None
    colors: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.strip().split()
        if not parts:
            raise FormatError("blank line", line=line_no)
        if parts[0] == "s":
            if len(parts) != 4 or parts[1] != "coloring":
                raise FormatError("malformed witness header", line=line_no)
            (k,) = _ints(parts[2:3], line_no)
            if parts[3] != digest:
                raise FormatError("witness does not match graph", line=line_no)
            continue
        if parts[0] == "v":
            if k is None:
                raise FormatError("vertex before header", line=line_no)
            v, c = _ints(parts[1:], line_no)
            if v != len(colors) + 1:
                raise FormatError(f"vertex {v} out of order", line=line_no)
            colors.append(c)
            continue
        raise FormatError(f"unknown line type {parts[0]!r}", line=line_no)
    if k is None:
        raise FormatError("missing witness header", offset=len(text.encode()))
    if len(colors) != g.n:
        raise FormatError(f"expected {g.n} colored vertices, found {len(colors)}",
                          offset=len(text.encode()))
    coloring = tuple(colors)
    if not check_coloring(g, coloring, k) or (coloring and max(coloring) != k):
        raise FormatError("coloring witness invalid for the named graph",
                          offset=len(text.encode()))
    return coloring


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def serialize_certificate(cert: Certificate) -> str:
    lines = [f"base {cert.base}",
             f"alpha {cert.claimed_alpha}",
             f"chi_lower {cert.claimed_chi_lower}"]
    for p in cert.points:
        lines.append(" ".join(str(c) for c in p))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = text.splitlines()
    if len(lines) < 3:
        raise FormatError("truncated certificate header", offset=len(text.encode()))
    fields = {}
    for line_no, key in enumerate(("base", "alpha", "chi_lower"), start=1):
        parts = lines[line_no - 1].split()
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected '{key} <value>'", line=line_no)
        fields[key] = parts[1]
    (alpha,) = _ints([fields["alpha"]], 2)
    (chi_lower,) = _ints([fields["chi_lower"]], 3)
    points = []
    for line_no, raw in enumerate(lines[3:], start=4):
        parts = raw.split()
        if not parts:
            raise FormatError("blank line", line=line_no)
        points.append(tuple(_ints(parts, line_no)))
    return Certificate(
        base=fields["base"],
        points=tuple(points),
        claimed_alpha=alpha,
        claimed_chi_lower=chi_lower,
    )


def write_certificate(cert: Certificate, path) -> None:
    Path(path).write_text(serialize_certificate(cert), encoding="ascii")


def read_certificate(path) -> Certificate:
    return parse_certificate(Path(path).read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    d: int
    u: int
    status: str  # "exact" | "lower-bound"
    value: int
    alpha: int | None
    n: int
    runtime: float

    def __post_init__(self):
        if self.status not in ("exact", "lower-bound"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "exact" and self.alpha is not None:
            if self.value < ratio_lower_bound(self.n, self.alpha):
                raise ValueError(
                    f"exact value {self.value} below ratio bound "
                    f"ceil({self.n}/{self.alpha})")

    def rendered_value(self) -> str:
        prefix = "≥" if self.status == "lower-bound" else ""
        return f"{prefix}{self.value}"


@dataclass
class ResultTable:
    rows: list[TableRow]

    def render_text(self) -> str:
        header = ("d", "u", "chi", "alpha", "n", "seconds")
        body = [
            (str(r.d), str(r.u), r.rendered_value(),
             "" if r.alpha is None else str(r.alpha), str(r.n), f"{r.runtime:.2f}")
            for r in self.rows
        ]
        widths = [max(len(col[i]) for col in (header, *body)) for i in range(len(header))]
        out = []
        for cols in (header, *body):
            out.append("  ".join(c.rjust(w) for c, w in zip(cols, widths)))
        return "\n".join(out) + "\n"

    def render_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "u", "status", "value", "alpha", "n", "runtime"])
        for r in self.rows:
            writer.writerow([r.d, r.u, r.status, r.value,
                             "" if r.alpha is None else r.alpha, r.n, f"{r.runtime:.2f}"])
        return buf.getvalue()

    def records(self) -> list[dict]:
        return [
            {"d": r.d, "u": r.u, "status": r.status, "value": r.value,
             "alpha": r.alpha, "n": r.n, "runtime": r.runtime}
            for r in self.rows
        ]
