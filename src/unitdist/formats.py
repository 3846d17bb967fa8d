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
from dataclasses import asdict, dataclass
from pathlib import Path

from .core import DuplicatePointError, Graph, PointCloud, VertexSet, ratio_lower_bound
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


def _lines(text: str):
    """Yield (line number, fields) of every line; no format has a blank line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            raise FormatError("blank line", line=line_no)
        yield line_no, fields


def _ints(fields: list[str], line_no: int, count: int | None = None, what: str = "") -> list[int]:
    """The fields as integers; a FormatError at line_no names a non-integer
    field, or a field count other than `count` (`what` describes them)."""
    if count is not None and len(fields) != count:
        raise FormatError(f"expected {count} fields ({what}), got {len(fields)}",
                          line=line_no)
    out = []
    for f in fields:
        try:
            out.append(int(f))
        except ValueError:
            raise FormatError(f"expected integer, got {f!r}", line=line_no) from None
    return out


def _tagged(text: str, header: str, width: int, name: str, body: str, comments=None):
    """Yield (line, fields after the kind) of the one header line, whose first
    fields are `header` (such as "p edge") and `width` more, then (line,
    fields after the tag) of each `body` line, in file order; `name` names the
    header in errors. "c" lines go to `comments` when it is given."""
    tag, kind = header.split()
    seen = False
    for line_no, fields in _lines(text):
        if fields[0] == tag:
            if seen:
                raise FormatError(f"duplicate {name}", line=line_no)
            if len(fields) != width + 2 or fields[1] != kind:
                raise FormatError(f"malformed {name}", line=line_no)
            seen = True
            yield line_no, fields[2:]
        elif fields[0] == body:
            if not seen:
                raise FormatError(f"{body} line before {name}", line=line_no)
            yield line_no, fields[1:]
        elif fields[0] == "c" and comments is not None:
            comments.append(fields[1:])
        else:
            raise FormatError(f"unknown line type {fields[0]!r}", line=line_no)
    if not seen:
        raise FormatError(f"missing {name}", offset=len(text.encode()))


def _render(head: list[str], rows) -> str:
    """The head lines, then one line per row of tokens; newline-terminated."""
    return "\n".join(head + [" ".join(map(str, row)) for row in rows]) + "\n"


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------


def serialize_graph(g: Graph) -> str:
    head = [f"c name {g.name}"] if g.name else []
    head.append(f"p edge {g.n} {g.edge_count()}")
    return _render(head, (("e", i + 1, j + 1) for i, j in g.edges()))


def parse_graph(text: str) -> Graph:
    comments: list[list[str]] = []
    rows = _tagged(text, "p edge", 2, "problem line", "e", comments)
    line, head = next(rows)
    n, declared_edges = _ints(head, line)
    if n < 0 or declared_edges < 0:
        raise FormatError("negative counts in problem line", line=line)
    edges: list[tuple[int, int]] = []
    for line_no, fields in rows:
        i, j = _ints(fields, line_no, 2, "i j")
        if i == j:
            raise FormatError(f"self-loop e {i} {j}", line=line_no)
        if not (1 <= i < j <= n):
            raise FormatError(f"edge e {i} {j} not in canonical 1..{n} order",
                              line=line_no)
        pair = (i - 1, j - 1)
        if edges and pair <= edges[-1]:
            raise FormatError("edges out of sorted order or duplicated", line=line_no)
        edges.append(pair)
    if len(edges) != declared_edges:
        raise FormatError(
            f"problem line declares {declared_edges} edges, found {len(edges)}",
            offset=len(text.encode()))
    names = [" ".join(fields[1:]) for fields in comments if fields[:1] == ["name"]]
    return Graph.from_edges(n, edges, name=names[-1] if names else "")


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
    head = [f"p coords {len(cloud.points)} {cloud.dim} {cloud.adjacency_sq_dist}"]
    return _render(head, (("v", idx, *point)
                          for idx, point in enumerate(cloud.points, start=1)))


def parse_point_cloud(text: str) -> PointCloud:
    rows = _tagged(text, "p coords", 3, "coords header", "v")
    line, head = next(rows)
    count, dim, sq = _ints(head, line)
    try:
        PointCloud(dim, (), sq)
    except ValueError as err:
        raise FormatError(f"invalid coords header: {err}", line=line) from err
    points: list[tuple[int, ...]] = []
    for line_no, fields in rows:
        index, *point = _ints(fields, line_no, dim + 1, f"index plus {dim} coordinates")
        if index != len(points) + 1:
            raise FormatError(f"vertex index {index} out of order", line=line_no)
        points.append(tuple(point))
    if len(points) != count:
        raise FormatError(f"header declares {count} points, found {len(points)}",
                          offset=len(text.encode()))
    try:
        return PointCloud(dim, tuple(points), sq)
    except DuplicatePointError as err:  # point i is on line i + 1 after the header
        raise FormatError(str(err), line=line + 1 + err.indices[1]) from err


def write_point_cloud(cloud: PointCloud, path) -> None:
    Path(path).write_text(serialize_point_cloud(cloud), encoding="ascii")


def read_point_cloud(path) -> PointCloud:
    return parse_point_cloud(Path(path).read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# Witness files
# ---------------------------------------------------------------------------


def _write_witness(path, graph_path, kind: str, count: int, rows) -> None:
    head = [f"s {kind} {count} {graph_content_hash(graph_path)}"]
    Path(path).write_text(_render(head, rows), encoding="ascii")


def _read_witness(path, graph_path, kind: str):
    """(graph, header count, body rows, end offset) of a witness of `kind`,
    whose header `s <kind> <count> <digest>` names the graph file's SHA-256."""
    g = read_graph(graph_path)
    text = Path(path).read_text(encoding="ascii")
    rows = _tagged(text, f"s {kind}", 2, "witness header", "v")
    line, head = next(rows)
    (count,) = _ints(head[:1], line)
    if head[1] != graph_content_hash(graph_path):
        raise FormatError("witness does not match graph", line=line)
    return g, count, rows, len(text.encode())


def write_independent_set_witness(path, graph_path, witness: VertexSet) -> None:
    _write_witness(path, graph_path, "independent-set", len(witness),
                   (("v", v + 1) for v in witness.indices()))


def read_independent_set_witness(path, graph_path) -> VertexSet:
    """Load and re-validate an independent-set witness against its graph."""
    g, size, rows, end = _read_witness(path, graph_path, "independent-set")
    vertices: list[int] = []
    for line_no, fields in rows:
        (v,) = _ints(fields, line_no, 1, "vertex")
        if not 1 <= v <= g.n:
            raise FormatError(f"vertex {v} out of range", line=line_no)
        vertices.append(v - 1)
    if len(vertices) != size:
        raise FormatError(f"header declares {size} vertices, found {len(vertices)}", offset=end)
    witness = VertexSet.from_indices(g.n, vertices)
    if len(witness) != size:
        raise FormatError("duplicate vertex in witness", offset=end)
    if not check_independent_set(g, witness):
        raise FormatError("witness is not an independent set of the named graph", offset=end)
    return witness


def write_coloring_witness(path, graph_path, coloring: tuple[int, ...]) -> None:
    _write_witness(path, graph_path, "coloring", max(coloring, default=0),
                   (("v", v, c) for v, c in enumerate(coloring, start=1)))


def read_coloring_witness(path, graph_path) -> tuple[int, ...]:
    """Load and re-validate a coloring witness against its graph."""
    g, k, rows, end = _read_witness(path, graph_path, "coloring")
    colors: list[int] = []
    for line_no, fields in rows:
        v, c = _ints(fields, line_no, 2, "vertex color")
        if v != len(colors) + 1:
            raise FormatError(f"vertex {v} out of order", line=line_no)
        colors.append(c)
    if len(colors) != g.n:
        raise FormatError(f"expected {g.n} colored vertices, found {len(colors)}", offset=end)
    coloring = tuple(colors)
    if not check_coloring(g, coloring, k) or max(coloring, default=k) != k:
        raise FormatError("coloring witness invalid for the named graph", offset=end)
    return coloring


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def serialize_certificate(cert: Certificate) -> str:
    head = [f"base {cert.base}", f"alpha {cert.claimed_alpha}",
            f"chi_lower {cert.claimed_chi_lower}"]
    return _render(head, cert.points)


def parse_certificate(text: str) -> Certificate:
    rows = _lines(text)
    header = []
    for key, (line_no, fields) in zip(("base", "alpha", "chi_lower"), rows):
        if len(fields) != 2 or fields[0] != key:
            raise FormatError(f"expected '{key} <value>'", line=line_no)
        header.append(fields[1] if key == "base" else _ints(fields[1:], line_no)[0])
    if len(header) < 3:
        raise FormatError("truncated certificate header", offset=len(text.encode()))
    base, alpha, chi_lower = header
    points = tuple(tuple(_ints(fields, line_no)) for line_no, fields in rows)
    return Certificate(base, points, claimed_alpha=alpha, claimed_chi_lower=chi_lower)


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
        return _render(["  ".join(c.rjust(w) for c, w in zip(cols, widths))
                        for cols in (header, *body)], ())

    def render_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "u", "status", "value", "alpha", "n", "runtime"])
        for r in self.rows:
            writer.writerow([r.d, r.u, r.status, r.value,
                             "" if r.alpha is None else r.alpha, r.n, f"{r.runtime:.2f}"])
        return buf.getvalue()

    def records(self) -> list[dict]:
        return [asdict(r) for r in self.rows]
