import random

import pytest

import unitdist as ud
from unitdist import formats
from unitdist.formats import FormatError, ResultTable, TableRow

from conftest import random_graph


class TestGraphFiles:
    def test_c52_header_and_round_trip(self, c52, tmp_path):
        g, _ = c52
        path = tmp_path / "c52.graph"
        formats.write_graph(g, path)
        first = path.read_bytes()
        assert first.splitlines()[0] == b"c name C(5,2)"
        assert first.splitlines()[1] == b"p edge 32 160"
        again = formats.parse_graph(first.decode())
        assert again.adj == g.adj and again.name == g.name
        formats.write_graph(again, path)
        assert path.read_bytes() == first

    def test_empty_graph_round_trip(self, tmp_path):
        g = ud.Graph(0, ())
        text = formats.serialize_graph(g)
        assert text == "p edge 0 0\n"
        assert formats.parse_graph(text).n == 0

    def test_random_round_trips_are_byte_stable(self, tmp_path):
        rng = random.Random(3)
        for i in range(20):
            g = random_graph(rng, rng.randrange(0, 20), 0.4, name=f"rand-{i}")
            text = formats.serialize_graph(g)
            again = formats.parse_graph(text)
            assert formats.serialize_graph(again) == text
            assert again.adj == g.adj

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(FormatError, match="self-loop"):
            formats.parse_graph("p edge 6 1\ne 5 5\n")
        try:
            formats.parse_graph("p edge 6 1\ne 5 5\n")
        except FormatError as err:
            assert err.line == 2

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(FormatError) as err:
            formats.parse_graph("p edge 2 1\ne 1 x\n")
        assert err.value.line == 2

    def test_header_count_mismatch(self):
        with pytest.raises(FormatError, match="declares 3 edges"):
            formats.parse_graph("p edge 4 3\ne 1 2\n")

    def test_unsorted_edges_rejected(self):
        with pytest.raises(FormatError, match="sorted order"):
            formats.parse_graph("p edge 4 2\ne 2 3\ne 1 2\n")

    def test_non_canonical_orientation_rejected(self):
        with pytest.raises(FormatError, match="canonical"):
            formats.parse_graph("p edge 4 1\ne 3 2\n")

    def test_missing_problem_line(self):
        with pytest.raises(FormatError, match="missing problem line"):
            formats.parse_graph("")


class TestPointCloudSidecar:
    def test_round_trip(self, tmp_path):
        cloud = ud.PointCloud(3, ((0, 0, 0), (1, -2, 3)), 4)
        path = tmp_path / "pts.coords"
        formats.write_point_cloud(cloud, path)
        first = path.read_bytes()
        again = formats.read_point_cloud(path)
        assert again == cloud
        formats.write_point_cloud(again, path)
        assert path.read_bytes() == first

    def test_sidecar_rebuilds_graph_file_exactly(self, tmp_path):
        g, cloud = ud.hamming_graph(4, 2)
        formats.write_graph(g, tmp_path / "g.graph")
        rebuilt = ud.graph_from_points(cloud, name=g.name)
        formats.write_graph(rebuilt, tmp_path / "rebuilt.graph")
        assert (tmp_path / "g.graph").read_bytes() == (tmp_path / "rebuilt.graph").read_bytes()

    def test_wrong_coordinate_count_rejected(self):
        with pytest.raises(FormatError, match="coordinates"):
            formats.parse_point_cloud("p coords 1 3 4\nv 1 0 0\n")

    def test_truncated_reports_byte_offset(self):
        text = "p coords 2 2 4\nv 1 0 0\n"
        with pytest.raises(FormatError, match="byte offset") as err:
            formats.parse_point_cloud(text)
        assert err.value.offset == len(text.encode())


class TestWitnessFiles:
    def test_independent_set_round_trip(self, h52, tmp_path):
        g, _ = h52
        graph_path = tmp_path / "h52.graph"
        formats.write_graph(g, graph_path)
        res = ud.max_independent_set(g)
        witness_path = tmp_path / "h52.alpha.witness"
        formats.write_independent_set_witness(witness_path, graph_path, res.witness)
        text = witness_path.read_text()
        assert text.startswith("s independent-set 2 ")
        assert len([ln for ln in text.splitlines() if ln.startswith("v ")]) == 2
        loaded = formats.read_independent_set_witness(witness_path, graph_path)
        assert loaded == res.witness

    def test_witness_against_wrong_graph_rejected(self, h52, c52, tmp_path):
        g, _ = h52
        graph_path = tmp_path / "h52.graph"
        other_path = tmp_path / "c52.graph"
        formats.write_graph(g, graph_path)
        formats.write_graph(c52[0], other_path)
        res = ud.max_independent_set(g)
        witness_path = tmp_path / "w.witness"
        formats.write_independent_set_witness(witness_path, graph_path, res.witness)
        with pytest.raises(FormatError, match="does not match graph"):
            formats.read_independent_set_witness(witness_path, other_path)

    def test_invalid_set_rejected_on_load(self, tmp_path):
        g = ud.Graph.from_edges(3, [(0, 1)], name="edge")
        graph_path = tmp_path / "edge.graph"
        formats.write_graph(g, graph_path)
        digest = formats.graph_content_hash(graph_path)
        bad = tmp_path / "bad.witness"
        bad.write_text(f"s independent-set 2 {digest}\nv 1\nv 2\n")
        with pytest.raises(FormatError, match="not an independent set"):
            formats.read_independent_set_witness(bad, graph_path)

    def test_truncated_witness_reports_byte_offset(self, tmp_path):
        g = ud.Graph.from_edges(3, [(0, 1)], name="edge")
        graph_path = tmp_path / "edge.graph"
        formats.write_graph(g, graph_path)
        digest = formats.graph_content_hash(graph_path)
        text = f"s independent-set 2 {digest}\nv 3\n"
        bad = tmp_path / "trunc.witness"
        bad.write_text(text)
        with pytest.raises(FormatError, match="byte offset") as err:
            formats.read_independent_set_witness(bad, graph_path)
        assert err.value.offset == len(text.encode())

    def test_coloring_round_trip_c64(self, tmp_path):
        g, _ = ud.hamming_graph(6, 4)
        graph_path = tmp_path / "c64.graph"
        formats.write_graph(g, graph_path)
        res = ud.chromatic_number(g)
        assert res.chi == 7
        witness_path = tmp_path / "c64.coloring.witness"
        formats.write_coloring_witness(witness_path, graph_path, res.coloring)
        lines = witness_path.read_text().splitlines()
        assert lines[0].startswith("s coloring 7 ")
        assert len(lines) == 1 + 64
        loaded = formats.read_coloring_witness(witness_path, graph_path)
        assert loaded == res.coloring

    def test_tampered_coloring_rejected(self, tmp_path):
        g, _ = ud.hamming_graph(3, 1)
        graph_path = tmp_path / "c31.graph"
        formats.write_graph(g, graph_path)
        res = ud.chromatic_number(g)
        witness_path = tmp_path / "c31.coloring.witness"
        formats.write_coloring_witness(witness_path, graph_path, res.coloring)
        text = witness_path.read_text().splitlines()
        text[1] = "v 1 " + ("2" if text[1] != "v 1 2" else "1")
        tampered = tmp_path / "tampered.witness"
        tampered.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError):
            formats.read_coloring_witness(tampered, graph_path)

    @pytest.mark.parametrize("kind, read", [
        ("independent-set", formats.read_independent_set_witness),
        ("coloring", formats.read_coloring_witness),
    ], ids=["independent-set", "coloring"])
    def test_non_integer_header_count_reports_line(self, tmp_path, kind, read):
        g = ud.Graph.from_edges(3, [(0, 1)], name="edge")
        graph_path = tmp_path / "edge.graph"
        formats.write_graph(g, graph_path)
        digest = formats.graph_content_hash(graph_path)
        bad = tmp_path / "bad.witness"
        bad.write_text(f"s {kind} abc {digest}\nv 1\n")
        with pytest.raises(FormatError, match=r"'abc'.*\(line 1\)") as err:
            read(bad, graph_path)
        assert err.value.line == 1


class TestCertificates:
    def test_shipped_certificate_round_trip(self, tmp_path):
        cert = ud.shipped_certificate()
        assert cert.base == "gosset-240"
        assert len(cert.points) == 49
        assert cert.claimed_alpha == 16
        assert cert.claimed_chi_lower == 19
        path = tmp_path / "copy.cert"
        formats.write_certificate(cert, path)
        assert formats.read_certificate(path) == cert
        first = path.read_bytes()
        formats.write_certificate(formats.read_certificate(path), path)
        assert path.read_bytes() == first

    def test_malformed_header(self):
        with pytest.raises(FormatError, match="alpha"):
            formats.parse_certificate("base gosset-240\nalpha\nchi_lower 19\n")

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated"):
            formats.parse_certificate("base gosset-240\n")

    def test_non_integer_point(self):
        with pytest.raises(FormatError) as err:
            formats.parse_certificate(
                "base gosset-240\nalpha 16\nchi_lower 15\n1 2 x 0 0 0 0 0\n")
        assert err.value.line == 4


class TestResultTable:
    def test_lower_bound_prefix(self):
        table = ResultTable([
            TableRow(5, 2, "exact", 8, 4, 32, 0.01),
            TableRow(10, 4, "lower-bound", 26, 40, 1024, 3.5),
        ])
        text = table.render_text()
        assert " 8" in text
        assert "≥26" in text

    def test_csv_and_records(self):
        table = ResultTable([TableRow(5, 2, "exact", 8, 4, 32, 0.01)])
        csv_text = table.render_csv()
        assert csv_text.splitlines()[0] == "d,u,status,value,alpha,n,runtime"
        assert csv_text.splitlines()[1].startswith("5,2,exact,8,4,32,")
        assert table.records()[0]["value"] == 8

    def test_exact_row_below_ratio_bound_rejected(self):
        with pytest.raises(ValueError, match="ratio bound"):
            TableRow(5, 2, "exact", 7, 4, 32, 0.0)

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="status"):
            TableRow(5, 2, "upper", 8, None, 32, 0.0)

    def test_empty_request_renders_header_only(self):
        table = ResultTable([])
        assert table.render_text().splitlines() == ["d  u  chi  alpha  n  seconds"]
        assert table.render_csv().splitlines() == ["d,u,status,value,alpha,n,runtime"]
        assert table.records() == []
