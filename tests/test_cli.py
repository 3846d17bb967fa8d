import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import unitdist as ud
from unitdist import cli, formats
from unitdist.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_build_half_10_4(self, capsys, tmp_path):
        prefix = tmp_path / "h104"
        code, out, _ = run(capsys, "build", "half", "-d", "10", "-u", "4", "-o", str(prefix))
        assert code == EXIT_OK
        assert "n=512" in out
        assert "regular=True" in out
        g = formats.read_graph(f"{prefix}.graph")
        assert g.n == 512
        cloud = formats.read_point_cloud(f"{prefix}.coords")
        assert len(cloud.points) == 512

    def test_build_slice_10_4_5(self, capsys, tmp_path):
        prefix = tmp_path / "s1045"
        code, out, _ = run(capsys, "build", "slice", "-d", "10", "-u", "4",
                           "-s", "5", "-o", str(prefix))
        assert code == EXIT_OK
        assert "n=252" in out

    def test_build_cube_u_exceeds_d(self, capsys, tmp_path):
        code, out, err = run(capsys, "build", "cube", "-d", "3", "-u", "4",
                             "-o", str(tmp_path / "bad"))
        assert code == EXIT_INVALID
        assert "u exceeds d" in err

    def test_config_line_printed(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "cube", "-d", "3", "-u", "2",
                           "-o", str(tmp_path / "c32"))
        assert code == EXIT_OK
        assert out.startswith("config ")
        assert "command=build" in out.splitlines()[0]


@pytest.fixture()
def h52_file(tmp_path):
    g, _ = ud.half_cube(5, 2)
    path = tmp_path / "h52.graph"
    formats.write_graph(g, path)
    return path


@pytest.fixture()
def slice_prefix(capsys, tmp_path):
    """C(10,4,5) written by `build`, with its .coords sidecar."""
    prefix = tmp_path / "s"
    code, _, _ = run(capsys, "build", "slice", "-d", "10", "-u", "4", "-s", "5",
                     "-o", str(prefix))
    assert code == EXIT_OK
    return prefix


class TestAlpha:
    def test_alpha_h52(self, capsys, h52_file, tmp_path):
        witness = tmp_path / "w.witness"
        code, out, _ = run(capsys, "alpha", str(h52_file), "--witness", str(witness))
        assert code == EXIT_OK
        assert "alpha=2" in out
        assert "ratio_bound=8" in out
        loaded = formats.read_independent_set_witness(witness, h52_file)
        assert len(loaded) == 2

    def test_alpha_edgeless_fixture(self, capsys, tmp_path):
        g = ud.Graph(5, (0,) * 5, name="edgeless-5")
        path = tmp_path / "edgeless.graph"
        formats.write_graph(g, path)
        code, out, _ = run(capsys, "alpha", str(path))
        assert code == EXIT_OK
        assert "alpha=5" in out and "ratio_bound=1" in out

    def test_alpha_budget_exhaustion_exit_code(self, capsys, tmp_path):
        g, _ = ud.slice_graph(10, 4, 5)
        path = tmp_path / "s.graph"
        formats.write_graph(g, path)
        code, out, _ = run(capsys, "alpha", str(path), "--budget-nodes", "100")
        assert code == EXIT_BUDGET
        assert "incomplete" in out
        assert "alpha_lower=" in out and "alpha_upper=" in out

    def test_alpha_solves_c86_with_sidecar_symmetry_over_both_halves(self, capsys, tmp_path):
        prefix = tmp_path / "c86"
        code, _, _ = run(capsys, "build", "cube", "-d", "8", "-u", "6", "-o", str(prefix))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "alpha", f"{prefix}.graph", "--budget-nodes", "50000")
        assert code == EXIT_OK
        assert "result alpha=58 ratio_bound=5 n=256 nodes=111 " in out

    def test_alpha_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "alpha", str(tmp_path / "nope.graph"))
        assert code == EXIT_INVALID

    def test_alpha_takes_checked_symmetry_from_the_sidecar(self, capsys, slice_prefix):
        g, cloud = ud.slice_graph(10, 4, 5)
        expect = ud.max_independent_set(g, None, ud.cloud_automorphisms(cloud))
        code, out, _ = run(capsys, "alpha", f"{slice_prefix}.graph")
        assert code == EXIT_OK
        assert f"result alpha=12 ratio_bound=21 n=252 nodes={expect.nodes_explored} " in out

    def test_alpha_without_sidecar_searches_whole(self, capsys, slice_prefix):
        Path(f"{slice_prefix}.coords").unlink()
        expect = ud.max_independent_set(ud.slice_graph(10, 4, 5)[0])
        code, out, _ = run(capsys, "alpha", f"{slice_prefix}.graph")
        assert code == EXIT_OK
        assert f"result alpha=12 ratio_bound=21 n=252 nodes={expect.nodes_explored} " in out

    def test_alpha_rejects_a_sidecar_that_does_not_fit(self, capsys, slice_prefix):
        coords = Path(f"{slice_prefix}.coords")
        cloud = formats.read_point_cloud(coords)
        points = list(cloud.points)
        formats.write_point_cloud(ud.PointCloud(10, tuple(points[1:]), 4), coords)
        code, _, err = run(capsys, "alpha", f"{slice_prefix}.graph")
        assert code == EXIT_INVALID
        assert "has 251 points for 252 vertices" in err
        # Two points swapped: the shift no longer maps rows onto rows.
        points[0], points[1] = points[1], points[0]
        formats.write_point_cloud(ud.PointCloud(10, tuple(points), 4), coords)
        code, _, err = run(capsys, "alpha", f"{slice_prefix}.graph")
        assert code == EXIT_INVALID
        assert "not the neighbours" in err

    def test_alpha_has_no_transitive_pivot_option(self, capsys, h52_file):
        with pytest.raises(SystemExit) as exc:
            main(["alpha", str(h52_file), "--transitive-pivot", "0"])
        assert exc.value.code == EXIT_INVALID
        assert "unrecognized arguments: --transitive-pivot" in capsys.readouterr().err


class TestChi:
    def test_chi_one_vertex(self, capsys, tmp_path):
        g = ud.Graph(1, (0,), name="one")
        path = tmp_path / "one.graph"
        formats.write_graph(g, path)
        code, out, _ = run(capsys, "chi", str(path))
        assert code == EXIT_OK
        assert "chi=1" in out

    def test_chi_c22(self, capsys, tmp_path):
        g, _ = ud.hamming_graph(2, 2)
        path = tmp_path / "c22.graph"
        formats.write_graph(g, path)
        witness = tmp_path / "c.witness"
        code, out, _ = run(capsys, "chi", str(path), "--witness", str(witness))
        assert code == EXIT_OK
        assert "chi=2" in out
        coloring = formats.read_coloring_witness(witness, path)
        assert max(coloring) == 2

    def test_chi_budget_bracket(self, capsys, tmp_path):
        g, _ = ud.hamming_graph(6, 4)
        path = tmp_path / "c64.graph"
        formats.write_graph(g, path)
        code, out, _ = run(capsys, "chi", str(path), "--budget-nodes", "10")
        assert code == EXIT_BUDGET
        assert "chi_lower=" in out and "chi_upper=" in out


class TestTable:
    @staticmethod
    def cells(out):
        return [line.split()[2] for line in out.splitlines()
                if line and line.split()[0].isdigit()]

    def test_row_u2_through_d8(self, capsys):
        code, out, _ = run(capsys, "table", "-u", "2", "-d", "2..8")
        assert code == EXIT_OK
        assert self.cells(out) == ["2", "4", "4", "8", "8", "8", "8"]

    def test_row_u4_includes_edgeless_cells(self, capsys):
        code, out, _ = run(capsys, "table", "-u", "4", "-d", "2..5")
        assert code == EXIT_OK
        assert self.cells(out) == ["1", "1", "2", "4"]

    def test_row_u6_through_d7(self, capsys):
        code, out, _ = run(capsys, "table", "-u", "6", "-d", "2..7")
        assert code == EXIT_OK
        assert self.cells(out) == ["1", "1", "1", "1", "2", "4"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "table", "-u", "2", "-d", "2..3", "--format", "csv")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if "," in ln]
        assert lines[0] == "d,u,status,value,alpha,n,runtime"
        assert lines[1].startswith("2,2,exact,2,")
        assert lines[2].startswith("3,2,exact,4,")

    def test_budget_exhausted_cell_prints_bound(self, capsys):
        code, out, _ = run(capsys, "table", "-u", "2", "-d", "7",
                           "--budget-nodes", "5")
        assert code == EXIT_OK
        row = [ln for ln in out.splitlines() if ln.strip().startswith("7")][0]
        assert "≥" in row


class TestInvalidInput:
    # Each bad value is refused with one error line and exit code 2.
    @pytest.mark.parametrize("argv", [
        ("-u", "2", "-d", "x..3"),
        ("-u", "2", "-d", "-1"),
        ("-u", "0", "-d", "3"),
        ("-u", "2", "-d", "17"),
        ("-u", "2", "-d", "5..3"),
        ("-u", "2", "-d", "3", "--budget-nodes", "-5"),
        ("-u", "2", "-d", "3", "--budget-seconds", "-1"),
    ], ids=["d-not-a-range", "d-negative", "u-zero", "d-above-cap", "d-empty-range",
            "negative-nodes", "negative-seconds"])
    def test_table(self, capsys, argv):
        code, out, err = run(capsys, "table", *argv)
        assert code == EXIT_INVALID
        assert err.startswith("error message=") and len(err.splitlines()) == 1
        assert out.startswith("config ") and len(out.splitlines()) == 1

    @pytest.mark.parametrize("command", ["alpha", "chi"])
    @pytest.mark.parametrize("flag", [("--budget-nodes", "-5"), ("--budget-seconds", "-1")],
                             ids=["negative-nodes", "negative-seconds"])
    def test_solve_budgets(self, capsys, h52_file, command, flag):
        code, _, err = run(capsys, command, str(h52_file), *flag)
        assert code == EXIT_INVALID
        assert err.startswith("error message=") and len(err.splitlines()) == 1


def _write_pool(path, points):
    path.write_text("".join(" ".join(map(str, x)) + "\n" for x in points))


class TestErrorBoundary:
    @pytest.mark.parametrize("command", ["build", "alpha", "chi", "augment"])
    def test_unwritable_output_exits_invalid(self, capsys, monkeypatch, h52_file, tmp_path,
                                             command):
        # Refused before any solve: every solver the commands call fails.
        def solver(*args, **kwargs):
            raise AssertionError("solved before checking the output path")

        for module, name in ((cli, "max_independent_set"), (cli, "chromatic_number"),
                             (cli.e8, "initial_state"), (cli.e8, "augment_greedy")):
            monkeypatch.setattr(module, name, solver)
        missing = tmp_path / "missing"
        argv = {
            "build": ["build", "cube", "-d", "3", "-u", "1", "-o", str(missing / "x")],
            "alpha": ["alpha", str(h52_file), "--witness", str(missing / "w")],
            "chi": ["chi", str(h52_file), "--witness", str(missing / "w")],
            "augment": ["augment", "--budget-candidates", "300", "-o", str(missing / "x.cert")],
        }[command]
        start = time.monotonic()
        code, _, err = run(capsys, *argv)
        assert time.monotonic() - start < 0.5
        assert code == EXIT_INVALID
        assert err.startswith("error message=") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not missing.exists()

    def test_program_fault_is_not_absorbed(self, monkeypatch, h52_file):
        def fail(*args, **kwargs):
            raise RuntimeError("witness failed its re-check")
        monkeypatch.setattr(cli, "max_independent_set", fail)
        with pytest.raises(RuntimeError, match="re-check"):
            main(["alpha", str(h52_file)])


class TestAugmentAndVerify:
    def test_augment_empty_budget(self, capsys, tmp_path):
        cert_path = tmp_path / "empty.cert"
        code, out, _ = run(capsys, "augment", "--budget-candidates", "0",
                           "-o", str(cert_path))
        assert code == EXIT_BUDGET
        assert "alpha=16" in out
        assert "chi_lower=15" in out
        cert = formats.read_certificate(cert_path)
        assert cert.points == ()
        assert cert.claimed_alpha == 16
        assert cert.claimed_chi_lower == 15

    def test_augment_pool_file_prefix(self, capsys, tmp_path):
        shipped = ud.shipped_certificate()
        pool_path = tmp_path / "pool.txt"
        _write_pool(pool_path, shipped.points[:2])
        cert_path = tmp_path / "two.cert"
        code, out, _ = run(capsys, "augment", "--pool-file", str(pool_path),
                           "-o", str(cert_path))
        assert code == EXIT_OK
        assert out.count("outcome=accepted") == 2
        cert = formats.read_certificate(cert_path)
        assert cert.points == shipped.points[:2]
        assert cert.claimed_alpha == 16

    def test_augment_random_order_is_seeded(self, capsys, tmp_path):
        runs = []
        for name in ("a.cert", "b.cert"):
            code, out, _ = run(capsys, "augment", "--order", "random", "--seed", "5",
                               "--budget-candidates", "3", "-o", str(tmp_path / name))
            assert code == EXIT_BUDGET
            runs.append([line for line in out.splitlines() if line.startswith("candidate ")])
        assert len(runs[0]) == 3 and runs[0] == runs[1]
        lex_first = ud.enumerate_ball().points[:3]
        assert [line.split()[1] for line in runs[0]] != [
            "point=" + ",".join(map(str, x)) for x in lex_first]

    def test_augment_random_order_shuffles_a_pool_file(self, capsys, tmp_path):
        points = list(ud.shipped_certificate().points[:4])
        pool_path = tmp_path / "pool.txt"
        _write_pool(pool_path, points)
        expect = list(points)
        random.Random(5).shuffle(expect)
        assert expect != points
        code, out, _ = run(capsys, "augment", "--pool-file", str(pool_path), "--order",
                           "random", "--seed", "5", "-o", str(tmp_path / "r.cert"))
        assert code == EXIT_OK
        assert [line.split()[1] for line in out.splitlines()
                if line.startswith("candidate ")] == [
            "point=" + ",".join(map(str, x)) for x in expect]

    def test_augment_prints_each_line_once_under_split(self, tmp_path):
        # Standard output to a pipe is block-buffered, so lines printed before
        # a fork sit in the buffer each worker inherits; a worker that flushed
        # it on exit would print them twice. Every search that can is split.
        shipped = ud.shipped_certificate()
        pool_path = tmp_path / "pool.txt"
        _write_pool(pool_path, shipped.points[:2])
        script = ("import sys; from unitdist import cli, solve; solve._SPLIT_NODES = 0; "
                  "solve._usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(ud.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, "augment", "--pool-file", str(pool_path),
             "-o", str(tmp_path / "two.cert")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == [
            "config", "base", "candidate", "candidate", "result", "wrote"]
        assert len(set(lines)) == len(lines)

    @pytest.mark.parametrize("bad_line, message", [
        ("1 1 1 1 1 1 1", "is not an 8-vector"),
        ("3 3 0 0 0 0 0 0", "squared norm > 16"),
        (None, "listed twice"),
        ("1 1 1 1 1 1 1 x", "non-integer coordinate"),
    ], ids=["short", "norm18", "duplicate", "non_integer"])
    def test_augment_rejects_invalid_pool_point(self, capsys, tmp_path, bad_line, message):
        good = " ".join(str(c) for c in ud.shipped_certificate().points[0])
        pool_path = tmp_path / "pool.txt"
        pool_path.write_text(f"{good}\n\n{bad_line or good}\n")
        cert_path = tmp_path / "bad.cert"
        code, out, err = run(capsys, "augment", "--pool-file", str(pool_path),
                             "-o", str(cert_path))
        assert code == EXIT_INVALID
        assert message in err and "(line 3)" in err
        # refused before the base graph's alpha is solved
        assert "base name=" not in out
        assert "outcome=" not in out
        assert not cert_path.exists()

    def test_augment_rejects_negative_time_budget(self, capsys, tmp_path):
        cert_path = tmp_path / "neg.cert"
        code, out, err = run(capsys, "augment", "--budget-seconds", "-1",
                             "-o", str(cert_path))
        assert code == EXIT_INVALID
        assert err.startswith("error message=") and "base name=" not in out
        assert not cert_path.exists()

    @pytest.mark.parametrize("flag", ["--budget-candidates", "--budget-accepted"])
    def test_augment_rejects_budget_below_minus_one(self, capsys, tmp_path, flag):
        cert_path = tmp_path / "neg.cert"
        code, out, err = run(capsys, "augment", flag, "-2", "-o", str(cert_path))
        assert code == EXIT_INVALID
        assert err.startswith("error message=") and err.count("\n") == 1
        assert "base name=" not in out
        assert not cert_path.exists()

    def test_verify_tampered_point_fails_fast(self, capsys, tmp_path):
        cert = ud.shipped_certificate()
        bad = ud.Certificate(cert.base, ((9, 9, 9, 9, 9, 9, 9, 9),) + cert.points[1:],
                             cert.claimed_alpha, cert.claimed_chi_lower)
        path = tmp_path / "bad.cert"
        formats.write_certificate(bad, path)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_VERIFY_FAIL
        assert "FAIL" in out
        assert "condition=outside-ball" in out

    def test_verify_inconsistent_ratio_fails_fast(self, capsys, tmp_path):
        cert = ud.shipped_certificate()
        bad = ud.Certificate(cert.base, cert.points, 15, cert.claimed_chi_lower)
        path = tmp_path / "bad2.cert"
        formats.write_certificate(bad, path)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_VERIFY_FAIL
        assert "condition=ratio-arithmetic" in out

    def test_verify_unreadable_certificate(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "missing.cert"))
        assert code == EXIT_INVALID


class TestExitCodesAreDistinct:
    def test_documented_codes(self):
        assert (EXIT_OK, EXIT_INVALID, EXIT_VERIFY_FAIL, EXIT_BUDGET) == (0, 2, 3, 4)
        assert len({EXIT_OK, EXIT_INVALID, EXIT_VERIFY_FAIL, EXIT_BUDGET}) == 4


class TestReproducibility:
    @pytest.mark.parametrize("command", [["alpha", "g.graph"], ["verify", "x.cert"],
                                         ["augment", "-o", "x.cert"]],
                             ids=["alpha", "verify", "augment"])
    def test_threads_flag_accepts_only_one(self, command):
        parser = build_parser()
        assert parser.parse_args(command + ["--threads", "1"]).threads == 1
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(command + ["--threads", "2"])
        assert exc.value.code == EXIT_INVALID

    def test_identical_flags_give_byte_identical_outputs(self, capsys, tmp_path):
        blobs = []
        for name in ("a", "b"):
            prefix = tmp_path / name
            assert run(capsys, "build", "half", "-d", "5", "-u", "2",
                       "-o", str(prefix))[0] == EXIT_OK
            witness = tmp_path / f"{name}.witness"
            assert run(capsys, "alpha", f"{prefix}.graph", "--witness",
                       str(witness))[0] == EXIT_OK
            blobs.append(((tmp_path / f"{name}.graph").read_bytes(),
                          (tmp_path / f"{name}.coords").read_bytes(),
                          witness.read_bytes()))
        assert blobs[0] == blobs[1]
