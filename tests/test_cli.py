import argparse
import io
import json
import math
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pareto_kcenter import cli
from pareto_kcenter.cli import SOLVERS, _certify, _digest, main, solver
from pareto_kcenter.errors import InternalInvariantViolation
from pareto_kcenter.exact import SolveResult
from pareto_kcenter.geom import Point, PointSet
from pareto_kcenter.pointio import read_point_file, write_points
from pareto_kcenter.skyline import slow_skyline

from conftest import RAW_POINTS, SCALES, scaled_pointset
from oracle import brute_opt, brute_psi_sq, brute_skyline

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out = capsys.readouterr()
    return code, out.out, out.err


def brute_skyline_output(path) -> str:
    """What `skyline` prints for the file, from the brute-force oracle."""
    sky = brute_skyline(read_point_file(path))
    out = io.StringIO()
    write_points(sky.pts, out)
    return f"{len(sky)}\n{out.getvalue()}"


@pytest.fixture
def stair4(tmp_path):
    path = tmp_path / "stair4.txt"
    path.write_text("0 3\n1 2\n2 1\n3 0\n")
    return str(path)


@pytest.fixture
def big_pair(tmp_path):
    # Large coordinates with a small extent: the squared extent is finite.
    path = tmp_path / "big.txt"
    path.write_text("1.3e154 0\n1.2e154 1\n")
    return str(path)


class TestSkylineCommand:
    def test_trivial_file(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 0\n1 1\n")
        code, out, _ = run_cli(capsys, "skyline", str(path))
        assert code == 0
        assert out == "1\n1 1\n"

    def test_bounded_too_small_exits_3(self, capsys, stair4):
        code, out, _ = run_cli(capsys, "skyline", stair4, "--algo", "bounded:1")
        assert code == 3
        assert "incomplete" in out

    def test_bounded_large_enough(self, capsys, stair4):
        code, out, _ = run_cli(capsys, "skyline", stair4, "--algo", "bounded:4")
        assert code == 0
        assert out.splitlines()[0] == "4"

    def test_bounded_by_a_huge_size_equals_sort(self, capsys, tmp_path):
        # One group of all the points, however large the bound.
        path = tmp_path / "inst.txt"
        path.write_text("0 0\n2 1\n1 2\n1 1\n-0.0 2\n2 1\n")
        code, out, _ = run_cli(capsys, "skyline", str(path),
                               "--algo", "bounded:1000000000000000")
        _, sort_out, _ = run_cli(capsys, "skyline", str(path), "--algo", "sort")
        assert code == 0
        assert out == sort_out == "2\n1 2\n2 1\n"

    def test_optimal_equals_brute(self, capsys, tmp_path):
        code, gen_out, _ = run_cli(capsys, "gen", "--generator", "clustered",
                                   "--n", "300", "--seed", "11")
        path = tmp_path / "inst.txt"
        path.write_text(gen_out)
        _, opt_out, _ = run_cli(capsys, "skyline", str(path), "--algo", "optimal")
        assert opt_out == brute_skyline_output(path)

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\noops\n")
        code, _, err = run_cli(capsys, "skyline", str(path))
        assert code == 2
        assert "line 2" in err

    def test_empty_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n")
        code, _, _ = run_cli(capsys, "skyline", str(path))
        assert code == 2

    def test_default_equals_brute_at_scale_1e17(self, capsys, tmp_path):
        # Past 2^53, 1 + 1e17 == 1e17: no margin beyond the largest
        # coordinate is representable.
        rng = random.Random(17)
        path = tmp_path / "wide.txt"
        path.write_text("".join(f"{rng.randint(0, 10**17 - 1)} "
                                f"{rng.randint(0, 10**17 - 1)}\n"
                                for _ in range(300)) + "1e17 5\n")
        code, sort_out, _ = run_cli(capsys, "skyline", str(path))
        assert code == 0
        _, optimal_out, _ = run_cli(capsys, "skyline", str(path),
                                    "--algo", "optimal")
        assert sort_out == brute_skyline_output(path) == optimal_out

    def test_optimal_keeps_both_points_near_overflow(self, capsys, big_pair):
        code, out, _ = run_cli(capsys, "skyline", big_pair, "--algo", "optimal")
        assert code == 0
        assert out.splitlines()[0] == "2"
        assert out == brute_skyline_output(big_pair)

    @pytest.mark.parametrize("s", ["\u00b2", "\u0663", "+4", "0", ""])
    def test_bounded_bad_size_exits_2(self, capsys, stair4, s):
        # str.isdigit accepts "\u00b2", which int() refuses.
        code, out, err = run_cli(capsys, "skyline", stair4,
                                 "--algo", f"bounded:{s}")
        assert code == 2 and out == ""
        assert err == "error: use bounded:<s> with s >= 1\n"

    def test_sort_is_the_default(self, capsys, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("0 0\n2 1\n1 2\n1 1\n")
        _, default_out, _ = run_cli(capsys, "skyline", str(path))
        _, sort_out, _ = run_cli(capsys, "skyline", str(path), "--algo", "sort")
        assert default_out == sort_out == "2\n1 2\n2 1\n"
        code, _, err = run_cli(capsys, "skyline", str(path), "--algo", "slow")
        assert code == 2 and "unknown algorithm" in err

    def test_near_miss_algorithm_is_unknown(self, capsys, stair4):
        code, out, err = run_cli(capsys, "skyline", stair4,
                                 "--algo", "boundedfoo")
        assert (code, out) == (2, "")
        assert err == "error: unknown algorithm 'boundedfoo'\n"

    def test_brute_is_unknown(self, capsys, stair4):
        # The brute-force oracle lives with the tests, not in the CLI.
        code, out, err = run_cli(capsys, "skyline", stair4, "--algo", "brute")
        assert (code, out) == (2, "")
        assert err == "error: unknown algorithm 'brute'\n"


class TestDecideCommand:
    def test_feasible(self, capsys, stair4):
        code, out, _ = run_cli(capsys, "decide", stair4,
                               "--k", "2", "--lam", "1.4143")
        assert code == 0
        assert out.splitlines()[0] == "FEASIBLE"

    def test_infeasible(self, capsys, stair4):
        code, out, _ = run_cli(capsys, "decide", stair4,
                               "--k", "2", "--lam", "1.4")
        assert code == 1
        assert out.strip() == "INCOMPLETE"

    def test_grouped_matches_materialized(self, capsys, stair4):
        for lam in ("0.5", "1.4143", "2.9"):
            _, a, _ = run_cli(capsys, "decide", stair4, "--k", "2", "--lam", lam)
            _, b, _ = run_cli(capsys, "decide", stair4, "--k", "2", "--lam", lam,
                              "--grouped")
            assert a == b

    def test_grouped_matches_materialized_above_diameter(self, capsys):
        path = str(GOLDEN / "staircase4.txt")
        _, a, _ = run_cli(capsys, "decide", path, "--k", "1", "--lam", "100")
        _, b, _ = run_cli(capsys, "decide", path, "--k", "1", "--lam", "100",
                          "--grouped")
        assert a == b == "FEASIBLE\n3 0\n"

    def test_zero_lambda_k_equals_n(self, capsys, stair4):
        code, out, _ = run_cli(capsys, "decide", stair4, "--k", "4", "--lam", "0")
        assert code == 0
        assert out.splitlines()[0] == "FEASIBLE"

    @pytest.mark.parametrize("lam", ["-1", "nan"])
    def test_negative_or_nan_lambda_exits_2(self, capsys, stair4, lam):
        for grouped in ([], ["--grouped"]):
            code, out, err = run_cli(capsys, "decide", stair4, "--k", "2",
                                     "--lam", lam, *grouped)
            assert code == 2 and out == ""
            assert err == "error: lambda must be >= 0\n"


class TestSolveCommand:
    def test_lambda_printed_to_12_decimals(self, capsys, stair4):
        code, out, _ = run_cli(capsys, "solve", stair4, "--k", "2",
                               "--method", "matrix")
        assert code == 0
        assert "lambda_star=1.414213562373\n" in out

    def test_methods_agree_for_k1(self, capsys, stair4):
        values = set()
        for method in ("matrix", "parametric", "auto", "one-center"):
            _, out, _ = run_cli(capsys, "solve", stair4, "--k", "1",
                                "--method", method)
            record = dict(line.split("=", 1) for line in out.splitlines())
            values.add(record["lambda_star_sq"])
        assert len(values) == 1

    def test_matrix_matches_brute_near_overflow(self, capsys, big_pair):
        code, out, _ = run_cli(capsys, "solve", big_pair, "--k", "1",
                               "--method", "matrix")
        assert code == 0
        record = dict(line.split("=", 1) for line in out.splitlines())
        assert record["h"] == "2"
        want = brute_opt(read_point_file(big_pair), 1)
        assert want > 0.0
        assert record["lambda_star_sq"] == want.hex()

    def test_k_at_least_h_gives_zero(self, capsys, stair4):
        _, out, _ = run_cli(capsys, "solve", stair4, "--k", "7")
        assert "lambda_star=0.000000000000\n" in out

    def test_json_record(self, capsys, stair4):
        code, out, _ = run_cli(capsys, "solve", stair4, "--k", "2", "--json")
        record = json.loads(out)
        assert record["k"] == 2 and record["h"] == 4
        assert math.isclose(record["lambda_star"], math.sqrt(2))
        assert len(record["centers"]) == 2

    def test_time_ms_covers_the_file_read(self, capsys, stair4, monkeypatch):
        import time
        from pareto_kcenter import cli

        def slow_read(path):
            time.sleep(0.05)
            return read_point_file(path)

        monkeypatch.setattr(cli, "read_point_file", slow_read)
        code, out, _ = run_cli(capsys, "solve", stair4, "--k", "2", "--json")
        assert code == 0
        assert json.loads(out)["time_ms"] >= 50

    def test_approx_requires_epsilon(self, capsys, stair4):
        code, _, err = run_cli(capsys, "solve", stair4, "--k", "2",
                               "--method", "approx")
        assert code == 2
        assert "epsilon" in err

    @pytest.mark.parametrize("method", ["approxfoo", "matrix:2", "auto:"])
    def test_near_miss_method_is_unknown(self, capsys, stair4, method):
        code, out, err = run_cli(capsys, "solve", stair4, "--k", "2",
                                 "--method", method)
        assert (code, out) == (2, "")
        assert err == f"error: unknown method {method!r}\n"

    def test_approx_runs(self, capsys, stair4):
        code, out, _ = run_cli(capsys, "solve", stair4, "--k", "2",
                               "--method", "approx:0.5")
        assert code == 0
        # approx_solve tags its result, so the spelling of eps is its repr.
        _, out, _ = run_cli(capsys, "solve", stair4, "--k", "2",
                            "--method", "approx:.50")
        assert out.startswith("method=approx:0.5\n")

    @pytest.mark.parametrize("eps, shown", [("0", "0.0"), ("2", "2.0"),
                                            ("nan", "nan"), ("-0.5", "-0.5")])
    def test_approx_epsilon_out_of_range_exits_2(self, capsys, stair4,
                                                 eps, shown):
        code, out, err = run_cli(capsys, "solve", stair4, "--k", "2",
                                 "--method", f"approx:{eps}")
        assert code == 2 and out == ""
        assert err == f"error: eps must be in (0, 1), got {shown}\n"


class TestGenCommand:
    def test_round_trip_bit_exact(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "gen", "--n", "120", "--seed", "3")
        path = tmp_path / "inst.txt"
        path.write_text(out)
        _, out2, _ = run_cli(capsys, "gen", "--n", "120", "--seed", "3",
                             "--out", str(tmp_path / "direct.txt"))
        assert (tmp_path / "direct.txt").read_text() == out
        from pareto_kcenter.pointio import read_point_file, write_points
        from pareto_kcenter.instances import InstanceSpec, generate
        P = read_point_file(str(path))
        assert P.points == generate(InstanceSpec("uniform-square", 120, 3)).points

    def test_rejects_bad_n(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--n", "0")
        assert code == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--n", "5", "--out",
                               str(tmp_path / "missing" / "x.txt"))
        assert code == 2 and err.startswith("error: ")


class TestBenchCommand:
    def test_table_shape_and_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--generator", "staircase",
                               "--n", "256,512", "--k", "2",
                               "--method", "skyline-optimal", "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split("\t")
        assert header[:5] == ["gen", "n", "h", "k", "method"]
        assert "t_ratio" in header and "c_ratio" in header
        row512 = lines[2].split("\t")
        assert row512[1] == "512"
        assert row512[header.index("c_ratio")] != ""

    def test_rejects_zero_n(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--n", "0,128")
        assert code == 2

    def test_rejects_non_integer_lists(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--n", "12,abc")
        assert code == 2 and "comma-separated integers" in err

    def test_approx_epsilon_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--n", "64",
                               "--method", "approx:0")
        assert code == 2
        assert err == "error: eps must be in (0, 1), got 0.0\n"

    def test_decide_grouped_method(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--generator", "staircase",
                               "--n", "128", "--k", "4",
                               "--method", "decide-grouped", "--seed", "5")
        assert code == 0
        assert "decide-grouped" in out

    def test_every_method_runs(self, capsys):
        digests = {}
        for method in ("skyline-sort", "skyline-optimal",
                       "decide-materialized", "decide-grouped", "matrix",
                       "parametric", "gonzalez", "one-center", "approx:0.1"):
            k = "1" if method == "one-center" else "2"
            code, out, err = run_cli(capsys, "bench", "--n", "200", "--k", k,
                                     "--method", method, "--seed", "3")
            assert code == 0, (method, err)
            header, row = out.strip().splitlines()
            digests[method] = row.split("\t")[header.split("\t").index("digest")]
        assert digests["matrix"] == digests["parametric"]

    def test_matrix_route_shows_its_search(self, capsys):
        rows = {}
        for method in ("matrix", "parametric"):
            code, out, err = run_cli(capsys, "bench", "--generator",
                                     "staircase", "--n", "300", "--k", "3",
                                     "--method", method, "--seed", "4")
            assert code == 0, (method, err)
            header, row = out.strip().splitlines()
            rows[method] = dict(zip(header.split("\t"), row.split("\t")))
        matrix = rows["matrix"]
        assert int(matrix["multiarray_probes"]) > 0
        assert int(matrix["multiarray_touches"]) >= int(matrix["multiarray_probes"])
        assert matrix["digest"] == rows["parametric"]["digest"]

    def test_unknown_method_exits_2_before_the_table(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--n", "64",
                                 "--method", "fastest")
        assert code == 2 and out == ""
        assert err == "error: unknown method 'fastest'\n"

    @pytest.mark.parametrize("method, k, err", [
        ("approx:abc", "2", "bad epsilon 'abc'"),
        ("approx:0", "2", "eps must be in (0, 1), got 0.0"),
        ("approx", "2", "approx needs an epsilon, e.g. approx:0.1"),
        ("one-center", "1,2", "one-center requires k=1"),
        ("skyline-slow", "2", "unknown method 'skyline-slow'"),
        ("skyline-brute", "2", "unknown method 'skyline-brute'"),
    ])
    def test_bad_method_exits_2_before_the_table(self, capsys, method, k,
                                                 err):
        code, out, got = run_cli(capsys, "bench", "--n", "64", "--k", k,
                                 "--method", method)
        assert (code, out, got) == (2, "", f"error: {err}\n")

    def test_digest_stable_across_runs(self, capsys):
        def digests():
            _, out, _ = run_cli(capsys, "bench", "--generator", "clustered",
                                "--n", "64,128", "--k", "3",
                                "--method", "matrix", "--seed", "9")
            lines = out.strip().splitlines()
            col = lines[0].split("\t").index("digest")
            return [line.split("\t")[col] for line in lines[1:]]

        assert digests() == digests()


class TestPlotCommand:
    def test_structure_one_disk_per_center(self, capsys, stair4, tmp_path):
        out_path = tmp_path / "plot.svg"
        code, _, _ = run_cli(capsys, "plot", stair4, "--k", "2",
                             "--out", str(out_path))
        assert code == 0
        doc = out_path.read_text()
        assert doc.startswith("<?xml")
        assert doc.count('class="disk"') == 2

    def test_k_equals_h_zero_radius_disks(self, capsys, stair4, tmp_path):
        out_path = tmp_path / "plot.svg"
        run_cli(capsys, "plot", stair4, "--k", "4", "--out", str(out_path))
        doc = out_path.read_text()
        assert doc.count('class="disk"') == 4
        assert 'r="0.000000"' in doc

    def test_deterministic_bytes(self, capsys, stair4, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "plot", stair4, "--k", "2", "--out", str(a))
        run_cli(capsys, "plot", stair4, "--k", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("eps", ["0", "2", "nan"])
    def test_approx_epsilon_out_of_range_exits_2(self, capsys, stair4,
                                                 tmp_path, eps):
        out_path = tmp_path / "plot.svg"
        code, out, err = run_cli(capsys, "plot", stair4, "--k", "2",
                                 "--method", f"approx:{eps}",
                                 "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: eps must be in (0, 1), got ")
        assert not out_path.exists()


class TestInputRejection:
    def run_each(self, capsys, tmp_path, path):
        """Every subcommand that reads a point file, on `path`."""
        options = (["skyline"], ["decide", "--k", "1", "--lam", "1"],
                   ["solve", "--k", "1"],
                   ["plot", "--k", "1", "--out", str(tmp_path / "out.svg")])
        return [run_cli(capsys, cmd, str(path), *rest)
                for cmd, *rest in options]

    def test_non_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        for code, out, err in self.run_each(capsys, tmp_path, path):
            assert code == 2 and out == ""
            assert err.startswith("error:") and "UTF-8" in err

    def test_overflowing_extent_exits_2(self, capsys, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("1e200 1\n-1e200 2\n")
        for code, out, err in self.run_each(capsys, tmp_path, path):
            assert code == 2 and out == ""
            assert err.startswith("error:") and "range" in err
        assert not (tmp_path / "out.svg").exists()


class TestGoldenSnapshots:
    def test_solve_output_byte_stable(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(GOLDEN / "staircase4.txt"),
                               "--k", "2", "--method", "matrix")
        assert code == 0
        assert out == (GOLDEN / "staircase4_solve.txt").read_text()

    def test_parametric_route_keeps_the_golden_optimum(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(GOLDEN / "staircase4.txt"),
                               "--k", "2", "--method", "parametric")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method=parametric"
        golden = (GOLDEN / "staircase4_solve.txt").read_text().splitlines()
        for key in ("lambda_star_sq=", "digest="):
            assert ([ln for ln in lines if ln.startswith(key)]
                    == [ln for ln in golden if ln.startswith(key)])

    def test_svg_byte_stable(self, capsys, tmp_path):
        out_path = tmp_path / "golden_check.svg"
        run_cli(capsys, "plot", str(GOLDEN / "staircase4.txt"), "--k", "2",
                "--method", "matrix", "--out", str(out_path))
        assert out_path.read_bytes() == (GOLDEN / "staircase4.svg").read_bytes()


# As perfbench/certify.py: the approximation factors hold in real
# arithmetic, and a reported radius went through a sqrt and a square.
FACTOR_SLACK = 1e-9
TABLE_EPS = 0.25


@pytest.mark.parametrize("name", list(SOLVERS))
@settings(max_examples=40, deadline=None)
@given(scale=SCALES, raw=RAW_POINTS, k=st.integers(1, 4))
# Two skyline points whose squared distance underflows to 0, and k >= h.
@example(scale=1e-170, raw=[(0, 1, 0, 0), (1, 0, 0, 0)], k=2)
def test_every_solver_table_entry_keeps_its_guarantee(name, scale, raw, k):
    route = SOLVERS[name]
    k = min(k, route.max_k or k)
    P = scaled_pointset(scale, raw)
    sky = brute_skyline(P).pts
    opt = brute_opt(P, k)
    run, exact = solver(name.replace("<eps>", str(TABLE_EPS)), [k])
    res = run(P, k)
    tag, lam_sq, centers = res.algorithm, res.lambda_star_sq, res.centers
    # solve and plot run the route on the staircase: the same answer.
    on_sky = run(PointSet(sky), k)
    assert on_sky.lambda_star_sq.hex() == lam_sq.hex()
    assert on_sky.centers == centers
    assert len(centers) <= k and set(centers) <= set(sky)
    assert brute_psi_sq(sky, centers) <= lam_sq
    if route.guarantee == "exact":
        assert lam_sq.hex() == opt.hex()
    else:
        factor = {"factor 2": 2.0, "1+eps": 1.0 + TABLE_EPS}[route.guarantee]
        assert opt <= lam_sq <= factor * factor * opt * (1 + FACTOR_SLACK)
    # solve's certificate holds: the decision is feasible at the radius
    # and, for an exact route, not one ulp below it.
    _certify(slow_skyline(P), k, res, exact)
    if tag in ("rows", "matrix", "parametric"):
        # The routes that certify with the greedy decision also agree on
        # the centers; one-center picks its own optimal center.
        ref = solver("matrix", [k])[0](P, k)
        assert _digest(centers, lam_sq) == _digest(ref.centers,
                                                   ref.lambda_star_sq)


@pytest.mark.parametrize("name", list(SOLVERS))
def test_every_solver_table_entry_is_refused_an_overflowing_extent(name):
    # Squared distances between these points overflow to inf, where no
    # route's radius means anything.  PointSet refuses the set before any
    # route runs, as the reader refuses such a file.
    wide = [(0.0, 1e300), (1e300, 0.0), (5e299, 5e299)]
    run, _ = solver(name.replace("<eps>", str(TABLE_EPS)), [1])
    for points in (np.array(wide), [Point(x, y) for x, y in wide]):
        with pytest.raises(ValueError, match="squared extent overflows"):
            run(PointSet(points), 1)


def test_solve_and_plot_compute_the_skyline_once(capsys, tmp_path,
                                                monkeypatch):
    # Fifteen of the 18 points are dominated: the routes run on the other
    # three, and solve reports that skyline's h.
    path = tmp_path / "in.txt"
    path.write_text("0 30\n10 20\n30 0\n" + "".join(
        f"{x} {y}\n" for x in range(5) for y in range(3)))
    calls = []

    def counted(P, skyline=cli.slow_skyline):
        calls.append(len(P))
        return skyline(P)

    monkeypatch.setattr(cli, "slow_skyline", counted)
    for method in ("auto", "parametric", "gonzalez", "approx:0.5"):
        calls.clear()
        code, out, _ = run_cli(capsys, "solve", str(path), "--k", "2",
                               "--method", method)
        assert code == 0 and calls == [18]
        assert "n=18\nh=3\n" in out
        calls.clear()
        code, _, _ = run_cli(capsys, "plot", str(path), "--k", "2",
                             "--method", method,
                             "--out", str(tmp_path / "out.svg"))
        assert code == 0 and calls == [18]
    code, out, _ = run_cli(capsys, "solve", str(path), "--k", "2")
    assert out.startswith("method=rows\n")


@pytest.mark.parametrize("method, name, k, radius", [
    ("gonzalez", "gonzalez_2approx", 2, lambda r: r / 4),
    ("approx:0.1", "approx_solve", 2, lambda r: 0.0),
    ("matrix", "solve_via_matrix", 2, lambda r: math.nextafter(r, math.inf)),
    ("auto", "solve_by_rows", 1, lambda r: math.nextafter(r, math.inf)),
    ("rows", "solve_by_rows", 2, lambda r: math.nextafter(r, math.inf)),
    ("one-center", "solve_one_center", 1, lambda r: 2 * r),
])
def test_solve_refuses_an_uncertified_radius(capsys, monkeypatch, tmp_path,
                                             method, name, k, radius):
    # A radius the decision finds too small, or for an exact route one
    # ulp or more above the optimum, is an internal error: solve prints
    # no answer and plot writes no picture.
    path = tmp_path / "in.txt"
    path.write_text("0 30\n10 20\n13 11\n30 0\n5 5\n")
    run = getattr(cli, name)

    def wrong(P, *args):
        res = run(P, *args)
        return SolveResult(radius(res.lambda_star_sq), res.centers,
                           res.algorithm)

    svg = tmp_path / "out.svg"
    runs = [["solve", str(path), "--k", str(k), "--method", method],
            ["plot", str(path), "--k", str(k), "--method", method,
             "--out", str(svg)]]
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
    svg.unlink()
    monkeypatch.setattr(cli, name, wrong)
    for argv in runs:
        with pytest.raises(InternalInvariantViolation):
            main(argv)
        assert capsys.readouterr().out == ""
    assert not svg.exists()


def test_auto_reaches_the_rebound_route(monkeypatch):
    # Span tracing rebinds the package's names in cli; auto must call the
    # row route's name as bound when it runs, at every (h, k), and never
    # the matrix or the parametric route.
    calls = []
    for name in ("solve_by_rows", "solve_via_matrix", "solve_parametric"):
        def record(P, k, name=name, route=getattr(cli, name)):
            calls.append(name)
            return route(P, k)
        monkeypatch.setattr(cli, name, record)
    for n in (1, 2, 16, 17, 200):
        P = scaled_pointset(1.0, [(i, n - 1 - i, 0, 0) for i in range(n)])
        for k in {1, 2, n // 2 or 1, n - 1 or 1, n, n + 1}:
            calls.clear()
            assert solver("auto", [k])[0](P, k).algorithm == "rows"
            assert calls == ["solve_by_rows"]


def test_removed_options_are_refused(capsys, monkeypatch, stair4):
    for argv in (["gen", "--n", "5", "--param", "scale=2"],
                 ["bench", "--n", "64", "--lead-counter", "dist_evals"],
                 ["decide", stair4, "--k", "2", "--lam", "1.4143",
                  "--grouped", "3"]):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
    _, plain, _ = run_cli(capsys, "gen", "--n", "5")
    monkeypatch.setenv("PARETO_KCENTER_SEED", "not-a-number")
    assert run_cli(capsys, "gen", "--n", "5") == (0, plain, "")


def test_readme_documents_every_option():
    # Every long option of every subcommand is named in README's CLI
    # section, and every option named there exists.
    parser = cli.make_parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subcommands.choices.values()
               for action in sub._actions for opt in action.option_strings
               if opt.startswith("--")} - {"--help"}
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section)) - {"--help"}
    assert options - named == set(), "options missing from README"
    assert named - options == set(), "README names options the CLI lacks"
