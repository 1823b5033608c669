"""Command line interface: JSON shape, exit codes, error mapping."""

import dataclasses
import enum
import json
import math

import pytest

import numpy as np

from qspan import cli, complete_bipartite, extremal_graph, read_graph, signless_laplacian, verify, write_graph
from qspan.cli import emit_json, format_float, main
from qspan.spectral import top_eigenpairs

from oracles import reference_emit


@pytest.fixture
def k37(tmp_path):
    path = tmp_path / "k37.graph"
    write_graph(complete_bipartite(3, 7), str(path))
    return str(path)


@pytest.fixture
def gstar(tmp_path):
    path = tmp_path / "gstar.graph"
    write_graph(extremal_graph(3, 3, 7), str(path))
    return str(path)


class TestFormatFloat:
    def test_twelve_significant_digits(self):
        assert format_float(9.09692409559706) == "9.09692409560"
        assert format_float(10.0) == "10.0000000000"
        assert format_float(0.0) == "0.000000000000"
        assert format_float(-2.5) == "-2.50000000000"

    def test_carry_into_new_digit_keeps_twelve(self):
        # 9.999999999999998 rounds up to 10; it must print like 10.0
        assert format_float(9.999999999999998) == "10.0000000000"
        assert format_float(-0.09999999999999999) == "-0.100000000000"
        assert format_float(99.99999999999999) == "100.000000000"

    def test_small_values_stay_fixed(self):
        s = format_float(5.11909391513e-11)
        assert "e" not in s and "E" not in s
        assert s.startswith("0.0000000000511909391513"[:14])

    def test_round_trips_as_json_number(self):
        for x in (1.0, 9.09692409559706, 1e-9, 123456.789):
            parsed = json.loads(format_float(x))
            assert parsed == pytest.approx(x, rel=1e-11)


class TestEmitJson:
    def test_valid_json(self):
        report = {
            "schema": "1",
            "m": 3,
            "q": 9.09692409559706,
            "flag": True,
            "items": [[0, 1], [2, 3]],
            "nested": {"a": None},
        }
        parsed = json.loads(emit_json(report))
        assert parsed["schema"] == "1"
        assert parsed["flag"] is True
        assert parsed["items"] == [[0, 1], [2, 3]]
        assert parsed["nested"] == {"a": None}

    def test_key_order_preserved(self):
        text = emit_json({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_empty_containers(self):
        assert json.loads(emit_json({"x": [], "y": {}})) == {"x": [], "y": {}}

    def test_strings_as_json_dumps(self):
        for text in ("", "plain", 'q"\\', "tab\tnew\n", "\u00e9\u2013\U0001d53c", "\x00\x1f"):
            assert emit_json([text]) == f"[{json.dumps(text)}]"
            assert emit_json({text: 1}) == "{\n  " + json.dumps(text) + ": 1\n}"
        assert emit_json({3: "x"}) == '{\n  "3": "x"\n}'

    def test_subclasses_take_their_base_branch(self):
        class Small(enum.IntEnum):
            ONE = 1

        class Rows(list):
            pass

        assert emit_json([np.float64(2.5), True, None, Small.ONE, Rows([1, 2])]) == (
            f"[2.50000000000, true, null, {Small.ONE}, [1, 2]]")


class TestEmitMatchesReference:
    """emit_json against oracles.reference_emit, byte for byte, on every CLI
    JSON report and on the odd values the writer must still take."""

    @pytest.fixture
    def payloads(self, monkeypatch, capsys):
        """Runs CLI argument lists and returns every payload they emitted."""
        seen = []

        def spy(report):
            seen.append(report)
            return emit_json(report)

        monkeypatch.setattr(cli, "emit_json", spy)

        def run(*argvs):
            for argv in argvs:
                main(argv)
            capsys.readouterr()
            return seen
        return run

    @staticmethod
    def assert_matches_reference(value):
        assert emit_json(value) == reference_emit(value, 0)

    def test_reports(self, payloads, k37, gstar):
        reports = payloads(
            ["spectral", k37],
            ["check-tree", k37, "--k", "3"],
            ["check-tree", gstar, "--k", "3"],
            ["verify-theorem", "--k", "3", "--m", "3", "--n", "7"],
            ["proof-sweep"],
            ["proof-sweep", "--k-range", "3..7", "--m-range", "3..8", "--n-extra", "0..8"],
            ["proof-sweep", "--k-range", "3..4", "--m-range", "3..9", "--n-extra", "1..20"],
        )
        assert [len(r.get("points", ())) for r in reports] == [0, 0, 0, 0, 135, 1110, 1400]
        assert [r.get("feasible") for r in reports[1:3]] == [True, False]
        for report in reports:
            self.assert_matches_reference(report)

    def test_report_with_counterexamples(self, payloads, monkeypatch):
        certify = verify.certify_threshold

        def with_counterexamples(k, m, n):
            found = [{"mask": 7, "edges": [[0, 0], [0, 1], [0, 2]]}, {"mask": 1 << 20, "edges": [[2, 6]]}]
            return dataclasses.replace(certify(k, m, n), counterexamples=found)

        monkeypatch.setattr(verify, "certify_threshold", with_counterexamples)
        (report,) = payloads(["verify-theorem", "--k", "3", "--m", "3", "--n", "7"])
        assert len(report["counterexamples"]) == 2
        self.assert_matches_reference(report)

    def test_odd_values(self):
        class Small(enum.IntEnum):
            ONE = 1

        class Rows(list):
            pass

        class Table(dict):
            pass

        class Count(int):
            pass

        class Name(str):
            pass

        self.assert_matches_reference({
            "subclasses": [Rows([1, Count(2)]), Table(a=Name("x")), Small.ONE, Name("y")],
            "mixed": [np.float64(2.5), True, False, None, 0, -3, 1.0, "s", [], {}],
            Name("key"): Rows(),
            "nested": Table({"rows": Rows([Table(c=Count(3))]), "empty": Table(), "list": []}),
            "\u00e9\u2013\U0001d53c": "\x00\x1f \u00e9",
            3: None,
            None: np.float64(-0.1),
            2.5: Small.ONE,
            Small.ONE: [Name("\u2013"), Count(-4)],
        })
        for value in ({}, [], (), Rows(), Table(), [{}], [[], {}], ([1], (2, 3))):
            self.assert_matches_reference(value)


class TestSpectral:
    def test_k37(self, k37, capsys):
        assert main(["spectral", k37]) == 0
        report = json.loads(capsys.readouterr().out)
        # test_reports leaves this report out, as its residual digits depend
        # on the BLAS build, so this test pins its keys and values
        assert list(report) == ["schema", "m", "n", "q", "residual", "iterations", "method"]
        assert report["schema"] == "1"
        assert report["m"] == 3 and report["n"] == 7
        assert report["q"] == pytest.approx(10.0, abs=1e-9)
        assert 0 <= report["residual"] <= 1e-9
        assert report["iterations"] == 0 and report["method"] == "eigh"

    def test_q_and_residual_are_top_eigenpairs_first_two(self, k37, capsys):
        (q,), (residual,), _ = top_eigenpairs(signless_laplacian(read_graph(k37))[None])
        assert main(["spectral", k37]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["q"], report["residual"]) == (float(format_float(q)), float(format_float(residual)))

    def test_nan_tol_is_input_error(self, k37, capsys):
        assert main(["spectral", k37, "--tol", "nan"]) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err
        assert captured.out == ""

    def test_tol_miss_exits_one(self, k37, capsys):
        assert main(["spectral", k37, "--tol", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert "residual" in captured.err
        assert captured.out == ""

    def test_singular_solve_exits_one(self, k37, capsys, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        assert main(["spectral", k37]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "singular" in captured.err
        assert captured.out == ""

    def test_long_path_is_fast_and_exact(self, tmp_path, capsys):
        # P_1001: A-vertex a is adjacent to B-vertices a and a+1. Q of a
        # bipartite graph is similar to its Laplacian, whose largest
        # eigenvalue on the path P_t is 2 + 2cos(pi/t); the spectral gap is
        # tiny, so a power iteration would need about 10**5 steps
        path = tmp_path / "p1001.graph"
        path.write_text("p bip 500 501\n" + "".join(f"e {a} {a}\ne {a} {a + 1}\n" for a in range(500)))
        assert main(["spectral", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["m"], report["n"]) == (500, 501)
        assert report["q"] == pytest.approx(2 + 2 * math.cos(math.pi / 1001), abs=1e-9)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["spectral", str(tmp_path / "nope.graph")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("p bip 2 2\ne 9 9\n")
        assert main(["spectral", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.graph:2:" in err


class TestCheckTree:
    def test_feasible(self, k37, capsys):
        assert main(["check-tree", k37, "--k", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert len(report["tree"]) == 9

    def test_infeasible(self, gstar, capsys):
        assert main(["check-tree", gstar, "--k", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False
        assert report["violating_set"] == [0]

    def test_demand_file(self, k37, tmp_path, capsys):
        demands = tmp_path / "f.txt"
        demands.write_text("3\n3\n3\n")
        assert main(["check-tree", k37, "--f", str(demands)]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True

    def test_demand_length_mismatch(self, k37, tmp_path, capsys):
        demands = tmp_path / "f.txt"
        demands.write_text("3\n3\n")
        assert main(["check-tree", k37, "--f", str(demands)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_uniform_demand(self, k37, capsys):
        assert main(["check-tree", k37, "--k", "1"]) == 2
        capsys.readouterr()

    def test_oversized_demands(self, k37, tmp_path, capsys):
        demands = tmp_path / "f.txt"
        demands.write_text(f"3\n3\n{10**30}\n")
        for demand in (["--k", str(10**30)], ["--f", str(demands)]):
            assert main(["check-tree", k37, *demand]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["feasible"] is False
            assert report["violating_set"] == [0, 1, 2]

    def test_non_utf8_graph_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"p bip 2 2\ne 0 \xff\n")
        for argv in (["check-tree", str(path), "--k", "2"], ["spectral", str(path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "bad.graph:2: not UTF-8 text" in captured.err
            assert captured.out == ""

    def test_non_utf8_demand_file_is_input_error(self, k37, tmp_path, capsys):
        demands = tmp_path / "badf.txt"
        demands.write_bytes(b"3\r\n3\r\n\xff3\r\n")
        assert main(["check-tree", k37, "--f", str(demands)]) == 2
        captured = capsys.readouterr()
        assert "badf.txt:3: not UTF-8 text" in captured.err
        assert captured.out == ""

    def test_disconnected_graph_is_input_error(self, tmp_path, capsys):
        # the graph satisfies the condition, so the tree growth finds the isolated B0
        path = tmp_path / "split.graph"
        path.write_text("p bip 1 3\ne 0 1\ne 0 2\n")
        assert main(["check-tree", str(path), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: construct_tree requires a connected graph\n"
        assert captured.out == ""

    def test_requires_exactly_one_demand_source(self, k37, capsys):
        assert main(["check-tree", k37]) == 2
        capsys.readouterr()


class TestExtremal:
    def test_report_passes(self, capsys):
        assert main(["extremal", "--k", "3", "--m", "3", "--n", "7", "--s", "1"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "9.09692409560" in out
        assert "[0, -40, 49, -14, 1]" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fam.graph"
        assert main(
            ["extremal", "--k", "3", "--m", "3", "--n", "7", "--s", "2",
             "--out", str(target)]
        ) == 0
        capsys.readouterr()
        from qspan import read_graph, build_family, ExtremalParams

        assert read_graph(str(target)) == build_family(ExtremalParams(3, 3, 7, 2))

    def test_bad_params(self, capsys):
        assert main(["extremal", "--k", "3", "--m", "3", "--n", "6", "--s", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_order_at_dense_cap_runs(self, capsys):
        # m + n = 4096, the largest order accepted
        assert main(["extremal", "--k", "3", "--m", "3", "--n", "4093", "--s", "2"]) == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out and "check join_chain: PASS" in captured.out
        assert captured.err == ""

    def test_order_over_dense_cap_is_input_error(self, capsys):
        assert main(["extremal", "--k", "3", "--m", "3", "--n", "4094", "--s", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: order 4097 exceeds dense cap 4096\n"
        assert captured.out == ""

    @pytest.mark.parametrize("n, message", [
        ("10000", "exceeds dense cap"),              # Q of order 10,003: 800 MB
        ("100000", "part sizes must be <="),         # would ask for 74.5 GiB
        ("100000000000", "part sizes must be <="),   # 1 << n exhausts memory
    ])
    def test_oversize_is_input_error(self, n, message, capsys):
        assert main(["extremal", "--k", "3", "--m", "3", "--n", n, "--s", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestProofSweep:
    def test_small_sweep(self, capsys):
        assert main(
            ["proof-sweep", "--k-range", "3..3", "--m-range", "3..3",
             "--n-extra", "1..1"]
        ) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["schema"] == "1"
        assert report["failures"] == []
        assert len(report["points"]) == 2
        assert "OK" in captured.err

    def test_single_value_range(self, capsys):
        assert main(
            ["proof-sweep", "--k-range", "3", "--m-range", "3", "--n-extra", "0..0"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(pt["expected_boundary"] for pt in report["points"])

    def test_empty_range_rejected(self, capsys):
        assert main(["proof-sweep", "--k-range", "5..3"]) == 2
        assert "empty range" in capsys.readouterr().err

    def test_garbage_range_rejected(self, capsys):
        assert main(["proof-sweep", "--k-range", "3..x"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--k-range", "3..4", "--m-range", "3..9", "--n-extra", "1..20"],   # 1,400 points
        ["--k-range", "3", "--m-range", "21", "--n-extra", "1"],           # m + n = 64
    ], ids=["point-cap", "order-cap"])
    def test_grid_at_cap_runs(self, argv, capsys):
        assert main(["proof-sweep"] + argv) == 0
        assert capsys.readouterr().err.endswith("0 failures: OK\n")

    @pytest.mark.parametrize("argv, message", [
        (["--k-range", "3", "--m-range", "6..11", "--n-extra", "0..31"],
         "grid has 1401 points, more than 1400"),
        (["--k-range", "3", "--m-range", "21", "--n-extra", "2"],
         "grid reaches family order m + n = 65, above 64"),
        (["--k-range", "3", "--m-range", "400", "--n-extra", "1"],
         "grid reaches family order m + n = 1201, above 64"),
        (["--k-range", "3..1000000000000"], "grid has more than 1400 points"),
    ], ids=["points-1401", "order-65", "order-1201", "huge-range"])
    def test_grid_over_cap_is_input_error(self, argv, message, capsys):
        assert main(["proof-sweep"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    def test_seed_is_only_echoed(self, capsys):
        argv = ["proof-sweep", "--k-range", "3..4", "--m-range", "3..4", "--n-extra", "0..2"]
        reports = []
        for seed in ("0", "7"):
            assert main(argv + ["--seed", seed]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert [r["grid"].pop("seed") for r in reports] == [0, 7]
        assert reports[0] == reports[1]

    def test_reports_byte_identical(self, capsys):
        argv = ["proof-sweep", "--k-range", "3..3", "--m-range", "3..4",
                "--n-extra", "0..2", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestVerifyTheorem:
    def test_flagship_point(self, capsys):
        assert main(
            ["verify-theorem", "--k", "3", "--m", "3", "--n", "7", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["graphs_total"] == 2097152
        assert report["graphs_connected"] == 778765
        assert report["counterexamples"] == []
        assert report["extremal_found"] is True
        assert "OK" in captured.err

    @pytest.mark.parametrize("k, m, n, connected, above", [
        (3, 3, 8, 5581315, 931),
        (3, 3, 9, 39606541, 2179),
        (4, 3, 10, 279447619, 3742),
    ])
    def test_grid_points_past_mask_cap(self, k, m, n, connected, above, capsys):
        argv = ["verify-theorem", "--k", str(k), "--m", str(m), "--n", str(n)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graphs_total"] == 2 ** (m * n)
        assert report["graphs_connected"] == connected
        assert report["graphs_above_bound"] == above
        assert report["counterexamples"] == []
        assert report["extremal_found"] is True

    def test_largest_point_under_orbit_cap(self, capsys):
        assert main(["verify-theorem", "--k", "5", "--m", "3", "--n", "13"]) == 0
        assert json.loads(capsys.readouterr().out)["extremal_found"] is True

    def test_first_point_past_orbit_cap(self, capsys):
        assert main(["verify-theorem", "--k", "3", "--m", "4", "--n", "9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["graphs_connected"], report["graphs_above_bound"]) == (37898120011, 10303)
        assert report["counterexamples"] == [] and report["extremal_found"] is True

    def test_over_orbit_cap_is_input_error(self, monkeypatch, capsys):
        # the cap on entries spent: (3,3,7) solves 36 column tuples of
        # 10 * 10 Q-matrix entries and tries 16 canonical candidates of 7 columns
        monkeypatch.setattr(verify, "CENSUS_CAP", 3711)
        assert main(["verify-theorem", "--k", "3", "--m", "3", "--n", "7"]) == 2
        captured = capsys.readouterr()
        assert "more than 3711 Q-matrix and relabelled-column entries" in captured.err
        assert captured.out == ""

    def test_order_over_eigen_chunk_is_input_error(self, capsys):
        assert main(["verify-theorem", "--k", "3", "--m", "3", "--n", "254"]) == 2
        captured = capsys.readouterr()
        assert "eigen chunk" in captured.err
        assert captured.out == ""

    def test_bad_params(self, capsys):
        assert main(["verify-theorem", "--k", "2", "--m", "3", "--n", "7"]) == 2
        capsys.readouterr()

    # the census takes no tolerance, so --tol is an unknown option
    def test_negative_tol_is_input_error(self, capsys):
        assert main(["verify-theorem", "--k", "3", "--m", "3", "--n", "7", "--tol", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--tol" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["1e-15", "1e-300", "1e-9", "1e-7"])
    def test_tol_is_usage_error(self, tol, capsys):
        assert main(["verify-theorem", "--k", "3", "--m", "3", "--n", "7", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tol" in captured.err
        assert captured.out == ""

    def test_non_copy_within_slack_exits_one(self, monkeypatch, capsys):
        # at (3,3,7) a class that is no copy of G* sits 0.047 below q*
        monkeypatch.setattr(verify, "CENSUS_SLACK", 0.05)
        assert main(["verify-theorem", "--k", "3", "--m", "3", "--n", "7"]) == 1
        captured = capsys.readouterr()
        assert "not an extremal copy" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_is_input_error(self, jobs, capsys):
        assert main(["verify-theorem", "--k", "3", "--m", "3", "--n", "7", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert "jobs" in captured.err
        assert captured.out == ""


class TestArgparseBehaviour:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, option", [
        (["proof-sweep", "--k-range", "1_0..10", "--m-range", "3", "--n-extra", "1"], "--k-range"),
        (["proof-sweep", "--m-range", "+3"], "--m-range"),
        (["proof-sweep", "--n-extra", "1.. 2"], "--n-extra"),
        (["proof-sweep", "--seed", " 3 "], "--seed"),
        (["extremal", "--k", "٣", "--m", "3", "--n", "7", "--s", "1"], "--k"),   # Arabic-Indic 3
        (["extremal", "--k", "3", "--m", "3", "--n", "7", "--s", "1_0"], "--s"),
        (["verify-theorem", "--k", "3", "--m", "+3", "--n", "7"], "--m"),
        (["verify-theorem", "--k", "3", "--m", "3", "--n", "7", "--jobs", "1_0"], "--jobs"),
        (["check-tree", "K37", "--k", "３"], "--k"),   # fullwidth 3
    ])
    def test_integers_are_ascii_decimals(self, argv, option, k37, capsys):
        # int() reads all of these; options take only ASCII -?[0-9]+, as the input files do
        assert main([k37 if a == "K37" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert f"{option}:" in captured.err and captured.out == ""

    def test_parser_built_once_and_reused(self, k37, capsys):
        runs = [["check-tree", k37, "--k", "3"], ["check-tree", k37], ["bogus"],
                ["check-tree", k37, "--k", "3"]]
        fresh = []
        for argv in runs:
            cli.build_parser.cache_clear()
            fresh.append((main(argv), *capsys.readouterr()))
        cli.build_parser.cache_clear()
        again = [(main(argv), *capsys.readouterr()) for argv in runs]
        assert again == fresh and [code for code, _, _ in again] == [0, 2, 2, 0]
        assert cli.build_parser.cache_info()[:2] == (3, 1)   # (hits, misses)
