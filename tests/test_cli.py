"""Command line interface: JSON shape, exit codes, error mapping."""

import json

import pytest

from qspan import complete_bipartite, extremal_graph, write_graph
from qspan.cli import emit_json, format_float, main


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


class TestSpectral:
    def test_k37(self, k37, capsys):
        assert main(["spectral", k37]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "1"
        assert report["m"] == 3 and report["n"] == 7
        assert report["q"] == pytest.approx(10.0, abs=1e-9)
        assert report["method"] in ("power", "eigh")

    def test_nan_tol_is_input_error(self, k37, capsys):
        assert main(["spectral", k37, "--tol", "nan"]) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err
        assert captured.out == ""

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

    def test_bad_params(self, capsys):
        assert main(["verify-theorem", "--k", "2", "--m", "3", "--n", "7"]) == 2
        capsys.readouterr()

    def test_negative_tol_is_input_error(self, capsys):
        assert main(["verify-theorem", "--k", "3", "--m", "3", "--n", "7", "--tol", "-1"]) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err
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
