"""Golden reports: exit code, stderr and the sha256 of stdout of fixed CLI runs.

The hashes pin every byte of the JSON and text reports, so a change that moves
a printed digit, a count or a verdict fails here. `spectral` is left out: its
residual digits depend on the BLAS build.
"""

import hashlib

import pytest

from qspan import ExtremalParams, build_family, extremal_graph, write_graph
from qspan.cli import main

GOLDEN = {
    "verify-337": (
        ["verify-theorem", "--k", "3", "--m", "3", "--n", "7"], 0,
        "checked 2097152 graphs (778765 connected), 505 at or above the threshold, "
        "0 counterexamples, extremal graph found: OK\n",
        "54e5615078859cc1eab0a5c08b41992f499dab90ea0fff8e9f5bde6dc2506715"),
    "verify-5-3-13": (
        ["verify-theorem", "--k", "5", "--m", "3", "--n", "13"], 0,
        "checked 549755813888 graphs (96690872461 connected), 30031 at or above the "
        "threshold, 0 counterexamples, extremal graph found: OK\n",
        "f639d3322f8792f24568720eb43f068d0e9905e2fa23b0677cb465a64531f6ad"),
    "sweep-default": (
        ["proof-sweep"], 0, "swept 135 points (0 expected boundary), 0 failures: OK\n",
        "5004a77a368cb3d957984344f6ebc7eb6ec36d22debf2dfa2747dea7bb342c87"),
    "sweep-3..7x3..8x0..8-seed-1": (
        ["proof-sweep", "--k-range", "3..7", "--m-range", "3..8", "--n-extra", "0..8",
         "--seed", "1"], 0, "swept 1110 points (30 expected boundary), 0 failures: OK\n",
        "b881f7ec0e29e4ad9368a63677f03853c8075cea2f46f003c54d4802aa924c3a"),
    "extremal-337-s1": (
        ["extremal", "--k", "3", "--m", "3", "--n", "7", "--s", "1"], 0, "",
        "d2dc94893b26f1fd48fcac6d6ded72f1ce820ad257eda018c15d57457c07fa31"),
    "extremal-337-s2": (
        ["extremal", "--k", "3", "--m", "3", "--n", "7", "--s", "2"], 0, "",
        "f43b41c9117fdfc9b72777e0663c444bf834b2a3d9d5a716f55fa4b211e61daa"),
    "check-tree-feasible": (
        ["check-tree", "{family_s2}", "--k", "3"], 0, "",
        "7020b7ce3646f558f80027d1e3914ee296ffe9a1bb81a11a67cada73cc6fa344"),
    "check-tree-infeasible": (
        ["check-tree", "{gstar}", "--k", "3"], 0, "",
        "f251bc70209e1e719d61a9478a6b39ee7525f0d158154b780cb4f3ee552be1cd"),
}


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    files = {"family_s2": build_family(ExtremalParams(3, 3, 7, 2)),
             "gstar": extremal_graph(3, 3, 7)}
    for name, g in files.items():
        write_graph(g, str(root / f"{name}.graph"))
    return {name: str(root / f"{name}.graph") for name in files}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_report(name, graph_files, capsys):
    argv, code, err, digest = GOLDEN[name]
    assert main([arg.format(**graph_files) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
