import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qktw import cli, exact, gf, suites
from qktw.cli import run
from qktw.errors import BudgetExceededError
from qktw.exact import SolveBudget, treewidth_at_most, treewidth_exact
from qktw.gf import is_prime_power
from qktw.kneser import KneserParams, treewidth_verdict
from qktw.report import CheckCase, SuiteReport, verify_all_json
from qktw.suites import counting_suite, perp_census_suite
from qktw.graph import Graph, path_graph, petersen_graph
from qktw.treedec import (
    TreeDecomposition,
    pace_read_gr,
    pace_read_td,
    pace_write_gr,
    pace_write_td,
    validate_td,
)

from graph_helpers import cycle_graph


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verdict_command(capsys):
    code, payload = run_json(capsys, ["verdict", "-q", "2", "-n", "4", "-k", "2", "-t", "1"])
    assert code == 0
    assert payload["formula_value"] == "27"
    assert payload["applicable"] == ["K421"]


def test_verdict_past_the_digit_limit(capsys):
    code, payload = run_json(capsys, ["verdict", "-q", "2", "-n", "240", "-k", "120", "-t", "5"])
    assert code == 0
    assert len(payload["formula_value"]) > 4300
    code, payload = run_json(capsys, ["alpha", "-q", "2", "-n", "400", "-k", "200", "-t", "5"])
    assert code == 0 and payload["within_budget"] is False
    assert len(payload["formula"]) > 4300


def test_verdict_past_the_size_limit(capsys):
    start = time.perf_counter()
    assert run(["verdict", "-q", "2", "-n", "4000", "-k", "2000", "-t", "1"]) == 3
    assert run(["alpha", "-q", "2", "-n", "4000", "-k", "2000", "-t", "1"]) == 3
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("over the limit") == 2


def test_verdict_bad_params(capsys):
    assert run(["verdict", "-q", "6", "-n", "4", "-k", "2", "-t", "1"]) == 2
    assert run(["verdict", "-q", "2", "-n", "4", "-k", "2", "-t", "2"]) == 2


def test_verdict_on_large_orders(capsys):
    start = time.perf_counter()
    code, payload = run_json(capsys, ["verdict", "-q", "1000000000000000003", "-n", "4", "-k", "2", "-t", "1"])
    assert time.perf_counter() - start < 1
    assert code == 0 and payload["params"]["q"] == 1000000000000000003
    start = time.perf_counter()
    assert run(["verdict", "-q", "1000000000000000004", "-n", "4", "-k", "2", "-t", "1"]) == 2
    assert run(["verdict", "-q", str(2**89 - 1), "-n", "4", "-k", "2", "-t", "1"]) == 3
    assert time.perf_counter() - start < 1
    assert "decided exactly only below" in capsys.readouterr().err


def verdict_grid():
    """The (q, n, k, t) whose verdict JSON is pinned: small instances on
    both sides of the duality up to q = 251, values on either side of the
    interpreter's 4,300-digit int-to-str limit, and [1024,512]_2."""
    grid = []
    for q in (2, 3, 4, 5, 7, 9, 16, 251):
        for k, t in ((2, 1), (3, 1), (3, 2), (5, 2), (6, 5), (9, 4)):
            for n in (2 * k - t + 1, 2 * k, 3 * k - t + 1, 3 * k + 9):
                grid.append((q, n, k, t))
    grid += [
        (2, 238, 119, 2), (2, 239, 119, 1), (2, 239, 121, 4), (2, 240, 120, 5),
        (3, 189, 94, 1), (3, 190, 95, 2), (3, 190, 100, 11),
        (251, 88, 29, 28), (251, 89, 30, 5), (251, 89, 59, 58), (251, 90, 30, 1),
        (251, 120, 30, 1), (251, 120, 90, 61),
        (2, 1024, 512, 1),
    ]
    return list(dict.fromkeys(grid))


# SHA-256 of the concatenated `qktw verdict` output over verdict_grid().
_VERDICT_DIGEST = "d1ed0b735b300d23d4ff2f327c1e590022846e4e726610b4b536ad79f1ed0846"


def test_verdict_output_matches_the_pinned_digest(capsys):
    grid = verdict_grid()
    assert len(grid) == 190
    assert sum(n < 2 * k for _, n, k, _ in grid) == 36
    digest = hashlib.sha256()
    for q, n, k, t in grid:
        assert run(["verdict", "-q", str(q), "-n", str(n), "-k", str(k), "-t", str(t)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _VERDICT_DIGEST


def test_gen_and_files(tmp_path, capsys):
    out = tmp_path / "g.gr"
    code = run(["gen", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p tw 35 280"
    labels = (tmp_path / "g.gr.labels").read_text().splitlines()
    assert len(labels) == 35
    assert labels[0].startswith("1 ")


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.gr"
    b = tmp_path / "b.gr"
    run(["gen", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "-o", str(a)])
    run(["gen", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_quadric(tmp_path, capsys):
    out = tmp_path / "q.gr"
    code = run(["gen", "--quadric", "-q", "2", "-o", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "p tw 35 280"
    labels = (tmp_path / "q.gr.labels").read_text().splitlines()
    assert len(labels) == 35 and "," in labels[0]


@pytest.mark.parametrize(
    "extra", [["-n", "9"], ["-k", "3"], ["-t", "1"], ["-n", "9", "-k", "3", "-t", "1"]]
)
def test_gen_quadric_refuses_kneser_parameters(tmp_path, capsys, extra):
    out = tmp_path / "q.gr"
    assert run(["gen", "--quadric", "-q", "2", *extra, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gen: -n, -k, -t do not apply to --quadric\n"
    assert not out.exists()


def test_gen_past_the_graph_budget(tmp_path, capsys):
    # 200,787 vertices: within the enumeration cap, past the mask budget
    out = tmp_path / "g.gr"
    assert run(["gen", "-q", "2", "-n", "8", "-k", "4", "-t", "1", "-o", str(out)]) == 3
    assert not out.exists()


# SHA-256 of the bytes each command writes: the output file, then (for
# gen) its label file.  Any change of these bytes is a change of format or
# of vertex order and fails here, not only in a by-hand comparison.
_PINNED_OUTPUTS = [
    (
        ["gen", "-q", "2", "-n", "4", "-k", "2", "-t", "1"],
        "560f3b3c95caade87130420bfb6a0f3e7699fc0b018a0074f1670a5e373ee387",
        "207c300c76460947fee7f5549d632a2bbc1f6e7934dbf87ee3589b291c958877",
    ),
    (
        ["gen", "-q", "3", "-n", "4", "-k", "2", "-t", "1"],
        "3cdb4d77e2201bc27b09a105308060b83a20f6962822588aaf3a230784ef2b48",
        "0a7a2882b8aa78191668377302cbd6c3ff89b722e0024a59d9cc60abddce9a54",
    ),
    (
        ["gen", "-q", "2", "-n", "5", "-k", "3", "-t", "2"],
        "37aae4d550e71542e85538bab66fcfd167fd9abfa317d30ed2311966cf0f828a",
        "9608192804727c55af2c93b807bdf344cfaba40b734dae9aadd8780bb389ea7e",
    ),
    (
        ["gen", "--quadric", "-q", "2"],
        "a15832b753e46c13493179cf8c4038298848f6550c188ce64845b6479e3f23f7",
        "ff23244dab917cc27b3370e066235857d570db097f62ae99347f73acdffba24d",
    ),
    (
        ["gen", "--quadric", "-q", "3"],
        "f182dd94821c394410cb2b39222115d5c9071393f7192ca45bd05a369c4b9e1e",
        "79ed57d6d8da4ee66e5b117c58fcca361d3ecd384955c7da49a66033a24bd831",
    ),
    (
        ["gen", "--quadric", "-q", "4"],
        "2c9fb404cd55fdac2900f6359b32805515d997892f1bbb888a6ef265a3b5d8e9",
        "b19ba40639de21a2976542666b72197db65c331e2acfaf5685386def3d2e186b",
    ),
    (
        ["gen", "--quadric", "-q", "5"],
        "50ed0ce81f4e69ef9348df0fc6abe58f0c6695acea680386306f8c8348a73a45",
        "a51bbe33502116c69f7eeb16c556f66c021355f4802d68df874236358e507e80",
    ),
    (
        ["td-build", "-q", "2", "-n", "4", "-k", "2", "-t", "1"],
        "3a7a7cbf81919ddaf31c63062691c00c31ff4651555e16f7c458d305174c8392",
        None,
    ),
    (
        # n < 2k: the only star set that wraps subspaces_of's row tuples
        ["td-build", "-q", "2", "-n", "5", "-k", "3", "-t", "2"],
        "46c4276533a6c3804d0870efa731b70e5f1f6912dff4a12f5a8fc5a0a54650b8",
        None,
    ),
]


_PINNED_IDS = [
    "K2-4-2-1", "K3-4-2-1", "K2-5-3-2", "Q2", "Q3", "Q4", "Q5", "td-K2-4-2-1", "td-K2-5-3-2"
]


@pytest.mark.parametrize(
    "argv,digest,labels_digest",
    _PINNED_OUTPUTS,
    ids=_PINNED_IDS,
)
def test_outputs_match_pinned_digests(tmp_path, capsys, argv, digest, labels_digest):
    out = tmp_path / "out"
    assert run([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    labels = tmp_path / "out.labels"
    if labels_digest is None:
        assert not labels.exists()
    else:
        assert hashlib.sha256(labels.read_bytes()).hexdigest() == labels_digest


def test_desk_corpus_script_matches_the_pinned_digests(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "build_desk_corpus.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("build_desk_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["build_desk_corpus.py", str(tmp_path)])
    assert module.main() == 0
    pinned = dict(zip(_PINNED_IDS, _PINNED_OUTPUTS))
    corpus = {
        "kneser-q2-n4-k2-t1": "K2-4-2-1",
        "kneser-q3-n4-k2-t1": "K3-4-2-1",
        "kneser-q2-n5-k3-t2": "K2-5-3-2",
        "quadric-q2": "Q2",
        "quadric-q3": "Q3",
    }

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    for name, key in corpus.items():
        _, gr_digest, labels_digest = pinned[key]
        assert digest(f"{name}.gr") == gr_digest
        assert digest(f"{name}.labels") == labels_digest
    assert digest("kneser-q2-n4-k2-t1.td") == pinned["td-K2-4-2-1"][1]


def test_td_build_and_validate(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    td = tmp_path / "g.td"
    code = run(
        ["td-build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "-o", str(td), "--gr", str(gr)]
    )
    assert code == 0
    assert td.read_text().splitlines()[0] == "s td 8 28 35"
    capsys.readouterr()
    code, payload = run_json(capsys, ["td-validate", str(gr), str(td)])
    assert code == 0
    assert payload["valid"] and payload["width"] == 27


def test_td_validate_catches_breakage(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    td = tmp_path / "g.td"
    run(["td-build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "-o", str(td), "--gr", str(gr)])
    capsys.readouterr()
    # drop one bag line's vertices: edge coverage must now fail
    lines = td.read_text().splitlines()
    lines[2] = "b 2"
    td.write_text("\n".join(lines) + "\n")
    code, payload = run_json(capsys, ["td-validate", str(gr), str(td)])
    assert code == 1
    assert not payload["valid"]


def test_td_validate_parse_error(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    td = tmp_path / "bad.td"
    pace_write_gr(petersen_graph(), gr)
    td.write_text("s td nonsense\n")
    assert run(["td-validate", str(gr), str(td)]) == 2
    td.write_text("s td 32769 1 10\n")  # more bags than validate_td takes
    capsys.readouterr()
    assert run(["td-validate", str(gr), str(td)]) == 2
    assert "line 1: bag count must be in 0..32768" in capsys.readouterr().err


def test_tw_exact_command(tmp_path, capsys):
    gr = tmp_path / "pet.gr"
    pace_write_gr(petersen_graph(), gr)
    code, payload = run_json(capsys, ["tw-exact", str(gr)])
    assert code == 0
    assert payload["treewidth"] == 4
    capsys.readouterr()
    assert run(["tw-exact", str(gr), "--max-vertices", "5"]) == 3


def test_tw_exact_budget_failure_reaches_stderr(tmp_path, capsys, monkeypatch):
    gr = tmp_path / "pet.gr"
    pace_write_gr(petersen_graph(), gr)
    # the decision path trips the node budget, the subset DP refuses its
    # 2^10 - 1 subsets before solving, and the decision path's refusal is
    # the one reported
    monkeypatch.setattr(cli, "TREEWIDTH_NODE_BUDGET", 100)
    solve, refused = cli.treewidth_exact, []

    def recording(graph, budget):
        try:
            return solve(graph, budget)
        except BudgetExceededError as exc:
            refused.append(str(exc))
            raise

    monkeypatch.setattr(cli, "treewidth_exact", recording)
    assert run(["tw-exact", str(gr)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: search-node limit 100 exceeded after 100 search nodes explored\n"
    assert refused == [
        "search-node limit 100 is below the subset DP's 1023 nodes, one per nonempty subset: "
        "refused before solving"
    ]


def test_tw_exact_table_budget(tmp_path, capsys, monkeypatch):
    gr = tmp_path / "path24.gr"
    pace_write_gr(path_graph(24), gr)
    code, payload = run_json(capsys, ["tw-exact", str(gr), "--max-vertices", "40"])
    assert code == 0 and payload["treewidth"] == 1
    # where the decision path trips and the node budget admits 2^24 - 1
    # subsets, the subset DP refuses by its table limit before allocating,
    # and the decision path's refusal is the one reported
    monkeypatch.setattr(exact, "TREEWIDTH_LEVEL_BUDGET", 0)
    monkeypatch.setattr(cli, "TREEWIDTH_NODE_BUDGET", 2**24)
    monkeypatch.setattr(exact, "_subset_tables", None)
    assert run(["tw-exact", str(gr), "--max-vertices", "40"]) == 3
    assert capsys.readouterr().err == "error: the width-1 search holds more than 0 sets\n"


def test_tw_exact_node_budget_fails_fast(tmp_path, capsys, monkeypatch):
    gr = tmp_path / "path23.gr"
    pace_write_gr(path_graph(23), gr)
    code, payload = run_json(capsys, ["tw-exact", str(gr), "--max-vertices", "26"])
    assert code == 0 and payload["treewidth"] == 1
    # past a tripped decision path, 2^23 - 1 subsets are past the node
    # budget: the subset DP refuses them at once, with no table made
    monkeypatch.setattr(exact, "TREEWIDTH_LEVEL_BUDGET", 0)
    monkeypatch.setattr(exact, "_subset_tables", None)
    start = time.monotonic()
    assert run(["tw-exact", str(gr), "--max-vertices", "26"]) == 3
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == "error: the width-1 search holds more than 0 sets\n"
    # past --max-vertices no solver runs, and the vertex cap names the
    # refusal, as it does for 24 vertices
    start = time.monotonic()
    assert run(["tw-exact", str(gr), "--max-vertices", "22"]) == 3
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == "error: 23 vertices exceeds the budget of 22\n"
    # 22 vertices are within the budget and reach the subset DP
    solved = []
    monkeypatch.setattr(
        cli, "treewidth_exact",
        lambda g, budget: solved.append(g.n) or (1, TreeDecomposition((tuple(range(g.n)),), ())),
    )
    pace_write_gr(path_graph(22), gr)
    assert run(["tw-exact", str(gr), "--max-vertices", "26"]) == 0
    assert solved == [22]


@pytest.mark.parametrize(
    "build", [["-n", "4", "-k", "2", "-t", "1"], ["--quadric"]], ids=["kneser", "quadric"]
)
def test_tw_exact_decides_k421_at_the_formula_value(tmp_path, capsys, build):
    # K_2(4,2,1), and the quadric graph on the 35 points of Q+(5,2) that
    # the Klein map makes isomorphic to it, lie past the subset DP's
    # tables: the decision path alone decides them, within the shipped
    # node budget
    gr, td = tmp_path / "k421.gr", tmp_path / "k421.td"
    assert run(["gen", "-q", "2", *build, "-o", str(gr)]) == 0
    capsys.readouterr()
    _, verdict = run_json(capsys, ["verdict", "-q", "2", "-n", "4", "-k", "2", "-t", "1"])
    code, payload = run_json(capsys, ["tw-exact", str(gr), "-o", str(td), "--max-vertices", "35"])
    assert code == 0 and payload["vertices"] == 35
    assert str(payload["treewidth"]) == verdict["formula_value"] == "27"
    decomposition, declared = pace_read_td(td)
    report = validate_td(pace_read_gr(gr), decomposition)
    assert declared == 35 and report.passed and report.width == 27


def gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


@pytest.mark.parametrize("p, path", [(0.7, "treewidth_by_decision"), (0.25, "treewidth_by_decision")])
def test_tw_exact_writes_the_subset_dp_td_on_either_path(tmp_path, capsys, monkeypatch, p, path):
    g = gnp(14, p, seed=7)
    gr, td, expected = tmp_path / "g.gr", tmp_path / "g.td", tmp_path / "expected.td"
    pace_write_gr(g, gr)
    taken = []
    solver = getattr(cli, path)
    monkeypatch.setattr(cli, path, lambda g, budget: taken.append(path) or solver(g, budget))
    code, payload = run_json(capsys, ["tw-exact", str(gr), "-o", str(td)])
    assert code == 0 and taken == [path]
    tw, decomposition = treewidth_exact(g)
    pace_write_td(decomposition, g.n, expected)
    assert td.read_bytes() == expected.read_bytes()
    assert payload == {"vertices": 14, "treewidth": tw, "bags": decomposition.node_count}


def test_tw_exact_decides_a_dense_graph_past_the_subset_dp(tmp_path, capsys):
    g = gnp(24, 0.5, seed=24)
    gr, td = tmp_path / "g24.gr", tmp_path / "g24.td"
    pace_write_gr(g, gr)
    assert run(["tw-exact", str(gr), "-o", str(td)]) == 3
    assert "24 vertices exceeds the budget of 18" in capsys.readouterr().err
    start = time.monotonic()
    code, payload = run_json(capsys, ["tw-exact", str(gr), "-o", str(td), "--max-vertices", "24"])
    assert code == 0 and time.monotonic() - start < 5
    decomposition, declared = pace_read_td(td)
    report = validate_td(g, decomposition)
    assert declared == 24 and report.passed and report.width == payload["treewidth"]
    assert not treewidth_at_most(g, payload["treewidth"] - 1, SolveBudget(max_vertices=24))


def test_tw_exact_decision_path_stops_at_the_node_budget(tmp_path, capsys, monkeypatch):
    gr = tmp_path / "g.gr"
    pace_write_gr(gnp(16, 0.6, seed=3), gr)
    # 2^16 - 1 subsets are past this budget too, so no subset DP follows;
    # each set the first level family expands costs 16 nodes
    monkeypatch.setattr(cli, "TREEWIDTH_NODE_BUDGET", 50)
    assert run(["tw-exact", str(gr)]) == 3
    assert capsys.readouterr().err == (
        "error: search-node limit 50 exceeded after 48 search nodes explored\n"
    )


class _SizeLog(set):
    """A set that records the largest size any instance reached."""

    largest = 0

    def add(self, item):
        super().add(item)
        _SizeLog.largest = max(_SizeLog.largest, len(self))


def test_tw_exact_level_budget_trips_as_the_level_grows(tmp_path, capsys, monkeypatch):
    gr = tmp_path / "g.gr"
    pace_write_gr(gnp(24, 0.5, seed=24), gr)
    monkeypatch.setattr(exact, "TREEWIDTH_LEVEL_BUDGET", 20)
    monkeypatch.setattr(exact, "set", _SizeLog, raising=False)
    monkeypatch.setattr(_SizeLog, "largest", 0)
    assert run(["tw-exact", str(gr), "--max-vertices", "24"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: level \d+ of the width-\d+ decision holds more than 20 sets\n", captured.err
    )
    # refused within the one expansion that passed the budget
    assert 20 < _SizeLog.largest <= 20 + 24


def test_tw_exact_falls_back_to_the_subset_dp_within_its_budget(tmp_path, capsys, monkeypatch):
    g = gnp(16, 0.6, seed=3)
    gr, td, expected = tmp_path / "g.gr", tmp_path / "g.td", tmp_path / "expected.td"
    pace_write_gr(g, gr)
    monkeypatch.setattr(exact, "TREEWIDTH_LEVEL_BUDGET", 20)
    code, payload = run_json(capsys, ["tw-exact", str(gr), "-o", str(td)])
    assert code == 0
    tw, decomposition = treewidth_exact(g)
    pace_write_td(decomposition, g.n, expected)
    assert payload["treewidth"] == tw and td.read_bytes() == expected.read_bytes()


def random_regular(n, d, seed):
    """A d-regular graph on n vertices by the configuration model: n d
    stubs shuffled and paired in order, shuffled again while a pair is a
    loop or repeats an edge."""
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return Graph.from_edges(n, sorted(pairs))


def test_tw_exact_falls_back_to_the_subset_dp_on_a_cubic_graph_at_the_shipped_budgets(
    tmp_path, capsys, monkeypatch
):
    # the input the fallback is for, with no budget patched: the decision
    # path runs out of its node budget on a sparse graph past the default
    # --max-vertices, and the subset DP's 2^20 - 1 subsets are within it
    g = random_regular(20, 3, seed=4)
    gr, td = tmp_path / "g.gr", tmp_path / "g.td"
    pace_write_gr(g, gr)
    decide, refused = cli.treewidth_by_decision, []

    def recording(graph, budget):
        try:
            return decide(graph, budget)
        except BudgetExceededError:
            refused.append(budget.node_limit)
            raise

    monkeypatch.setattr(cli, "treewidth_by_decision", recording)
    start = time.monotonic()
    code, payload = run_json(capsys, ["tw-exact", str(gr), "-o", str(td), "--max-vertices", "20"])
    assert time.monotonic() - start < 5
    assert refused == [exact.TREEWIDTH_NODE_BUDGET]
    assert code == 0 and payload["treewidth"] == 5
    decomposition, declared = pace_read_td(td)
    report = validate_td(g, decomposition)
    assert declared == 20 and report.passed and report.width == 5


def clique_with_path(k, m):
    """K_k with a path of m more vertices hanging from its last vertex."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return Graph.from_edges(k + m, edges + [(v, v + 1) for v in range(k - 1, k + m - 1)])


def test_tw_exact_writes_the_subset_dp_td_for_a_clique_with_a_long_path(tmp_path, capsys):
    # the path's vertices fit any mix with the clique's sets within width
    # 2, which made the level family at the treewidth hold every such mix
    g = clique_with_path(11, 9)
    gr, td, expected = tmp_path / "g.gr", tmp_path / "g.td", tmp_path / "expected.td"
    pace_write_gr(g, gr)
    code, payload = run_json(capsys, ["tw-exact", str(gr), "-o", str(td), "--max-vertices", "20"])
    tw, decomposition = treewidth_exact(g, SolveBudget(max_vertices=20))
    pace_write_td(decomposition, g.n, expected)
    assert code == 0 and payload["treewidth"] == tw == 10
    assert td.read_bytes() == expected.read_bytes()


def test_tw_exact_decides_a_clique_with_a_long_path_without_the_subset_dp(
    tmp_path, capsys, monkeypatch
):
    g = clique_with_path(12, 10)
    gr, td = tmp_path / "g.gr", tmp_path / "g.td"
    pace_write_gr(g, gr)
    monkeypatch.setattr(cli, "treewidth_exact", None)
    code, payload = run_json(capsys, ["tw-exact", str(gr), "-o", str(td), "--max-vertices", "22"])
    assert code == 0 and payload["treewidth"] == 11
    decomposition, declared = pace_read_td(td)
    report = validate_td(g, decomposition)
    assert declared == 22 and report.passed and report.width == 11


def _random_tree(n, seed):
    """A random recursive tree with its labels shuffled."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[v], label[rng.randrange(v)]) for v in range(1, n)])


@pytest.mark.parametrize(
    "g, width",
    [(path_graph(1500), 1), (cycle_graph(1500), 2), (_random_tree(1500, seed=1500), 1)],
    ids=["path", "cycle", "tree"],
)
def test_tw_exact_takes_sparse_graphs_of_thousands_of_vertices(tmp_path, capsys, g, width):
    gr, td = tmp_path / "g.gr", tmp_path / "g.td"
    pace_write_gr(g, gr)
    start = time.monotonic()
    code, payload = run_json(capsys, ["tw-exact", str(gr), "-o", str(td), "--max-vertices", "1500"])
    assert code == 0 and time.monotonic() - start < 10
    decomposition, declared = pace_read_td(td)
    report = validate_td(g, decomposition)
    assert payload["treewidth"] == width == report.width and report.passed and declared == 1500


def test_tw_exact_fails_fast_on_a_ladder_at_the_decision_path_vertex_limit(tmp_path, capsys):
    # refuting a candidate of a shuffled ladder grows a component across a
    # whole segment: the node budget, which counts those vertices, trips
    n = 2048
    rng = random.Random(n)
    label = list(range(n))
    rng.shuffle(label)
    pairs = [(i, i + 2) for i in range(n - 2)] + [(i, i + 1) for i in range(0, n, 2)]
    gr = tmp_path / "ladder.gr"
    pace_write_gr(Graph.from_edges(n, [(label[u], label[v]) for u, v in pairs]), gr)
    start = time.monotonic()
    assert run(["tw-exact", str(gr), "--max-vertices", str(n)]) == 3
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err.startswith("error: search-node limit 4194303 exceeded after ")


def test_tw_exact_refuses_past_the_decision_path_vertex_limit(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    pace_write_gr(path_graph(2049), gr)
    start = time.monotonic()
    assert run(["tw-exact", str(gr), "--max-vertices", "5000"]) == 3
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == (
        "error: 2049 vertices exceed the 2048 of the decision path\n"
    )


# q = 128 is past the field tables too: the budget is checked first
@pytest.mark.parametrize("q", ["7", "128"])
def test_verify_pair_count_budget(capsys, monkeypatch, q):
    def refuse(*args, **kwargs):
        raise AssertionError("built or enumerated past the budget")

    monkeypatch.setattr(suites, "make_field", refuse)
    monkeypatch.setattr(suites, "enumerate_k_subspaces", refuse)
    assert run(["verify", "pair-count", "-q", q]) == 3
    assert "budget of 32768" in capsys.readouterr().err


def test_no_command_builds_a_field_past_the_tables(tmp_path, capsys, monkeypatch):
    # every command refuses these orders on a size or order limit before it
    # asks for a field, so none reaches make_field's refusal
    def refuse(self, q, *args):
        raise AssertionError(f"built GF({q})")

    monkeypatch.setattr(gf.FieldSpec, "__init__", refuse)
    out = str(tmp_path / "out")
    nkt = ["-n", "4", "-k", "2", "-t", "1"]
    for q, vertices, pairs in (
        ("67", 20460930, 91849420090),
        ("251", 3985065506, 251063127820010),
    ):
        too_many = (
            f"error: K_{q}(4,2,1) has {vertices} vertices; "
            "its adjacency masks are limited to 32768 vertices\n"
        )
        cases = [
            (["gen", "-q", q, *nkt, "-o", out], too_many),
            (
                ["gen", "-q", q, "--quadric", "-o", out],
                f"error: quadric graph limited to q <= 5, got q={q}\n",
            ),
            (["td-build", "-q", q, *nkt, "-o", out], too_many),
            (
                ["verify", "pair-count", "-q", q],
                f"error: pair-count mask lists of {pairs} subspaces (q={q}, n <= 5, k <= 3) "
                "exceed the budget of 32768\n",
            ),
            (
                ["verify", "klein", "-q", q],
                f"error: Klein verification limited to q <= 5, got q={q}\n",
            ),
            (["verify", "grid", "-q", q], f"error: grid search limited to q <= 4, got q={q}\n"),
            (["verify", "perp-census", "-q", q], f"error: census limited to q <= 5, got q={q}\n"),
        ]
        if q == "67":
            # [4,2]_251 is past a 10^9 budget, so alpha at 251 builds nothing
            cases.append((["alpha", "-q", q, *nkt, "--max-vertices", "1000000000"], too_many))
        for argv, err in cases:
            assert run(argv) == 3, argv
            assert capsys.readouterr() == ("", err), argv
    assert list(tmp_path.iterdir()) == []
    code, payload = run_json(capsys, ["verdict", "-q", "251", "-n", "5", "-k", "2", "-t", "1"])
    assert code == 0 and payload == treewidth_verdict(KneserParams(251, 5, 2, 1)).to_json()
    code, payload = run_json(capsys, ["verify", "gauss-bounds", "-q", "67"])
    assert code == 0 and payload["summary"]["failed"] == 0


def test_tw_exact_refuses_a_negative_vertex_budget(tmp_path, capsys):
    gr = tmp_path / "pet.gr"
    pace_write_gr(petersen_graph(), gr)
    assert run(["tw-exact", str(gr), "--max-vertices", "-1"]) == 2
    assert "--max-vertices: must be at least 0, got -1" in capsys.readouterr().err
    assert run(["tw-exact", str(gr), "--max-vertices", "x"]) == 2
    assert "--max-vertices: invalid int value: 'x'" in capsys.readouterr().err


def test_alpha_refuses_a_negative_vertex_budget(capsys):
    assert run(["alpha", "-q", "2", "-n", "5", "-k", "2", "-t", "1", "--max-vertices", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-vertices: must be at least 0, got -1" in captured.err


def test_alpha_command(capsys):
    code, payload = run_json(capsys, ["alpha", "-q", "2", "-n", "4", "-k", "2", "-t", "1"])
    assert code == 0
    assert payload["formula"] == "7" and payload["exact"] == "7" and payload["agree"]
    capsys.readouterr()
    code, payload = run_json(
        capsys, ["alpha", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--max-vertices", "10"]
    )
    assert code == 0
    assert payload["exact"] is None and not payload["within_budget"]


@pytest.mark.parametrize(
    "q, n, k, t, vertices, alpha",
    [(2, 6, 3, 2, 1395, "15"), (3, 5, 2, 1, 1210, "40")],
)
def test_alpha_is_exact_past_the_default_vertex_cap(capsys, q, n, k, t, vertices, alpha):
    argv = ["alpha", "-q", str(q), "-n", str(n), "-k", str(k), "-t", str(t)]
    code, payload = run_json(capsys, [*argv, "--max-vertices", str(vertices)])
    assert code == 0
    assert payload["exact"] == payload["formula"] == alpha and payload["agree"]
    code, payload = run_json(capsys, [*argv, "--max-vertices", str(vertices - 1)])
    assert code == 0 and payload["exact"] is None and not payload["within_budget"]


def test_verify_grid(capsys):
    code, payload = run_json(capsys, ["verify", "grid", "-q", "2"])
    assert code == 0
    assert payload["suite"] == "grid"
    assert payload["cases"][0]["lhs"] == "6"
    assert payload["summary"]["failed"] == 0


def test_verify_bridge_writes_report(tmp_path, capsys):
    out = tmp_path / "bridge.json"
    code, payload = run_json(capsys, ["verify", "bridge", "-o", str(out)])
    assert code == 0
    assert payload["summary"] == {"total": 27, "passed": 27, "failed": 0}
    assert json.loads(out.read_text()) == payload


def test_verify_census_claims_flag(capsys):
    code, payload = run_json(
        capsys, ["verify", "perp-census", "-q", "2", "--claims", "i,iv"]
    )
    assert code == 0
    assert [c["params"]["claim"] for c in payload["cases"]] == ["i", "iv"]


def test_verify_parabola_renders_huge_exact_values(capsys):
    # the 4th-power tail majorants have thousands of digits; the JSON
    # report must still round-trip
    code, payload = run_json(capsys, ["verify", "parabola"])
    assert code == 0
    assert payload["summary"] == {"total": 200, "passed": 200, "failed": 0}
    assert any(len(c["lhs"]) > 4300 for c in payload["cases"])


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run(["verify", "nonsense"]) == 2


@pytest.mark.parametrize(
    "argv,option",
    [
        (["bridge", "-q", "3"], "-q"),
        (["parabola", "-q", "3"], "-q"),
        (["counting", "-q", "3"], "-q"),
        (["gauss-bounds", "-q", "3", "--claims", "i"], "--claims"),
        (["grid", "--claims", "i"], "--claims"),
        (["bridge", "--tuples", "5"], "--tuples"),
        (["counting", "--tuples", "0"], "--tuples"),
        (["counting", "--tuples", "-5"], "--tuples"),
        (["grid", "-q", "6"], "-q"),
        (["pair-count", "-q", "6"], "-q"),
    ],
)
def test_verify_refuses_options_it_would_ignore(capsys, argv, option):
    assert run(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verify: " + option + " ")


def test_verify_options_reach_their_suites(capsys):
    code, payload = run_json(capsys, ["verify", "gauss-bounds", "-q", "3"])
    assert code == 0
    assert {c["params"]["q"] for c in payload["cases"]} == {3}
    assert payload["summary"]["total"] == sum(n + 1 for n in range(9))
    code, payload = run_json(capsys, ["verify", "counting", "--tuples", "3"])
    assert code == 0 and payload == counting_suite(tuples=3).to_json()
    code, payload = run_json(capsys, ["verify", "counting"])
    assert code == 0 and payload == counting_suite(tuples=50).to_json()


def test_verify_claims_without_q_run_both_orders(capsys):
    code, payload = run_json(capsys, ["verify", "perp-census", "--claims", "ii"])
    assert code == 0 and payload == perp_census_suite(claims=("ii",)).to_json()
    assert [(c["params"]["q"], c["params"]["claim"]) for c in payload["cases"]] == [
        (2, "ii"),
        (3, "ii"),
    ]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["perp-census", "--claims", ""], "error: unknown claim ''"),
        (["perp-census", "--claims", "i,"], "error: unknown claim ''"),
        (["counting", "--tuples", "100000"], "error: need count <= 4151,"),
    ],
)
def test_verify_refuses_values_its_suite_cannot_run(capsys, argv, message):
    assert run(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


_SESSION = [
    ["verdict", "-q", "2", "-n", "4", "-k", "2", "-t", "1"],
    ["verdict", "-q", "2", "-n", "4"],  # -k and -t missing: usage error
    ["alpha", "-q", "2", "-n", "4", "-k", "2", "-t", "1"],
]


def test_reused_parser_gives_the_results_of_fresh_ones(capsys, monkeypatch):
    fresh = []
    for argv in _SESSION:
        monkeypatch.setattr(cli, "_PARSER", None)
        code = run(argv)
        captured = capsys.readouterr()
        fresh.append((code, captured.out, captured.err))
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    reused = []
    for argv in _SESSION + _SESSION:
        code = run(argv)
        captured = capsys.readouterr()
        reused.append((code, captured.out, captured.err))
    assert reused == fresh + fresh


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    assert [run(argv) for argv in _SESSION] == [0, 2, 0]
    assert len(calls) == 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = subprocess.run(
        [sys.executable, "-c", "import qktw.cli as c; print(c._PARSER)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert probe.stdout == "None\n"  # importing builds nothing


def reference_run(argv):
    """``run`` as it parsed before a known command went to its own parser:
    the top-level parser classifies every argument, then the subparser
    parses them again."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else cli.EXIT_USAGE
    return cli._DISPATCH[args.command](args)


_NKT = ["-n", "4", "-k", "2", "-t", "1"]
_VERDICT = ["verdict", "-q", "2", *_NKT]

_PARSE_CASES = [
    [], ["-h"], ["--he"], ["nope"], ["nope", "-q", "2"],
    ["gen", "-q", "2", *_NKT, "-o", "k.gr", "--labels", "k.lab"],
    ["gen", "--quadric", "-q", "2", "--output=k.gr"],
    _VERDICT,
    ["alpha", "-q", "2", *_NKT, "--max-vertices", "10"],
    ["td-build", "-q", "2", *_NKT, "-o", "k.td", "--gr", "k.gr"],
    ["td-validate", "k.gr", "k.td"],
    ["tw-exact", "k.gr", "-o", "k.td", "--max-vertices", "5"],
    ["verify", "grid", "-q", "3", "--claims", "i,ii", "--tuples", "4"],
    ["verify-all", "-o", "report.json"],
    *([command, "-h"] for command in cli._DISPATCH),
    ["verdict", "-q", "2", *_NKT, "--help"],
    ["verdict", "-q", "2", "-n", "4"],  # -k and -t missing
    ["td-validate", "k.gr"],
    ["verify"],
    ["verify", "nosuch"],
    ["verdict", "-q", "x", *_NKT],
    ["alpha", "-q", "2", *_NKT, "--max-vertices", "-1"],
    ["tw-exact", "k.gr", "--max-vertices", "-3"],
    [*_VERDICT, "extra", "more"],
    ["verify-all", "extra"],
    [*_VERDICT, "--bogus"],
    ["verdict", "-x", *_NKT],
    [*_VERDICT, "--out", "v.json"],
    ["alpha", "-q", "2", *_NKT, "--max-v", "7"],
    [*_VERDICT, "--output"],  # no value
    ["verdict", "-q2", "-n4", "-k2", "-t1"],
    ["verdict", "-q", "2", "-q", "3", *_NKT],
    ["--", "verdict"],
    ["verdict", "--", "-q"],
    ["verdict", "--", "-q", "2", *_NKT],
    ["verify", "--", "grid"],
    ["-x", "verdict"],
    ["-h", "verdict"],
]


def echo_args(args):
    print(sorted(vars(args).items()))
    return cli.EXIT_OK


def test_one_parse_gives_what_the_top_level_parse_gave(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_DISPATCH", dict.fromkeys(cli._DISPATCH, echo_args))
    codes = set()
    for argv in _PARSE_CASES:
        got = run(argv)
        got_out, got_err = capsys.readouterr()
        want = reference_run(argv)
        want_out, want_err = capsys.readouterr()
        assert (got, got_out, got_err) == (want, want_out, want_err), argv
        codes.add(got)
    assert codes == {0, 2}


class TopLevelParse(Exception):
    pass


def test_a_known_command_never_reaches_the_top_level_parse(capsys, monkeypatch):
    expected = json.dumps(treewidth_verdict(KneserParams(2, 4, 2, 1)).to_json(), indent=2) + "\n"
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_PARSER", parser)

    def refuse(*args, **kwargs):
        raise TopLevelParse

    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    assert run(_VERDICT) == 0
    assert capsys.readouterr().out == expected
    for argv in ([], ["-h"], ["nope"], ["--", "verdict"]):
        with pytest.raises(TopLevelParse):
            run(argv)


def test_verdict_prints_the_verdict_json_byte_for_byte(capsys):
    # t < k and n in 2k-t+1..2k+60 as the benchmark's formula sweep draws
    # them, at q <= 64 and k <= 12
    rng = random.Random(32)
    qs = [q for q in range(2, 65) if is_prime_power(q)]
    cases = [(3, 7, 4, 2)]  # n < 2k: reflected through duality
    while len(cases) < 200:
        q, k = rng.choice(qs), rng.randint(2, 12)
        t = rng.randint(1, k - 1)
        cases.append((q, rng.randint(2 * k - t + 1, 2 * k + 60), k, t))
    for q, n, k, t in cases:
        assert run(["verdict", "-q", str(q), "-n", str(n), "-k", str(k), "-t", str(t)]) == 0
        expected = json.dumps(treewidth_verdict(KneserParams(q, n, k, t)).to_json(), indent=2)
        assert capsys.readouterr().out == expected + "\n"


def stub_reports():
    return [
        SuiteReport("first", [CheckCase({"q": 2}, 3, 3), CheckCase({"q": 3}, 2**60, 1, False)]),
        SuiteReport("second", [CheckCase({"graph": "p"}, 1, 1)]),
    ]


def test_verify_all_json_on_stub_reports():
    reports = stub_reports()
    assert verify_all_json(reports) == {
        "suites": [r.to_json() for r in reports],
        "summary": {"suites": 2, "cases": 3, "failed": 1},
    }
    assert verify_all_json([])["summary"] == {"suites": 0, "cases": 0, "failed": 0}


def test_verify_all_script_writes_the_cli_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_all", stub_reports)
    assert run(["verify-all", "-o", str(tmp_path / "cli.json")]) == 1
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_verify_all.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("run_verify_all", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "verify_all", stub_reports)
    monkeypatch.setattr(sys, "argv", ["run_verify_all.py", str(tmp_path / "script.json")])
    assert module.main() == 1
    assert "total: 3 cases, 1 failed" in capsys.readouterr().out
    assert (tmp_path / "script.json").read_bytes() == (tmp_path / "cli.json").read_bytes()


# SHA-256 of the whole verify-all report (870,492 bytes): every suite of the
# real matrix, end to end, byte for byte.
_VERIFY_ALL_DIGEST = "967b2905c75b43d6f6ff304ce36859ee324a3efb2c4ad749d4e6e3b544d7590e"
# The same report before the perp-census cases carried "sections_examined",
# the count at the representative point, beside "sections_checked".
_DIGEST_WITHOUT_EXAMINED = "0e25ffdd1ac3e6229dc92ef3fc7a8a987af31c0a76dd1d272e7760055dec0386"


@pytest.fixture(scope="module")
def verify_all_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify-all") / "report.json"
    assert run(["verify-all", "-o", str(out)]) == 0
    return out.read_bytes()


def test_verify_all_report_matches_the_pinned_digest(verify_all_report):
    assert hashlib.sha256(verify_all_report).hexdigest() == _VERIFY_ALL_DIGEST


def test_verify_all_report_differs_only_by_the_examined_counts(verify_all_report):
    payload = json.loads(verify_all_report)
    (census,) = [s for s in payload["suites"] if s["suite"] == "perp-census"]
    for case in census["cases"]:
        witness = case["witness"]
        assert 0 < witness.pop("sections_examined") <= witness["sections_checked"]
    text = json.dumps(payload, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _DIGEST_WITHOUT_EXAMINED
