"""Tests of the benchmark itself: its metric tables, BENCHMARK.json, the
tracer, and the output checks that feed ``failed``.

    PYTHONPATH=src python -m pytest benchmark/tests -q
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from speed import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

from qktw import cli, exact, kneser, treedec  # noqa: E402
from qktw.graph import petersen_graph  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric tables -------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    names += list(layers.PRINTED_ONLY) + [w["name"] for w in s["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)


def test_benchmark_json_matches_the_tables():
    s = spec()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in s["end_to_end"]] == [
        (name, *row) for name, row in layers.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in layers.LAYERS
    ]
    assert [(w["name"], w["why"]) for w in s["workloads"]] == list(layers.WORKLOADS.items())
    assert s["command"] == ["python3", "benchmark/run.py"] and s["paths"] == ["benchmark"]


def test_every_per_layer_metric_names_what_it_should_move():
    e2e = set(layers.END_TO_END) | set(layers.PRINTED_ONLY)
    moves = {name: m for name, _unit, _better, m in layers.LAYERS}
    for metric in spec()["per_layer"]:
        targets = moves[metric["name"]]
        assert targets, metric["name"]
        for target, workload in targets:
            assert target in e2e and workload in layers.WORKLOADS, (metric["name"], target)


def test_every_per_layer_metric_is_derived():
    values = layers.layer_values({}, {}, SimpleNamespace(hits=0, misses=0))
    assert set(values) | {"trace.overhead_s"} == {name for name, *_ in layers.LAYERS}


# -- tracer --------------------------------------------------------------------------


def test_self_time_excludes_traced_children():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02))
    outer = tr.wrap("outer", lambda: (inner(), time.sleep(0.02)))
    outer()
    totals = tr.totals()
    assert totals["outer"][0] == totals["inner"][0] == 1
    assert totals["outer"][2] == totals["inner"][1]  # outer's child time is inner's busy
    assert totals["outer"][1] - totals["outer"][2] >= 0.02


def test_install_rebinds_every_importer_and_uninstall_restores():
    import qktw.kneser
    import qktw.subspace

    original = qktw.subspace.intersect_dim
    tr = Tracer()
    tr.install()
    try:
        assert not tr.missing
        assert qktw.kneser.intersect_dim is qktw.subspace.intersect_dim is not original
        g = qktw.kneser.build_kneser_graph(qktw.kneser.KneserParams(2, 4, 2, 1))
        values = layers.layer_values(tr.totals(), tr.counters, SimpleNamespace(hits=1, misses=1))
    finally:
        tr.uninstall()
    assert qktw.kneser.intersect_dim is original
    assert values["kneser.build.calls"] == 1
    assert values["kneser.build.pairs"] == 35 * 34 // 2 == values["subspace.intersect_dim.calls.q2"]
    assert values["graph.edges"] == g.edge_count


def test_sampler_time_is_left_out_of_latencies():
    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass

    with Sampler() as sampler:
        rec = worker.Recorder(None, sampler)
        t0 = time.perf_counter()
        rec.op("busy", busy)
        elapsed = time.perf_counter() - t0
    assert len(sampler.samples) >= 2 and sampler.spent > 0
    assert abs(rec.latencies[0] + sampler.spent - elapsed) < 0.01
    assert sampler.scale() > 0


# -- inputs --------------------------------------------------------------------------


def test_inputs_follow_the_seed(tmp_path):
    def manifest(seed, name):
        d = tmp_path / name
        d.mkdir()
        return json.loads(inputs.make_inputs("formula-sweep", seed, d).read_text())

    first = manifest(1, "a")
    assert first == manifest(1, "b")
    assert first["requests"] != manifest(2, "c")["requests"]


def test_own_formula_matches_known_values():
    assert inputs.gauss(4, 2, 2) == 35 and inputs.formula(2, 4, 2, 1) == 27
    assert inputs.formula(2, 5, 3, 2) == inputs.formula(2, 5, 2, 1) == 139


# -- corrupted outputs count as failures ---------------------------------------------


def _drop_one_bag_vertex(td_path: Path) -> None:
    """Drop a vertex that occurs in a single bag, keeping the file parsable."""
    lines = td_path.read_text().splitlines()
    bags = {i: line.split()[2:] for i, line in enumerate(lines) if line.startswith("b ")}
    occurrences = [v for vs in bags.values() for v in vs]
    i, v = next((i, v) for i, vs in bags.items() for v in vs if occurrences.count(v) == 1)
    parts = lines[i].split()
    lines[i] = " ".join(parts[:2] + [x for x in parts[2:] if x != v])
    header = lines[0].split()
    header[3] = str(max(len(line.split()) - 2 for line in lines if line.startswith("b ")))
    lines[0] = " ".join(header)
    td_path.write_text("\n".join(lines) + "\n")


def test_tw_exact_with_a_dropped_bag_vertex_fails(tmp_path):
    g = petersen_graph()
    gr, td_path = tmp_path / "p.gr", tmp_path / "p.td"
    treedec.pace_write_gr(g, gr)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.run(["tw-exact", str(gr), "-o", str(td_path)])
    value = (rc, out.getvalue(), "")
    assert worker.check_tw(g, value, td_path, 4) == []
    _drop_one_bag_vertex(td_path)
    assert worker.guarded(worker.check_tw, g, value, td_path, 4)


def test_graph_round_trip_with_a_dropped_bag_vertex_fails(tmp_path):
    p = kneser.KneserParams(2, 4, 2, 1)
    g = kneser.build_kneser_graph(p)
    index = {s: i for i, s in enumerate(g.labels)}
    td = treedec.star_decomposition(g, [index[s] for s in kneser.star_independent_set(p)])
    labels = [s.text() for s in g.labels]
    assert worker.check_graph(worker._round_trip(g, td, labels, tmp_path / "ok"), 35, 27, 27) == []
    bags = list(td.bags)
    bags[1] = bags[1][1:]
    broken = treedec.TreeDecomposition(tuple(bags), td.tree_edges)
    assert worker.check_graph(worker._round_trip(g, broken, labels, tmp_path / "bad"), 35, 27, 27)


def _verdict(q, n, k, t):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.run(["verdict", "-q", str(q), "-n", str(n), "-k", str(k), "-t", str(t)])
    counting = kneser.counting_inequality_check(kneser.KneserParams(q, n, k, t))
    return rc, out.getvalue(), err.getvalue(), counting


def test_verdict_with_a_wrong_formula_value_fails():
    req = inputs.verdict_request(3, 11, 3, 1)
    assert req["ranges"]
    rc, text, err, counting = _verdict(3, 11, 3, 1)
    assert worker.check_verdict(req, (rc, text, err, counting)) == []
    payload = json.loads(text)
    payload["formula_value"] = str(int(payload["formula_value"]) + 1)
    assert worker.check_verdict(req, (rc, json.dumps(payload), err, counting))


def test_a_nonzero_exit_fails():
    req = inputs.verdict_request(2, 9, 4, 1)
    value = (2, "", "error: Exceeds the limit", None)
    assert worker.check_verdict(req, value) == ["exit code 2: error: Exceeds the limit"]


def test_formula_sweep_stays_within_the_digit_limit(tmp_path):
    requests = inputs._formula_sweep(1, tmp_path)["requests"]
    assert len(requests) == inputs.FORMULA_REQUESTS
    assert max(r["max_digits"] for r in requests) <= inputs.FORMULA_MAX_DIGITS == 4300


def test_bad_separator_and_mis_witnesses_fail():
    g = petersen_graph()
    sep = exact.min_balanced_separator(g)
    assert worker.check_separator(g, sep) == []
    assert worker.check_separator(g, sep.__class__(sep.size, sep.witness[:-1], sep.component_sizes))
    edges = list(g.edges())
    size, witness = exact.mis_exact(g)
    assert worker.check_mis(g.n, edges, size, witness) == []
    assert worker.check_mis(g.n, edges, size, witness[:-1] + edges[0][:1] + edges[0][1:])


def test_recorder_counts_raises_and_failed_checks():
    rec = worker.Recorder(None, Sampler())
    value, exc = rec.op("x", lambda: 1 // 0)
    rec.settle("x", worker._raised(exc))
    rec.op("y", lambda: None)
    rec.settle("y", ["too many digits"])
    rec.op("z", lambda: None)
    rec.settle("z", [])
    assert (rec.attempted, rec.failed, len(rec.problems)) == (3, 2, 2)


# -- the whole command ------------------------------------------------------------------


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "graph-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
