"""One pass of one workload, in a fresh interpreter.

    python3 benchmark/worker.py <inputs.json> <pass-dir> <result.json> <trace 0|1>

run.py starts this once per pass, so every pass begins with cold caches
and the interpreter's default int-to-str digit limit, as a CLI user's
process does.  The pass runs its operations closed loop (the next one
starts when the previous one has returned), checks every output, and
writes a result object.  Program calls go through module attributes
(``kneser.build_kneser_graph``, ``cli.run``) so the tracer's wrappers see
them.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from inputs import sha
from layers import layer_values
from speed import Sampler
from tracer import Tracer

VERIFY_ALL_SUITES = (
    "verdicts", "constructions", "independence", "klein", "duality", "grid",
    "gauss-bounds", "bridge", "parabola", "pair-count", "oracles",
    "perp-census", "counting", "formats",
)
MAIN_RANGES = ("SMALL_T_RANGE", "SQRT_RANGE")
MAX_PROBLEMS = 20


class Recorder:
    """Operation latencies, failure counts, problems and the output digest."""

    def __init__(self, tracer: Tracer | None, sampler: Sampler):
        self.tracer = tracer
        self.sampler = sampler
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def op(self, kind: str, call):
        """Run one operation; returns (value, exception)."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.attempted
        value = exc = None
        with tracer.span(f"op.{kind}") if tracer is not None else nullcontext():
            spent = self.sampler.spent
            t0 = time.perf_counter()
            try:
                value = call()
            except Exception as e:  # counted as a failed operation
                exc = e
            elapsed = time.perf_counter() - t0
            self.latencies.append(elapsed - (self.sampler.spent - spent))
        return value, exc

    def settle(self, label: str, problems: list[str]) -> None:
        """Count the operation as failed if it has problems."""
        if not problems:
            return
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def feed(self, *parts) -> None:
        for part in parts:
            self.digest.update(part if isinstance(part, bytes) else str(part).encode())
            self.digest.update(b"\0")

    def count(self, name: str, amount: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)


def cli_call(rec: Recorder, argv: list[str]) -> tuple[int, str, str]:
    from qktw import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.run(argv)
    text = out.getvalue()
    rec.count("report.bytes", len(text))
    return rc, text, err.getvalue()


def _raised(exc) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"] if exc is not None else []


def guarded(check, *args):
    """Run an output check; a check that raises (say, on unparsable
    output) reports a problem instead of ending the pass."""
    try:
        return check(*args)
    except Exception as e:
        return [f"output check raised {type(e).__name__}: {e}"]


# -- verify-matrix -------------------------------------------------------------


def check_verify_all(value, exc, report_path: Path) -> tuple[list[str], str]:
    """Problems with one verify-all call, and the digest of its exact content
    (suite names and each case's params, sides and verdict)."""
    if exc is not None:
        return _raised(exc), ""
    rc, text, err = value
    problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()[-200:]}"]
    try:
        written = report_path.read_text()
        payload = json.loads(written)
    except (OSError, ValueError) as e:
        return problems + [f"report file unreadable: {e}"], ""
    if written != text:
        problems.append("report file differs from the printed report")
    suites = payload.get("suites", [])
    names = tuple(s.get("suite") for s in suites)
    if names != VERIFY_ALL_SUITES:
        problems.append(f"suites {names} != {VERIFY_ALL_SUITES}")
    cases = 0
    canon = []
    for s in suites:
        failing = [c for c in s["cases"] if c.get("pass") is not True]
        if failing or s["summary"]["failed"] != 0 or s["summary"]["total"] != len(s["cases"]):
            problems.append(f"suite {s['suite']}: {len(failing)} failing cases")
        cases += len(s["cases"])
        canon.append([s["suite"], [[c["params"], c["lhs"], c["rhs"], c["pass"]] for c in s["cases"]]])
    summary = payload.get("summary", {})
    if summary != {"suites": len(VERIFY_ALL_SUITES), "cases": cases, "failed": 0}:
        problems.append(f"summary {summary} disagrees with the cases")
    return problems, sha(json.dumps(canon, sort_keys=True))


def verify_matrix(manifest: dict, work: Path, rec: Recorder) -> None:
    report = work / "report.json"
    value, exc = rec.op("verify-all", lambda: cli_call(rec, ["verify-all", "-o", str(report)]))
    checked = guarded(check_verify_all, value, exc, report)
    problems, digest = checked if isinstance(checked, tuple) else (checked, "")
    rec.settle("verify-all", problems)
    rec.feed(digest)


# -- graph-build ---------------------------------------------------------------------


def _round_trip(g, td, label_lines: list[str], stem: Path) -> dict:
    """Validate, write .gr/.labels/.td, read back, validate again."""
    from qktw import treedec

    before = treedec.validate_td(g, td)
    gr, labels, tdp = (stem.with_suffix(s) for s in (".gr", ".labels", ".td"))
    treedec.pace_write_gr(g, gr)
    labels.write_text("\n".join(f"{i + 1} {s}" for i, s in enumerate(label_lines)) + "\n")
    treedec.pace_write_td(td, g.n, tdp)
    g2 = treedec.pace_read_gr(gr)
    td2, declared = treedec.pace_read_td(tdp)
    after = treedec.validate_td(g2, td2)
    return {"g": g, "td": td, "before": before, "g2": g2, "td2": td2,
            "declared": declared, "after": after, "files": (gr, labels, tdp)}


def check_graph(out: dict, vertices: int, width: int, verdict_width: int | None) -> list[str]:
    problems = []
    g, td = out["g"], out["td"]
    if g.n != vertices:
        problems.append(f"{g.n} vertices, expected {vertices}")
    if td.width() != width:
        problems.append(f"star width {td.width()}, formula {width}")
    if verdict_width is not None and verdict_width != width:
        problems.append(f"verdict formula_value {verdict_width}, own formula {width}")
    if not out["before"].passed:
        problems.append("decomposition invalid before the round trip")
    if not out["after"].passed:
        problems.append("decomposition invalid after the round trip")
    if out["after"].width != width:
        problems.append(f"read-back width {out['after'].width}, formula {width}")
    if out["g2"] != g:
        problems.append("read-back graph differs from the built one")
    if out["td2"] != td or out["declared"] != g.n:
        problems.append("read-back decomposition differs from the built one")
    return problems


def graph_build(manifest: dict, work: Path, rec: Recorder) -> None:
    from qktw import kneser, quadric, treedec

    def kneser_instance(q, n, k, t, stem):
        p = kneser.KneserParams(q, n, k, t)
        g = kneser.build_kneser_graph(p)
        index = {s: i for i, s in enumerate(g.labels)}
        td = treedec.star_decomposition(g, [index[s] for s in kneser.star_independent_set(p)])
        out = _round_trip(g, td, [s.text() for s in g.labels], stem)
        out["verdict"] = kneser.treewidth_verdict(p).formula_value
        return out

    def quadric_instance(q, stem):
        # the Klein images of the canonical star of K_q(4,2,1) are the
        # points of a totally singular plane: a maximum independent set
        g = quadric.build_quadric_graph(q)
        index = {pt: i for i, pt in enumerate(g.labels)}
        star = kneser.star_independent_set(kneser.KneserParams(q, 4, 2, 1))
        td = treedec.star_decomposition(g, [index[quadric.klein_map(s)] for s in star])
        labels = [",".join(str(x) for x in pt) for pt in g.labels]
        return _round_trip(g, td, labels, stem)

    for inst in manifest["kneser"]:
        q, n, k, t = inst["params"]
        label = f"K_{q}({n},{k},{t})"
        stem = work / f"kneser-q{q}-n{n}-k{k}-t{t}"
        out, exc = rec.op("kneser", lambda: kneser_instance(q, n, k, t, stem))
        problems = _raised(exc) or guarded(
            check_graph, out, inst["vertices"], inst["width"], out["verdict"])
        rec.settle(label, problems)
        if out is not None:
            rec.feed(label, *(f.read_bytes() for f in out["files"]))
    for inst in manifest["quadric"]:
        q = inst["q"]
        label = f"quadric q={q}"
        out, exc = rec.op("quadric", lambda: quadric_instance(q, work / f"quadric-q{q}"))
        problems = _raised(exc) or guarded(check_graph, out, inst["vertices"], inst["width"], None)
        rec.settle(label, problems)
        if out is not None:
            rec.feed(label, *(f.read_bytes() for f in out["files"]))


# -- exact-solvers ------------------------------------------------------------------------


def check_tw(g, value, td_path: Path, oracle_width: int | None) -> list[str]:
    """One tw-exact call: exit code, printed JSON, and the written .td."""
    from qktw import treedec

    rc, text, err = value
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-200:]}"]
    payload = json.loads(text)
    problems = []
    try:
        td, declared = treedec.pace_read_td(td_path)
    except (OSError, ValueError) as e:
        return [f"written .td unreadable: {e}"]
    report = treedec.validate_td(g, td)
    if not report.passed or declared != g.n:
        problems.append("returned decomposition is invalid")
    if payload.get("vertices") != g.n:
        problems.append(f"vertices {payload.get('vertices')} != {g.n}")
    if td.width() != payload.get("treewidth") or td.node_count != payload.get("bags"):
        problems.append("printed treewidth or bag count disagrees with the .td")
    if oracle_width is not None and oracle_width != payload.get("treewidth"):
        problems.append(f"treewidth {payload.get('treewidth')} != all-orderings {oracle_width}")
    return problems


def check_separator(g, result) -> list[str]:
    from qktw import treedec

    witness = result.witness
    report = treedec.balanced_separator_check(g, witness)
    problems = []
    if not report.balanced:
        problems.append(f"separator {witness} is not balanced")
    if len(set(witness)) != result.size or report.separator_size != result.size:
        problems.append(f"separator size {result.size} != witness {witness}")
    if tuple(report.component_sizes) != tuple(result.component_sizes):
        problems.append("component sizes disagree with the re-check")
    return problems


def check_mis(n: int, edges, size: int, witness) -> list[str]:
    chosen = set(witness)
    problems = []
    if len(chosen) != size or len(witness) != size:
        problems.append(f"witness {witness} does not have size {size}")
    if any(not 0 <= v < n for v in chosen):
        problems.append("witness has vertices outside the graph")
    if any(u in chosen and v in chosen for u, v in edges):
        problems.append("witness is not independent")
    return problems


def exact_solvers(manifest: dict, work: Path, rec: Recorder) -> None:
    from qktw import exact, graph, treedec

    for i, req in enumerate(manifest["requests"]):
        kind, n, gr = req["kind"], req["n"], Path(manifest["inputs_dir"]) / req["file"]
        edges = [tuple(e) for e in req["edges"]]
        label = f"{kind} {req['file']}"
        if kind == "tw":
            td_path = work / f"{i:02d}.td"
            value, exc = rec.op(kind, lambda: cli_call(rec, ["tw-exact", str(gr), "-o", str(td_path)]))
            if exc is not None:
                rec.settle(label, _raised(exc))
                continue
            g = graph.Graph.from_edges(n, edges)
            oracle = exact.treewidth_all_orderings(g) if req["oracle"] else None
            rec.settle(label, guarded(check_tw, g, value, td_path, oracle))
            rec.feed(label, value[1], td_path.read_bytes() if td_path.exists() else b"")
            continue
        solve = exact.min_balanced_separator if kind == "sep" else exact.mis_exact

        def read_and_solve():
            g = treedec.pace_read_gr(gr)
            return g, solve(g)

        value, exc = rec.op(kind, read_and_solve)
        if exc is not None:
            rec.settle(label, _raised(exc))
            continue
        g, result = value
        problems = [] if g == graph.Graph.from_edges(n, edges) else ["read-back graph differs"]
        if kind == "sep":
            problems += guarded(check_separator, g, result)
            rec.feed(label, result.size, result.witness, result.component_sizes)
        else:
            problems += guarded(check_mis, n, edges, *result)
            rec.feed(label, *result)
        rec.settle(label, problems)


# -- formula-sweep -------------------------------------------------------------------------


def check_verdict(req: dict, value) -> list[str]:
    """Problems with one verdict request."""
    rc, text, err, counting = value
    problems = []
    if counting is not None:
        if not counting.passed:
            problems.append("counting inequality fails inside a certified range")
        if [counting.params.q, counting.params.n, counting.params.k, counting.params.t] != req["reduced"]:
            problems.append("counting check analysed other parameters")
    if rc != 0:
        return problems + [f"exit code {rc}: {err.strip()[-200:]}"]
    payload = json.loads(text)
    rq, rn, rk, rt = req["reduced"]
    if payload.get("params") != {"q": rq, "n": rn, "k": rk, "t": rt}:
        problems.append(f"params {payload.get('params')} != reduced {req['reduced']}")
    if sha(payload.get("formula_value", "")) != req["formula_sha256"]:
        problems.append("formula_value differs from the product formula")
    ranges = [tag for tag in MAIN_RANGES if tag in payload.get("applicable", ())]
    if ranges != req["ranges"]:
        problems.append(f"certified ranges {ranges} != {req['ranges']}")
    return problems


def formula_sweep(manifest: dict, work: Path, rec: Recorder) -> None:
    from qktw import kneser

    for req in manifest["requests"]:
        q, n, k, t = req["params"]
        argv = ["verdict", "-q", str(q), "-n", str(n), "-k", str(k), "-t", str(t)]

        def request():
            rc, text, err = cli_call(rec, argv)
            counting = None
            if req["ranges"]:
                counting = kneser.counting_inequality_check(kneser.KneserParams(q, n, k, t))
            return rc, text, err, counting

        value, exc = rec.op("verdict", request)
        if exc is not None:
            rec.settle(str(argv), _raised(exc))
            continue
        rec.settle(str(argv), guarded(check_verdict, req, value))
        rec.feed(value[0], value[1])


PASSES = {
    "verify-matrix": verify_matrix,
    "graph-build": graph_build,
    "exact-solvers": exact_solvers,
    "formula-sweep": formula_sweep,
}


def main(argv: list[str]) -> int:
    manifest_path, pass_dir, result_path, trace = argv
    limit_at_start = sys.get_int_max_str_digits()
    if limit_at_start != sys.int_info.default_max_str_digits:
        print(f"int-to-str digit limit is {limit_at_start} at start", file=sys.stderr)
        return 3
    manifest = json.loads(Path(manifest_path).read_text())
    manifest["inputs_dir"] = str(Path(manifest_path).parent)
    work = Path(pass_dir)
    work.mkdir(parents=True, exist_ok=True)
    import qktw
    import qktw.cli  # noqa: F401  (imports are set-up, not pass time)

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    with Sampler() as sampler:
        rec = Recorder(tracer, sampler)
        t0 = time.perf_counter()
        PASSES[manifest["workload"]](manifest, work, rec)
        wall = time.perf_counter() - t0 - sampler.spent
    result = {
        "wall_s": wall * sampler.scale(),
        "wall_raw_s": wall,
        "latencies_s": rec.latencies,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems[:MAX_PROBLEMS],
        "problem_count": len(rec.problems),
        "digest": rec.digest.hexdigest(),
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "int_max_str_digits_at_start": limit_at_start,
        "int_max_str_digits_at_end": sys.get_int_max_str_digits(),
        "qktw_version": qktw.__version__,
        "qktw_file": qktw.__file__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        gauss_info = tracer.originals["qktw.qbinom.gauss_binom"].cache_info()
        result["layers"] = layer_values(tracer.totals(), tracer.counters, gauss_info)
        result["missing_bindings"] = tracer.missing
        spans = work / "spans.json"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
