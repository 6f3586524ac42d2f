"""The benchmark's metric tables: workloads, end-to-end metrics, per-layer
metrics, and which end-to-end metric on which workload each per-layer
metric should move.

BENCHMARK.json at the repository root carries the names, units,
directions and bounds; its format has no room for the "moves" column, so
that column lives here and ``tests/test_perfbench.py`` keeps the two in
step.
"""

from __future__ import annotations

WORKLOADS = {
    "verify-matrix": "the full verify-all matrix through the CLI, report written; "
    "the certifier's headline job, dominated by quadric and small-subspace work",
    "graph-build": "Kneser and quadric graphs built, star-decomposed, written as PACE, "
    "read back and validated; per-pair adjacency on the q=2 XOR and the table paths",
    "exact-solvers": "seeded random PACE graphs through tw-exact, balanced separators and "
    "MIS; exact, graph and treedec work with no subspace or quadric code",
    "formula-sweep": "seeded qktw verdict requests with counting checks up to q=251, k=30; "
    "big-int Gaussian binomials and exact JSON rendering, up to the 4300-digit limit",
}

DEFAULT_SEED = 1
SECOND_SEED = 2

# name: (unit, better, bound) -- the metrics every untraced run reports.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.1),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

# Printed in the summary lines, not in the result object: they are zero
# or undefined on some workloads, so no bound can be fixed for them.
PRINTED_ONLY = {
    "failed_frac": "ratio",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
}

_FS = "formula-sweep"
_GB = "graph-build"
_VM = "verify-matrix"
_ES = "exact-solvers"

_SUBSPACE = (("wall_s", _GB), ("wall_s", _VM))
_VERDICT = (("verdict_p50_ms", _FS), ("verdict_p99_ms", _FS), ("wall_s", _FS))
_TREEDEC = (("wall_s", _GB), ("wall_s", _ES))
_EXACT = (("wall_s", _ES), ("wall_s", _VM))
_CLI = (("verdict_p50_ms", _FS), ("failed_frac", _FS))

# (name, unit, better, moves)
LAYERS = [
    ("gf.make_field.calls", "count", "lower", (("setup_s", _GB), ("wall_s", _GB))),
    ("gf.make_field.busy_s", "s", "lower", (("setup_s", _GB), ("wall_s", _GB))),
    ("subspace.intersect_dim.calls.q2", "count", "lower", _SUBSPACE),
    ("subspace.intersect_dim.calls.gfq", "count", "lower", _SUBSPACE),
    ("subspace.intersect_dim.busy_s.q2", "s", "lower", _SUBSPACE),
    ("subspace.intersect_dim.busy_s.gfq", "s", "lower", _SUBSPACE),
    ("subspace.intersect_dim.us_per_call.q2", "us", "lower", _SUBSPACE),
    ("subspace.intersect_dim.us_per_call.gfq", "us", "lower", _SUBSPACE),
    ("subspace.enumerate.calls", "count", "lower", _SUBSPACE),
    ("subspace.enumerate.busy_s", "s", "lower", _SUBSPACE),
    ("subspace.enumerate.subspaces", "count", "lower", _SUBSPACE),
    ("subspace.subspaces_of.calls", "count", "lower", _SUBSPACE),
    ("subspace.subspaces_of.busy_s", "s", "lower", _SUBSPACE),
    ("subspace.rref_canonical.calls", "count", "lower", _SUBSPACE),
    ("subspace.rref_canonical.busy_s", "s", "lower", _SUBSPACE),
    ("subspace.nullspace_rows.calls", "count", "lower", _SUBSPACE),
    ("subspace.nullspace_rows.busy_s", "s", "lower", _SUBSPACE),
    ("subspace.orthogonal_complement.calls", "count", "lower", _SUBSPACE),
    ("subspace.orthogonal_complement.busy_s", "s", "lower", _SUBSPACE),
    ("kneser.build.calls", "count", "lower", (("wall_s", _GB),)),
    ("kneser.build.self_s", "s", "lower", (("wall_s", _GB),)),
    ("kneser.build.pairs", "count", "lower", (("wall_s", _GB),)),
    ("kneser.build.pairs_per_s", "1/s", "higher", (("wall_s", _GB),)),
    ("kneser.star_set.busy_s", "s", "lower", (("wall_s", _GB),)),
    ("kneser.duality.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("kneser.duality.pairs", "count", "lower", (("wall_s", _VM),)),
    ("kneser.verdict.calls", "count", "lower", _VERDICT),
    ("kneser.verdict.busy_s", "s", "lower", _VERDICT),
    ("kneser.counting.calls", "count", "lower", _VERDICT),
    ("kneser.counting.busy_s", "s", "lower", _VERDICT),
    ("qbinom.gauss_binom.hits", "count", "higher", _VERDICT),
    ("qbinom.gauss_binom.misses", "count", "lower", _VERDICT),
    ("qbinom.gauss_binom.hit_ratio", "ratio", "higher", _VERDICT),
    ("qbinom.gauss_binom.busy_s", "s", "lower", _VERDICT),
    ("qbinom.gauss_bounds.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("qbinom.parabola.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("qbinom.bridge.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("quadric.model.calls", "count", "lower", (("wall_s", _GB),)),
    ("quadric.model.busy_s", "s", "lower", (("wall_s", _GB),)),
    ("quadric.build_graph.busy_s", "s", "lower", (("wall_s", _GB),)),
    ("quadric.census.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("quadric.census.sections", "count", "lower", (("wall_s", _VM),)),
    ("quadric.census.us_per_section", "us", "lower", (("wall_s", _VM),)),
    ("quadric.section.calls", "count", "lower", (("wall_s", _VM),)),
    ("quadric.section.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("quadric.perp_space.calls", "count", "lower", (("wall_s", _VM),)),
    ("quadric.perp_space.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("quadric.klein.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("quadric.klein.pairs", "count", "lower", (("wall_s", _VM),)),
    ("quadric.grid.busy_s", "s", "lower", (("wall_s", _VM),)),
    ("graph.edges", "count", "lower", (("wall_s", _ES), ("wall_s", _GB))),
    ("graph.components.calls", "count", "lower", (("wall_s", _ES),)),
    ("graph.components.busy_s", "s", "lower", (("wall_s", _ES),)),
    ("graph.complement.busy_s", "s", "lower", (("wall_s", _ES),)),
    ("treedec.star.busy_s", "s", "lower", _TREEDEC),
    ("treedec.validate.busy_s", "s", "lower", _TREEDEC),
    ("treedec.validate.edges", "count", "lower", _TREEDEC),
    ("treedec.write_gr.busy_s", "s", "lower", _TREEDEC),
    ("treedec.write_gr.bytes", "bytes", "lower", _TREEDEC),
    ("treedec.write_td.busy_s", "s", "lower", _TREEDEC),
    ("treedec.write_td.bytes", "bytes", "lower", _TREEDEC),
    ("treedec.read_gr.busy_s", "s", "lower", _TREEDEC),
    ("treedec.read_gr.bytes", "bytes", "lower", _TREEDEC),
    ("treedec.read_td.busy_s", "s", "lower", _TREEDEC),
    ("exact.treewidth.calls", "count", "lower", _EXACT),
    ("exact.treewidth.busy_s", "s", "lower", _EXACT),
    ("exact.treewidth.subsets", "count", "lower", _EXACT),
    ("exact.treewidth.subsets_per_s", "1/s", "higher", _EXACT),
    ("exact.all_orderings.calls", "count", "lower", _EXACT),
    ("exact.all_orderings.busy_s", "s", "lower", _EXACT),
    ("exact.mis.calls", "count", "lower", _EXACT),
    ("exact.mis.busy_s", "s", "lower", _EXACT),
    ("exact.separator.calls", "count", "lower", _EXACT),
    ("exact.separator.busy_s", "s", "lower", _EXACT),
] + [
    (f"suites.{suite}.wall_s", "s", "lower", (("wall_s", _VM),))
    for suite in (
        "verdicts", "constructions", "independence", "klein", "duality", "grid",
        "gauss-bounds", "bridge", "parabola", "pair-count", "oracles",
        "perp-census", "counting", "formats",
    )
] + [
    ("report.render.busy_s", "s", "lower", (("wall_s", _VM), ("verdict_p50_ms", _FS))),
    ("report.bytes", "bytes", "lower", (("wall_s", _VM), ("verdict_p50_ms", _FS))),
    ("cli.run.calls", "count", "lower", _CLI),
    ("cli.build_parser.busy_s", "s", "lower", _CLI),
    ("cli.exit.0", "count", "higher", _CLI),
    ("cli.exit.1", "count", "lower", _CLI),
    ("cli.exit.2", "count", "lower", _CLI),
    ("cli.exit.3", "count", "lower", _CLI),
    # traced minus untraced median wall_s of the same run: the cost of
    # the wrappers, which every traced busy_s above includes
    ("trace.overhead_s", "s", "lower", tuple(("wall_s", w) for w in WORKLOADS)),
]


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_values(totals: dict, counters: dict, gauss_info) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from the tracer's
    totals ({span: [calls, busy, child]}), its counters, and the
    cache_info() of qktw.qbinom.gauss_binom."""
    calls = {k: v[0] for k, v in totals.items()}
    busy = {k: v[1] for k, v in totals.items()}
    child = {k: v[2] for k, v in totals.items()}
    out: dict[str, float] = {}
    for name, _unit, _better, _moves in LAYERS:
        span, _, kind = name.rpartition(".")
        if name.startswith("subspace.intersect_dim."):
            _, kind, path = name.rsplit(".", 2)
            span = f"subspace.intersect_dim.{path}"
            if kind == "us_per_call":
                out[name] = _per(busy.get(span, 0.0), calls.get(span, 0), 1e6)
            else:
                out[name] = (calls if kind == "calls" else busy).get(span, 0)
        elif kind == "calls":
            out[name] = calls.get(span, 0)
        elif kind in ("busy_s", "wall_s"):
            out[name] = busy.get(span, 0.0)
        elif kind == "self_s":
            out[name] = busy.get(span, 0.0) - child.get(span, 0.0)
        else:
            out[name] = counters.get(name, 0)
    out["kneser.build.pairs_per_s"] = _per(
        counters.get("kneser.build.pairs", 0), busy.get("kneser.build", 0.0))
    out["exact.treewidth.subsets_per_s"] = _per(
        counters.get("exact.treewidth.subsets", 0), busy.get("exact.treewidth", 0.0))
    out["quadric.census.us_per_section"] = _per(
        busy.get("quadric.census", 0.0), counters.get("quadric.census.sections", 0), 1e6)
    out["qbinom.gauss_binom.hits"] = gauss_info.hits
    out["qbinom.gauss_binom.misses"] = gauss_info.misses
    out["qbinom.gauss_binom.hit_ratio"] = _per(
        gauss_info.hits, gauss_info.hits + gauss_info.misses)
    out.pop("trace.overhead_s")
    return out
