"""Spans and counters recorded around calls into qktw's public functions.

The tracer replaces module-level bindings (and a few class attributes)
with thin wrappers, so every caller that looks the name up at call time
goes through the wrapper: patching ``qktw.subspace.intersect_dim`` also
patches ``qktw.kneser.intersect_dim`` and every other module that
imported the same function object.  Nothing under ``src/`` changes.

Per span name the tracer keeps the call count, the inclusive time
(``busy``) and the time covered by traced child spans, so self time is
``busy - child``.  Individual spans are kept in memory up to
``SPAN_DEPTH`` levels below an operation and ``SPAN_CAP`` in total, and
written out once at the end; deeper and later spans are aggregated only.
``qktw.suites`` runs some sweeps on a thread pool, so span stacks and
totals are per thread and summed at the end (``busy`` sums over threads).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

SPAN_DEPTH = 3
SPAN_CAP = 50_000

SUITE_FUNCTIONS = {
    "verdict_suite": "verdicts",
    "construction_suite": "constructions",
    "independence_suite": "independence",
    "klein_suite": "klein",
    "duality_suite": "duality",
    "grid_suite": "grid",
    "gauss_bounds_suite": "gauss-bounds",
    "bridge_suite": "bridge",
    "parabola_suite": "parabola",
    "pair_count_suite": "pair-count",
    "oracle_suite": "oracles",
    "perp_census_suite": "perp-census",
    "counting_suite": "counting",
    "format_suite": "formats",
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _intersect_key(args, kwargs):
    u = _first_arg(args, kwargs, "u")
    return "subspace.intersect_dim.q2" if u.field.q == 2 else "subspace.intersect_dim.gfq"


# (span name, module, attribute path, after-hook) -- the hook receives
# (tracer, args, kwargs, result) and records work counters.
TIMED = [
    ("gf.make_field", "qktw.gf", "make_field", None),
    ("subspace.intersect_dim", "qktw.subspace", "intersect_dim", None),
    ("subspace.enumerate", "qktw.subspace", "enumerate_k_subspaces",
     lambda tr, a, kw, r: tr.count("subspace.enumerate.subspaces", len(r))),
    ("subspace.subspaces_of", "qktw.subspace", "subspaces_of", None),
    ("subspace.rref_canonical", "qktw.subspace", "rref_canonical", None),
    ("subspace.nullspace_rows", "qktw.subspace", "nullspace_rows", None),
    ("subspace.orthogonal_complement", "qktw.subspace", "orthogonal_complement", None),
    ("kneser.build", "qktw.kneser", "build_kneser_graph",
     lambda tr, a, kw, r: tr.count("kneser.build.pairs", r.n * (r.n - 1) // 2)),
    ("kneser.star_set", "qktw.kneser", "star_independent_set", None),
    ("kneser.duality", "qktw.kneser", "duality_isomorphism",
     lambda tr, a, kw, r: tr.count("kneser.duality.pairs", r.pairs_checked)),
    ("kneser.verdict", "qktw.kneser", "treewidth_verdict", None),
    ("kneser.counting", "qktw.kneser", "counting_inequality_check", None),
    ("qbinom.gauss_binom", "qktw.qbinom", "gauss_binom", None),
    ("qbinom.gauss_bounds", "qktw.qbinom", "check_gauss_bounds", None),
    ("qbinom.parabola", "qktw.qbinom", "parabola_tail_check", None),
    ("qbinom.bridge", "qktw.qbinom", "bridge_inequality_check", None),
    ("quadric.model", "qktw.quadric", "QuadricModel.__init__", None),
    ("quadric.build_graph", "qktw.quadric", "build_quadric_graph", None),
    ("quadric.census", "qktw.quadric", "perp_section_census",
     lambda tr, a, kw, r: tr.count(
         "quadric.census.sections", sum(c.checked for c in r.claims.values()))),
    ("quadric.section", "qktw.quadric", "QuadricModel.section", None),
    ("quadric.perp_space", "qktw.quadric", "QuadricModel.perp_space", None),
    ("quadric.klein", "qktw.quadric", "verify_klein_isomorphism",
     lambda tr, a, kw, r: tr.count("quadric.klein.pairs", r.pairs_checked)),
    ("quadric.grid", "qktw.quadric", "grid_extremal_search", None),
    ("graph.components", "qktw.graph", "components", None),
    ("graph.complement", "qktw.graph", "Graph.complement", None),
    ("treedec.star", "qktw.treedec", "star_decomposition", None),
    ("treedec.validate", "qktw.treedec", "validate_td",
     lambda tr, a, kw, r: tr.count(
         "treedec.validate.edges", _first_arg(a, kw, "g").edge_count)),
    ("treedec.write_gr", "qktw.treedec", "pace_write_gr",
     lambda tr, a, kw, r: tr.count("treedec.write_gr.bytes", _file_size(a[1]))),
    ("treedec.write_td", "qktw.treedec", "pace_write_td",
     lambda tr, a, kw, r: tr.count("treedec.write_td.bytes", _file_size(a[2]))),
    ("treedec.read_gr", "qktw.treedec", "pace_read_gr",
     lambda tr, a, kw, r: tr.count("treedec.read_gr.bytes", _file_size(a[0]))),
    ("treedec.read_td", "qktw.treedec", "pace_read_td", None),
    ("exact.treewidth", "qktw.exact", "treewidth_exact",
     lambda tr, a, kw, r: tr.count(
         "exact.treewidth.subsets", (1 << _first_arg(a, kw, "g").n) - 1)),
    ("exact.all_orderings", "qktw.exact", "treewidth_all_orderings", None),
    ("exact.mis", "qktw.exact", "mis_exact", None),
    ("exact.separator", "qktw.exact", "min_balanced_separator", None),
    ("report.render", "qktw.report", "SuiteReport.to_json", None),
    ("report.render", "qktw.kneser", "TreewidthVerdict.to_json", None),
    ("report.render", "qktw.cli", "_emit", None),
    ("cli.run", "qktw.cli", "run",
     lambda tr, a, kw, r: tr.count(f"cli.exit.{r}", 1)),
    ("cli.build_parser", "qktw.cli", "build_parser", None),
] + [
    (f"suites.{suite}", "qktw.suites", fn, None) for fn, suite in SUITE_FUNCTIONS.items()
]

# Count-only wrappers: (counter name, module, attribute path).
COUNTED = [
    ("graph.edges", "qktw.graph", "Graph.add_edge"),
]


class _ThreadState:
    __slots__ = ("stack", "stats", "spans")

    def __init__(self):
        self.stack: list[list] = []  # frames: [child_time, span_id]
        self.stats: dict[str, list] = {}  # name -> [calls, busy, child]
        self.spans: list[tuple] = []


class Tracer:
    """Installs the wrappers; collects spans, totals and counters."""

    def __init__(self):
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = iter(range(1, sys.maxsize))
        self.counters: dict[str, float] = {}
        self.op_id = 0
        self.span_count = 0
        self.spans_dropped = 0
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState()
            self._tls.state = state
            self._states.append(state)
            return state

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _record(self, state, name, frame, parent, t0, t1) -> None:
        dt = t1 - t0
        entry = state.stats.get(name)
        if entry is None:
            entry = state.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dt
        entry[2] += frame[0]
        if parent is not None:
            parent[0] += dt
        depth = len(state.stack)
        if depth <= SPAN_DEPTH:
            if self.span_count < SPAN_CAP:
                self.span_count += 1
                state.spans.append(
                    (self.op_id, frame[1], parent[1] if parent else 0, name, t0, t1)
                )
            else:
                self.spans_dropped += 1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def wrap(self, name, fn, after=None, key=None):
        perf = time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self._record(
                    state, key(args, kwargs) if key else name, frame, parent, t0, t1
                )
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install_one(self, module_name, path, make):
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_name.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        self.originals[f"{module_name}.{path}"] = original
        wrapper = make(original)
        if owner_name:  # a class attribute: one binding
            self._set(owner, attr, wrapper)
            return
        # a function: rebind it in every qktw module that imported it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qktw" or mod_name.startswith("qktw.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, binding, wrapper)

    def install(self) -> None:
        import qktw.cli  # noqa: F401  (loads every module before patching)

        for name, module_name, path, after in TIMED:
            key = _intersect_key if name == "subspace.intersect_dim" else None
            self._install_one(
                module_name, path,
                lambda fn, name=name, after=after, key=key: self.wrap(name, fn, after, key),
            )
        for name, module_name, path in COUNTED:
            self._install_one(module_name, path, lambda fn, name=name: self.wrap_count(name, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for state in self._states:
            for name, (calls, busy, child) in state.stats.items():
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += child
        return out

    def write_spans(self, path) -> None:
        spans = [s for state in self._states for s in state.spans]
        spans.sort(key=lambda s: s[4])
        payload = {
            "fields": ["op", "span", "parent", "name", "start_s", "end_s"],
            "spans": spans,
            "spans_dropped": self.spans_dropped,
            "totals": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[1] - v[2]}
                       for k, v in sorted(self.totals().items())},
            "counters": dict(sorted(self.counters.items())),
            "missing_bindings": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        state = self.tracer._state()
        self.parent = state.stack[-1] if state.stack else None
        self.frame = [0.0, next(self.tracer._ids)]
        state.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        state = self.tracer._state()
        state.stack.pop()
        self.tracer._record(state, self.name, self.frame, self.parent, self.t0, t1)
        return False
