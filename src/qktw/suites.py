"""Named verification sweeps shared by the CLI and the acceptance tests.

Each suite returns a SuiteReport of individually-verifiable cases with
exact sides, each computed by a single thread.  ``verify_all`` runs about
half of its 14 suites in one forked child process beside the rest (see
``_verify_all_plan``).  A suite's keyword
parameters are its ``verify`` options: ``qktw verify`` passes ``-q``,
``--claims`` and ``--tuples`` as ``q``, ``claims`` and ``tuples`` to a
suite whose signature names them and refuses them otherwise.  Every other
sweep is fixed.  The pair-count suite censuses vertex 0 against every
vertex, under GL(n,q) maps certified by :func:`graph.certify_collineations`.
"""

from __future__ import annotations

import os
import random
import tempfile
from pathlib import Path
from typing import Callable, Sequence

from .errors import BudgetExceededError
from .exact import mis_exact, treewidth_all_orderings, treewidth_by_decision
from .gf import make_field, prime_powers_up_to
from .graph import (
    GRAPH_MAX_VERTICES,
    Graph,
    certify_collineations,
    complete_graph,
    path_graph,
    petersen_graph,
)
from .kneser import (
    KneserParams,
    alpha_value,
    build_kneser_graph,
    counting_inequality_check,
    counting_sweep_params,
    duality_isomorphism,
    gl_generators,
    gl_vertex_maps,
    kneser_star_decomposition,
    treewidth_verdict,
)
from .qbinom import (
    bridge_inequality_check,
    check_gauss_bounds,
    gauss_binom,
    parabola_case_grid,
    parabola_tail_check,
)
from .quadric import (
    grid_extremal_search,
    perp_section_census,
    verify_klein_isomorphism,
)
from .report import CheckCase, SuiteReport
from .subspace import Subspace, enumerate_k_subspaces, held_subspaces
from .treedec import (
    pace_read_gr,
    pace_read_td,
    pace_write_gr,
    pace_write_td,
    validate_td,
)

ORACLE_SEED = 271828
ORACLE_GRAPH_COUNT = 200


# -- inequality suites -----------------------------------------------------------


def _orders(q: int | None, default: tuple[int, ...]) -> tuple[int, ...]:
    """The field orders a suite runs: ``q`` alone if given, else its default sweep."""
    return default if q is None else (q,)


def gauss_bounds_suite(q: int | None = None) -> SuiteReport:
    return SuiteReport(
        "gauss-bounds",
        [
            check_gauss_bounds(n, k, order)
            for order in _orders(q, (2, 3, 4, 5, 7, 8, 9))
            for n in range(9)
            for k in range(n + 1)
        ],
    )


def parabola_suite() -> SuiteReport:
    return SuiteReport(
        "parabola", [parabola_tail_check(*case) for case in parabola_case_grid()]
    )


def bridge_suite() -> SuiteReport:
    return SuiteReport("bridge", [bridge_inequality_check(q) for q in prime_powers_up_to(64)])


def vertex_census(verts: Sequence[Subspace]) -> tuple[list[list[int]], list[list[list[int]]]]:
    """The intersection census of vertex 0 against every vertex, under a
    certificate that it stands for every pair.

    ``verts`` are all the k-subspaces of F_q^n, in any fixed order.
    Returns (classes, columns): classes[s], for s = 0..k, lists the b with
    dim(verts[0] ∩ verts[b]) = s, ascending, and columns[t - 1][i][b], for
    t = 1..k and i = 0..t, is the number of pairs (x, y) of t-subspaces
    x of verts[0] and y of verts[b] with dim(x ∩ y) = i.

    :func:`held_subspaces` lifts each vertex's points once and knows every
    subspace the vertices hold by its point mask; nothing else is lifted.
    The points of x ∩ y are the common points of x and y, so x ∩ y has
    dimension d exactly when popcount(P(x) & P(y)) = [d,1]_q = (q^d -
    1)/(q - 1).  This gives dim(verts[0] ∩ verts[b]) from the vertices'
    point masks, and per t the histogram, by dimension, of each held y's
    meets with vertex 0's t-subspaces; a column is the sum of the
    histograms over b's t-subspaces.  x ∩ y lies in verts[0] ∩ verts[b],
    so a count above that dimension raises ArithmeticError.
    ``oracle_pair_censuses`` in the tests, one ``oracle_intersect_dim``
    per pair of t-subspaces, is the oracle.

    The census runs only after :func:`graph.certify_collineations` shows
    that each point map of :func:`kneser.gl_generators` (by
    :func:`kneser.gl_vertex_maps` on the held points) permutes all [n,1]_q
    points and maps every held line onto a line: a collineation
    (Hirschfeld, "Projective Geometries over Finite Fields", OUP 1998),
    which keeps every census.  The vertex maps, read off the vertices' own
    point masks, must carry vertex 0 to every vertex; a repeated vertex
    makes them no permutation.  At k = 1 there is no line, and any
    permutation keeps the census.
    """
    f, n, k = verts[0].field, verts[0].n, verts[0].k
    points, levels = held_subspaces(verts, k)
    blocks = [sum(1 << p for p in mine) for mine in levels[1][1]]
    pis = gl_vertex_maps([Subspace(f, n, p) for p in points], gl_generators(n, f))
    # each point map must permute all [n,1]_q points, not just the held ones
    certify_collineations(pis, gauss_binom(n, 1, f.q), levels[2][0] if k > 1 else (), blocks)
    dim = {(f.q**d - 1) // (f.q - 1): d for d in range(k + 1)}  # a d-subspace's point count
    dims = [dim[(blocks[0] & block).bit_count()] for block in blocks]
    columns = []
    for t, (held, numbers) in enumerate(levels[1:], start=1):
        mine = [held[x] for x in numbers[0]]
        meets = []
        for y in held:
            meet = [0] * (t + 1)
            for x in mine:
                meet[dim[(x & y).bit_count()]] += 1
            meets.append(meet)
        columns.append([[sum(meets[y][i] for y in ys) for ys in numbers] for i in range(t + 1)])
    for b, s in enumerate(dims):
        if any(cols[i][b] for cols in columns for i in range(s + 1, len(cols))):
            raise ArithmeticError(f"t-subspaces meet above dim(a ∩ b) = {s}")
    return [[b for b, d in enumerate(dims) if d == s] for s in range(k + 1)], columns


def pair_count_suite(q: int = 2, max_n: int = 5, max_k: int = 3) -> SuiteReport:
    """Exhaustive pair censuses against the [s,i] [k-i,t-i]^2 bound.

    Every unordered pair of k-subspaces (including equal pairs) is covered
    by :func:`vertex_census`, whose certified maps carry any pair to a
    pair (0, b); cases are aggregated per (n, k, t, s, i) as the worst
    count against the bound.  The worst count of each (t, i) is the max of
    the column over class s, and the pairs checked are N c_s / 2 for
    s < k, with c_s the size of class s, and N for s = k.  Runs whose
    largest mask list, [n,t]_q subspaces over the sweep with t <= k,
    passes GRAPH_MAX_VERTICES raise BudgetExceededError before the field
    is built or anything enumerated.
    """
    sweep = [(n, t) for n in range(2, max_n + 1) for t in range(1, min(max_k, n) + 1)]
    largest = max(gauss_binom(n, t, q) for n, t in sweep)
    if largest > GRAPH_MAX_VERTICES:
        raise BudgetExceededError(
            f"pair-count mask lists of {largest} subspaces (q={q}, n <= {max_n}, "
            f"k <= {max_k}) exceed the budget of {GRAPH_MAX_VERTICES}"
        )
    f = make_field(q)
    cases = []
    for n in range(2, max_n + 1):
        for k in range(2, min(max_k, n) + 1):
            verts = enumerate_k_subspaces(n, k, f)
            classes, columns = vertex_census(verts)
            for t, cols in enumerate(columns, start=1):
                for s, bs in enumerate(classes):
                    if not bs:
                        continue
                    pairs, odd = divmod(len(verts) * len(bs), 2) if s < k else (len(verts), 0)
                    if odd:
                        raise ArithmeticError(f"{len(verts)} vertices, {len(bs)} at dimension {s}")
                    for i in range(min(s, t) + 1):
                        count = max(map(cols[i].__getitem__, bs))
                        bound = gauss_binom(s, i, q) * gauss_binom(k - i, t - i, q) ** 2
                        cases.append(
                            CheckCase(
                                params={"q": q, "n": n, "k": k, "t": t, "s": s, "i": i},
                                lhs=count,
                                rhs=bound,
                                passed=count <= bound,
                                witness={"pairs_checked": pairs},
                            )
                        )
    return SuiteReport("pair-count", cases)


def counting_suite(tuples: int = 50) -> SuiteReport:
    """The counting inequality on the first ``tuples`` in-range parameter
    tuples of :func:`counting_sweep_params`, one case per (tuple, s)."""
    cases = []
    for p in counting_sweep_params(tuples):
        rep = counting_inequality_check(p)
        for c in rep.cases:
            cases.append(
                CheckCase(
                    params={**p.as_dict(), "s": c.s},
                    lhs=c.lhs,
                    rhs=c.rhs,
                    passed=c.passed,
                )
            )
    return SuiteReport("counting", cases)


# -- geometry suites ----------------------------------------------------------------


def grid_suite(q: int | None = None) -> SuiteReport:
    cases = []
    for order in _orders(q, (2, 3, 4)):
        rep = grid_extremal_search(order)
        cases.append(
            CheckCase(
                params={"q": order},
                lhs=rep.max_size,
                rhs=rep.expected_max,
                passed=rep.passed,
                witness={
                    "extremal_sets": len(rep.extremal_sets),
                    "classification_ok": rep.classification_ok,
                },
            )
        )
    return SuiteReport("grid", cases)


def klein_suite(q: int | None = None) -> SuiteReport:
    cases = []
    for order in _orders(q, (2, 3)):
        rep = verify_klein_isomorphism(order)
        cases.append(
            CheckCase(
                params={"q": order},
                lhs=rep.line_count,
                rhs=rep.point_count,
                passed=rep.passed,
                witness={
                    "pairs_checked": rep.pairs_checked,
                    "mismatches": len(rep.mismatches),
                    "bijective": rep.bijective,
                },
            )
        )
    return SuiteReport("klein", cases)


def perp_census_suite(
    q: int | None = None, claims: tuple[str, ...] | None = None
) -> SuiteReport:
    """The perpendicular-section census at q = 2 and 3, or at ``q`` alone.

    ``claims`` names the claims to check at every order; None checks each
    order's default claims (:func:`default_census_claims`).
    """
    cases = []
    for order in _orders(q, (2, 3)):
        rep = perp_section_census(order, claims)
        for claim, result in rep.claims.items():
            cases.append(
                CheckCase(
                    params={"q": order, "claim": claim},
                    lhs=len(result.failures),
                    rhs=0,
                    passed=result.passed,
                    witness={
                        "sections_checked": result.checked,
                        "sections_examined": result.examined,
                    },
                )
            )
    return SuiteReport("perp-census", cases)


# -- end-to-end suites (verdicts, constructions, solvers, formats) ------------------


def verdict_suite() -> SuiteReport:
    expectations = [
        # params, formula value, tags that must be present
        ((2, 4, 2, 1), 27, {"K421"}),
        ((3, 4, 2, 1), 116, {"K421"}),
        ((2, 16, 3, 2), None, {"SMALL_T_RANGE", "UNIFORM_RANGE", "PRIOR_RANGE"}),
        ((9, 6, 3, 2), None, {"SQRT_RANGE", "ALL_N_RANGE"}),
    ]
    cases = []
    for (q, n, k, t), value, tags in expectations:
        v = treewidth_verdict(KneserParams(q, n, k, t))
        got = {tag.value for tag in v.applicable}
        ok = tags <= got and (value is None or v.formula_value == value)
        cases.append(
            CheckCase(
                params={"q": q, "n": n, "k": k, "t": t},
                lhs=v.formula_value,
                rhs=value,
                passed=ok,
                witness={"applicable": sorted(got)},
            )
        )
    return SuiteReport("verdicts", cases)


def construction_suite() -> SuiteReport:
    cases = []
    for (q, n, k, t), expected_width in (((2, 4, 2, 1), 27), ((2, 5, 2, 1), 139)):
        g, td = kneser_star_decomposition(KneserParams(q, n, k, t))
        rep = validate_td(g, td)
        cases.append(
            CheckCase(
                params={"q": q, "n": n, "k": k, "t": t},
                lhs=td.width(),
                rhs=expected_width,
                passed=rep.passed and td.width() == expected_width,
                witness={"valid": rep.passed, "bags": td.node_count},
            )
        )
    return SuiteReport("constructions", cases)


def independence_suite() -> SuiteReport:
    instances = ((2, 4, 2, 1), (2, 5, 2, 1), (3, 4, 2, 1), (2, 5, 3, 2))
    cases = []
    for q, n, k, t in instances:
        p = KneserParams(q, n, k, t)
        g = build_kneser_graph(p)
        size, _ = mis_exact(g)
        formula = alpha_value(p)
        cases.append(
            CheckCase(
                params={"q": q, "n": n, "k": k, "t": t},
                lhs=size,
                rhs=formula,
                passed=size == formula,
            )
        )
    return SuiteReport("independence", cases)


def duality_suite() -> SuiteReport:
    p = KneserParams(2, 5, 3, 2)
    rep = duality_isomorphism(p)
    case = CheckCase(
        params=p.as_dict(),
        lhs=rep.vertex_count,
        rhs=rep.vertex_count,
        passed=rep.passed,
        witness={
            "dual": rep.dual_params.as_dict(),
            "pairs_checked": rep.pairs_checked,
            "mismatches": len(rep.mismatches),
        },
    )
    return SuiteReport("duality", [case])


def random_graph_corpus(count: int = ORACLE_GRAPH_COUNT) -> list[Graph]:
    """``count`` seeded random graphs of 4 to 8 vertices."""
    rng = random.Random(ORACLE_SEED)
    out = []
    for _ in range(count):
        n = rng.randint(4, 8)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        out.append(Graph.from_edges(n, edges))
    return out


def oracle_suite() -> SuiteReport:
    cases = []
    agree = 0
    for g in random_graph_corpus():
        tw, td = treewidth_by_decision(g)
        brute = treewidth_all_orderings(g)
        valid = validate_td(g, td).passed
        if tw == brute and valid:
            agree += 1
    cases.append(
        CheckCase(
            params={"corpus": "random", "count": ORACLE_GRAPH_COUNT, "seed": ORACLE_SEED},
            lhs=agree,
            rhs=ORACLE_GRAPH_COUNT,
            passed=agree == ORACLE_GRAPH_COUNT,
        )
    )
    for name, g, expected in (
        ("path-7", path_graph(7), 1),
        ("complete-6", complete_graph(6), 5),
        ("petersen", petersen_graph(), 4),
    ):
        tw, td = treewidth_by_decision(g)
        cases.append(
            CheckCase(
                params={"graph": name},
                lhs=tw,
                rhs=expected,
                passed=tw == expected and validate_td(g, td).passed,
            )
        )
    return SuiteReport("oracles", cases)


def format_suite() -> SuiteReport:
    """Byte-identical .gr/.td round-trips over a small generated corpus."""
    cases = []
    g421, td421 = kneser_star_decomposition(KneserParams(2, 4, 2, 1))
    corpus: list[tuple[str, Graph]] = [
        ("kneser-2-4-2-1", g421),
        ("petersen", petersen_graph()),
        ("path-5", path_graph(5)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for name, g in corpus:
            path1 = base / f"{name}.gr"
            path2 = base / f"{name}.2.gr"
            pace_write_gr(g, path1)
            pace_write_gr(pace_read_gr(path1), path2)
            identical = path1.read_bytes() == path2.read_bytes()
            cases.append(
                CheckCase(
                    params={"file": f"{name}.gr"},
                    lhs=len(path1.read_bytes()),
                    rhs=len(path2.read_bytes()),
                    passed=identical and pace_read_gr(path2) == g,
                )
            )
        td_path = base / "kneser-2-4-2-1.td"
        pace_write_td(td421, g421.n, td_path)
        header = td_path.read_text().splitlines()[0]
        round_td, declared_n = pace_read_td(td_path)
        td_path2 = base / "kneser-2-4-2-1.2.td"
        pace_write_td(round_td, declared_n, td_path2)
        cases.append(
            CheckCase(
                params={"file": "kneser-2-4-2-1.td"},
                lhs=header,
                rhs="s td 8 28 35",
                passed=(
                    header == "s td 8 28 35"
                    and td_path.read_bytes() == td_path2.read_bytes()
                    and round_td == td421
                ),
            )
        )
    return SuiteReport("formats", cases)


# -- the full matrix ------------------------------------------------------------------


SUITES = {
    "gauss-bounds": gauss_bounds_suite,
    "parabola": parabola_suite,
    "bridge": bridge_suite,
    "pair-count": pair_count_suite,
    "counting": counting_suite,
    "grid": grid_suite,
    "klein": klein_suite,
    "perp-census": perp_census_suite,
}


def _verify_all_plan() -> tuple[tuple[Callable[[], SuiteReport], str], ...]:
    """verify-all's suites in report order, each with the process that runs
    it: "child" for the forked child, "parent" for the caller's process.

    The shares were picked by cold cost measured in one process: about
    117 ms of suites for the child and 86 ms for the parent, which then
    renders the report.  parabola stays in the parent: its 400 big
    Fractions would pickle to 319 KB, and unpickling them reduces each
    fraction again (about 20 ms).  The tuple is built at each call, so a
    patched or traced binding of a suite is the one that runs.
    """
    return (
        (verdict_suite, "child"),
        (construction_suite, "parent"),
        (independence_suite, "parent"),
        (klein_suite, "child"),
        (duality_suite, "child"),
        (grid_suite, "parent"),
        (gauss_bounds_suite, "child"),
        (bridge_suite, "child"),
        (parabola_suite, "parent"),
        (pair_count_suite, "child"),
        (oracle_suite, "child"),
        (perp_census_suite, "parent"),
        (counting_suite, "child"),
        (format_suite, "parent"),
    )


def verify_all() -> list[SuiteReport]:
    """The full verification matrix, bounded to finish at desk scale.

    One forked child runs the suites that ``_verify_all_plan`` gives it
    while this process runs the rest; the child sends its reports back
    through a pipe as one pickle.  The reports come back in the plan's
    order.  A suite that raises in either process raises here, this
    process's own exception first; a child that ends without sending a
    result raises RuntimeError naming its share.  The child is reaped
    before this returns or raises.  Where ``os.fork`` is missing or fails,
    this process runs every suite.
    """
    import pickle

    plan = _verify_all_plan()
    child = [i for i, (_, side) in enumerate(plan) if side == "child"]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no fork on this platform, or it failed
        os.close(read_fd)
        os.close(write_fd)
        return [suite() for suite, _ in plan]
    if pid == 0:  # the child: send its reports, or what a suite raised; never return
        status = 1
        try:
            os.close(read_fd)
            try:
                result = [plan[i][0]() for i in child]
            except Exception as exc:
                result = exc
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    reports: list = [None] * len(plan)
    try:
        with open(read_fd, "rb") as pipe:
            for i, (suite, side) in enumerate(plan):
                if side == "parent":
                    reports[i] = suite()
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        names = ", ".join(plan[i][0].__name__ for i in child)
        raise RuntimeError(
            f"verify-all: the forked child running {names} ended without a result "
            f"(exit code {os.waitstatus_to_exitcode(status)})"
        )
    result = pickle.loads(data)
    if isinstance(result, Exception):
        raise result
    for i, report in zip(child, result):
        reports[i] = report
    return reports
