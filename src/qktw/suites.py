"""Named verification sweeps shared by the CLI and the acceptance tests.

Each suite returns a SuiteReport of individually-verifiable cases with
exact sides, computed in one thread in a fixed order.  A suite's keyword
parameters are its ``verify`` options: ``qktw verify`` passes ``-q``,
``--claims`` and ``--tuples`` as ``q``, ``claims`` and ``tuples`` to a
suite whose signature names them and refuses them otherwise.  Every other
sweep is fixed.
"""

from __future__ import annotations

import random
import sys
import tempfile
from array import array
from functools import reduce
from itertools import compress
from operator import or_
from pathlib import Path
from typing import Sequence

from .errors import BudgetExceededError
from .exact import mis_exact, treewidth_all_orderings, treewidth_exact
from .gf import make_field, prime_powers_up_to
from .graph import Graph, complete_graph, path_graph, petersen_graph
from .kneser import (
    KneserParams,
    alpha_value,
    build_kneser_graph,
    counting_inequality_check,
    counting_sweep_params,
    duality_isomorphism,
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
from .subspace import (
    Subspace,
    containing_masks,
    enumerate_k_subspaces,
    held_subspaces,
    meet_masks,
)
from .treedec import (
    pace_read_gr,
    pace_read_td,
    pace_write_gr,
    pace_write_td,
    validate_td,
)

# Admits the default pair-count sweep (n <= 5, k <= 3) at q = 2 (work
# 234,161) and q = 3 (23,510,162); q = 4 would be 824,011,665.
PAIR_COUNT_MAX_WORK = 50_000_000

# Packed census fields: array type codes by width in bytes.
_FIELD_CODES = {array(code).itemsize: code for code in "BHILQ"}
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")

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


def pair_count_work(q: int, max_n: int, max_k: int) -> int:
    """Work of :func:`pair_count_suite`: over every (n, k, t), the pairs of
    k-subspaces times the t-subspaces of one of them."""
    work = 0
    for n in range(2, max_n + 1):
        for k in range(2, min(max_k, n) + 1):
            verts = gauss_binom(n, k, q)
            subs = sum(gauss_binom(k, t, q) for t in range(1, k + 1))
            work += verts * (verts + 1) // 2 * subs
    return work


def _mask_bytes(mask: int, size: int) -> bytes:
    """Byte b is bit b of ``mask`` (0 or 1), for b < size; mask < 2**size."""
    return f"{mask:0{size}b}"[::-1].encode().translate(_BIT_BYTES)


def pair_censuses(verts: Sequence[Subspace]):
    """Intersection censuses of subspace pairs, one vertex against all at once.

    ``verts`` are k-subspaces of one ambient space.  Yields
    (a, classes, columns) for every vertex a: classes[s], for s = 0..k,
    lists the b >= a with dim(verts[a] ∩ verts[b]) = s, ascending, and
    columns[t - 1][i][b], for t = 1..k, i = 0..t and every b, is the
    number of pairs (x, y) of t-subspaces x of verts[a] and y of verts[b]
    with dim(x ∩ y) = i.

    Let T be the t-subspaces the vertices hold, numbered by
    :func:`held_subspaces`, S_b the set of b's t-subspaces in T and
    M_i = meet_masks(T, i).  Each y in T gets a packed vector, a big int
    with a field of w bytes per vertex b, holding 1 if y lies in b.
    R_i[x], the sum of the packed vectors over M_i[x], holds
    popcount(M_i[x] & S_b) in field b, and V_i, the sum of R_i[x] over the
    t-subspaces x of a, the pairs that meet in dimension >= i; V_0 is
    [k,t]_q times the sum of all packed vectors.  The exact counts are
    E_i = V_i - V_{i+1}, with V_{t+1} = 0.  No field overflows: w is the
    least of 1, 2, 4 and 8 bytes with [k,t]_q^2 < 256^w, and no field of
    any sum exceeds [k,t]_q^2, the pairs (x, y) of one (a, b).  No field
    borrows: M_{i+1}[x] lies in M_i[x], which is checked for i + 1 < t,
    so no field of V_{i+1} exceeds that of V_i.  M_t[x] is x alone, since
    the held t-subspaces are distinct, so R_t[x] is x's packed vector,
    with no :func:`meet_masks` call, and x lies in every M_i[x].  Every
    S_b lies in T, so no other t-subspace of the ambient space can count.

    s comes from vertex masks: b lies in the OR of the containing masks of
    a's t-subspaces exactly when dim(a ∩ b) >= t.  x ∩ y lies in a ∩ b, so
    a nonzero count above min(s, t) raises ArithmeticError.  No pair is
    eliminated and no Python step runs per pair; ``oracle_pair_censuses``
    in the tests, one :func:`intersect_dim` per pair of t-subspaces, is the
    oracle.
    """
    f, n, k = verts[0].field, verts[0].n, verts[0].k
    count = len(verts)
    per_t = []
    near = []  # near[t - 1][a]: the mask of the b with dim(a ∩ b) >= t
    for t in range(1, k + 1):
        held, subs = held_subspaces(verts, t)
        largest = gauss_binom(k, t, f.q) ** 2  # the pairs (x, y) of one (a, b)
        width = next(w for w in _FIELD_CODES if largest < 256**w)
        containing = containing_masks(subs, len(held))
        near.append([reduce(or_, map(containing.__getitem__, xs)) for xs in subs])
        packed = []
        for mask in containing:
            fields = bytearray(count * width)
            fields[::width] = _mask_bytes(mask, count)
            packed.append(int.from_bytes(fields, "little"))
        total = sum(packed)
        spaces = [Subspace(f, n, w) for w in held]
        rows, prev = [], None
        for i in range(1, t):
            meets = meet_masks(spaces, i)
            if prev is not None and any(m & ~p for m, p in zip(meets, prev)):
                raise ArithmeticError(f"meet rows of dimension {i} do not nest in {i - 1}")
            rows.append([sum(compress(packed, _mask_bytes(m, len(held)))) for m in meets])
            prev = meets
        rows.append(packed)  # M_t is the identity: the held t-subspaces are distinct
        per_t.append((t, subs, total, rows, _FIELD_CODES[width], count * width))
    everyone = (1 << count) - 1
    for a in range(count):
        ge = [everyone & ~((1 << a) - 1)]  # ge[s]: the b >= a with dim(a ∩ b) >= s
        ge += [masks[a] & ge[0] for masks in near]
        ge.append(0)
        classes = [
            list(compress(range(count), _mask_bytes(ge[s] & ~ge[s + 1], count)))
            for s in range(k + 1)
        ]
        columns = []
        for t, subs, total, rows, code, size in per_t:
            xs = subs[a]
            at_least = [len(xs) * total]
            at_least += [sum(map(row.__getitem__, xs)) for row in rows]
            at_least.append(0)
            cols = []
            for i in range(t + 1):
                col = array(code, (at_least[i] - at_least[i + 1]).to_bytes(size, "little"))
                if sys.byteorder == "big":
                    col.byteswap()
                cols.append(col)
            columns.append(cols)
            for s, bs in enumerate(classes[:t]):
                for i in range(s + 1, t + 1):
                    if any(map(cols[i].__getitem__, bs)):
                        raise ArithmeticError(
                            f"t-subspaces meet in dimension {i} > dim(a ∩ b) = {s}"
                        )
        yield a, classes, columns


def pair_count_suite(q: int = 2, max_n: int = 5, max_k: int = 3) -> SuiteReport:
    """Exhaustive pair censuses against the [s,i] [k-i,t-i]^2 bound.

    Every unordered pair of k-subspaces (including equal pairs) is
    censused by :func:`pair_censuses`; cases are aggregated per
    (n, k, t, s, i) as the worst observed count against the bound.  Per
    vertex a and s, the worst count of each (t, i) is the max of the
    column over the b of class s, and the class adds its size to the pairs
    checked, so no Python step runs per pair.  Runs whose
    :func:`pair_count_work` passes PAIR_COUNT_MAX_WORK raise
    BudgetExceededError before the field is built or anything enumerated.
    """
    work = pair_count_work(q, max_n, max_k)
    if work > PAIR_COUNT_MAX_WORK:
        raise BudgetExceededError(
            f"pair-count work {work} (q={q}, n <= {max_n}, k <= {max_k}) "
            f"exceeds the budget of {PAIR_COUNT_MAX_WORK}"
        )
    f = make_field(q)
    cases = []
    for n in range(2, max_n + 1):
        for k in range(2, min(max_k, n) + 1):
            verts = enumerate_k_subspaces(n, k, f)
            worst: dict[tuple[int, int, int], int] = {}
            pairs: dict[tuple[int, int, int], int] = {}
            for _, classes, columns in pair_censuses(verts):
                for s, bs in enumerate(classes):
                    if not bs:
                        continue
                    for t, cols in enumerate(columns, start=1):
                        for i in range(min(s, t) + 1):
                            key = (t, s, i)
                            most = max(map(cols[i].__getitem__, bs))
                            worst[key] = max(worst.get(key, 0), most)
                            pairs[key] = pairs.get(key, 0) + len(bs)
            for (t, s, i), count in sorted(worst.items()):
                bound = gauss_binom(s, i, q) * gauss_binom(k - i, t - i, q) ** 2
                cases.append(
                    CheckCase(
                        params={"q": q, "n": n, "k": k, "t": t, "s": s, "i": i},
                        lhs=count,
                        rhs=bound,
                        passed=count <= bound,
                        witness={"pairs_checked": pairs[(t, s, i)]},
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
        dp, td = treewidth_exact(g)
        brute = treewidth_all_orderings(g)
        valid = validate_td(g, td).passed
        if dp == brute and valid:
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
        tw, td = treewidth_exact(g)
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
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, **kwargs) -> SuiteReport:
    """Run one named verification suite with its default sweep."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return SUITES[name](**kwargs)


def verify_all() -> list[SuiteReport]:
    """The full verification matrix, bounded to finish at desk scale."""
    return [
        verdict_suite(),
        construction_suite(),
        independence_suite(),
        klein_suite(),
        duality_suite(),
        grid_suite(),
        gauss_bounds_suite(),
        bridge_suite(),
        parabola_suite(),
        pair_count_suite(),
        oracle_suite(),
        perp_census_suite(),
        counting_suite(),
        format_suite(),
    ]
