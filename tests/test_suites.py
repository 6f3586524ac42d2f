import hashlib
import json
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from qktw import report, subspace, suites
from qktw.errors import BudgetExceededError
from qktw.gf import make_field
from qktw.kneser import KneserParams, treewidth_verdict
from qktw.report import CheckCase, SuiteReport, exact_str, verify_all_json
from qktw.subspace import Subspace, enumerate_k_subspaces, subspaces_of
from qktw.suites import (
    bridge_suite,
    counting_suite,
    gauss_bounds_suite,
    grid_suite,
    klein_suite,
    pair_count_suite,
    parabola_suite,
    perp_census_suite,
    verdict_suite,
    vertex_census,
)

from subspace_helpers import oracle_intersect_dim


def decimal_text(x: int) -> str:
    """Exact decimal text by a path with no int-to-str digit limit."""
    return str(Decimal(x))


def test_exact_str():
    assert exact_str(5) == "5"
    assert exact_str(Fraction(3, 2)) == "3/2"
    assert exact_str(Fraction(4, 2)) == "2"
    assert exact_str(None) is None
    assert exact_str(10**30) == str(10**30)


def test_exact_str_on_huge_values_keeps_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = 10**10000 + 7
    assert exact_str(big) == decimal_text(big)
    assert exact_str(-big) == decimal_text(-big)
    assert exact_str(Fraction(big, 3)) == decimal_text(big) + "/3"
    assert exact_str(Fraction(1, big)) == "1/" + decimal_text(big)
    case = CheckCase(params={"n": big}, lhs=big, witness={"sides": [big, 2]})
    js = case.to_json()
    assert js["params"]["n"] == js["lhs"] == decimal_text(big)
    assert js["witness"]["sides"] == [decimal_text(big), 2]
    assert sys.get_int_max_str_digits() == limit


def test_parabola_report_keeps_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    js = parabola_suite().to_json()
    assert any(len(c["lhs"]) > 4300 for c in js["cases"])
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("n,k,digits", [(240, 120, 4336), (400, 200, 12042)])
def test_verdict_json_past_the_digit_limit(n, k, digits):
    limit = sys.get_int_max_str_digits()
    v = treewidth_verdict(KneserParams(2, n, k, 5))
    js = v.to_json()
    assert len(js["formula_value"]) == digits
    assert js["formula_value"] == decimal_text(v.formula_value)
    assert js["alpha"] == decimal_text(v.alpha)
    assert js["upper_bound"] == decimal_text(v.upper_bound)
    assert sys.get_int_max_str_digits() == limit


def test_suite_report_json_shape():
    rep = SuiteReport(
        "demo",
        [
            CheckCase(params={"q": 2}, lhs=1, rhs=2, passed=True),
            CheckCase(params={"q": 3}, lhs=Fraction(1, 3), rhs=None, passed=False),
        ],
    )
    js = rep.to_json()
    assert js["suite"] == "demo"
    assert js["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert js["cases"][0] == {"params": {"q": 2}, "lhs": "1", "rhs": "2", "pass": True}
    assert js["cases"][1]["lhs"] == "1/3"
    json.dumps(js)  # must be serializable as-is


@pytest.fixture(scope="module")
def verify_all_reports():
    return suites.verify_all()


def test_memoized_rendering_equals_the_memo_free_one(verify_all_reports):
    for rep in verify_all_reports:
        assert rep.to_json()["cases"] == [c.to_json() for c in rep.cases]
    assert verify_all_json(verify_all_reports)["suites"] == [
        rep.to_json() for rep in verify_all_reports
    ]


def test_a_report_converts_each_distinct_int_once(monkeypatch, verify_all_reports):
    calls = Counter()
    convert = report._str

    def counted(x):
        calls[x] += 1
        return convert(x)

    monkeypatch.setattr(report, "_str", counted)
    rendered = set()
    for rep in verify_all_reports:
        calls.clear()
        for c in rep.cases:
            c.to_json()  # memo-free: every int it holds, with repeats
        ints = set(calls)
        calls.clear()
        rep.to_json()
        assert calls == Counter(ints)
        rendered |= ints
    calls.clear()
    verify_all_json(verify_all_reports)
    assert calls == Counter(rendered) and len(rendered) > 500


def test_exact_str_memo_keeps_bools_apart():
    memo = {}
    assert exact_str(1, memo) == "1"
    assert exact_str(True, memo) == "True"
    assert exact_str(Fraction(3, 1), memo) == "3" and memo == {1: "1", 3: "3"}


def test_gauss_bounds_suite_small():
    for q in (2, 3):
        rep = gauss_bounds_suite(q=q)
        assert rep.passed
        assert rep.total == sum(n + 1 for n in range(9))


def test_bridge_suite():
    rep = bridge_suite()
    assert rep.passed and rep.total == 27  # prime powers up to 64


def test_grid_and_klein_suites():
    assert grid_suite(q=2).passed
    assert klein_suite(q=2).passed


def test_perp_census_suite_plan():
    rep = perp_census_suite(q=2, claims=("i", "iv"))
    assert [c.params["claim"] for c in rep.cases] == ["i", "iv"]
    assert rep.passed


def test_counting_suite_small():
    rep = counting_suite(tuples=5)
    assert rep.passed
    assert {c.params["q"] for c in rep.cases} <= {3, 4, 5, 9, 11, 13}


def test_counting_suite_rejects_counts_below_one():
    for count in (0, -5):
        with pytest.raises(ValueError, match="count >= 1"):
            counting_suite(tuples=count)


def test_verdict_suite():
    assert verdict_suite().passed


# -- the pair-count census against the per-pair elimination oracle ---------------

# SHA-256 of `qktw verify pair-count -q 3` (85 cases), taken before the census
# moved to one vertex under certified maps.
_PAIR_COUNT_Q3_DIGEST = "248a52b2ff2cdaf9c2f94e25ec1e79429952057e83dea212d10dbf269d193e36"
# SHA-256 of `qktw verify perp-census -q 4` (claims ii and iii), taken before
# the quadric's maps were certified on its lines alone; verify-all stops at q = 3.
_PERP_CENSUS_Q4_DIGEST = "a6e21a8bf58143615451e32f9ae707da7a81ab12969cba4da1cab3852fbe388f"


def oracle_pair_censuses(verts, bases=None):
    """The census by one oracle_intersect_dim per pair of t-subspaces:
    (a, b, s, counts) for every b >= a, or for every b when ``bases`` lists
    the a."""
    k = verts[0].k
    subs = [
        [[Subspace(v.field, v.n, w) for w in subspaces_of(v, t)] for t in range(1, k + 1)]
        for v in verts
    ]
    for a in range(len(verts)) if bases is None else bases:
        for b in range(a if bases is None else 0, len(verts)):
            s = oracle_intersect_dim(verts[a], verts[b])
            counts = []
            for xs, ys in zip(subs[a], subs[b]):
                census = Counter(oracle_intersect_dim(x, y) for x in xs for y in ys)
                t = xs[0].k
                assert max(census) <= min(s, t)
                counts.append([census.get(i, 0) for i in range(min(s, t) + 1)])
            yield a, b, s, counts


def vertex_census_tuples(verts):
    """vertex_census expanded to the oracle's (0, b, s, counts) per b."""
    classes, columns = vertex_census(verts)
    dims = {b: s for s, bs in enumerate(classes) for b in bs}
    for b, s in sorted(dims.items()):
        tops = [cols[: min(s, t) + 1] for t, cols in enumerate(columns, start=1)]
        yield 0, b, s, [[col[b] for col in top] for top in tops]


@pytest.mark.parametrize(
    "q,n,k",
    [(2, n, k) for n in range(2, 5) for k in range(1, n + 1)] + [(3, 4, 2), (4, 3, 3), (5, 3, 3)],
)
def test_vertex_census_matches_the_pairwise_oracle(q, n, k):
    verts = enumerate_k_subspaces(n, k, make_field(q))
    assert list(vertex_census_tuples(verts)) == list(oracle_pair_censuses(verts, bases=[0]))


def oracle_pair_count_cases(q, max_n, max_k):
    """pair_count_suite's (params, worst count, pairs checked), aggregated
    from the oracle over every pair b >= a."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(2, min(max_k, n) + 1):
            worst, pairs = {}, Counter()
            for _, _, s, counts in oracle_pair_censuses(enumerate_k_subspaces(n, k, make_field(q))):
                for t, row in enumerate(counts, start=1):
                    for i, count in enumerate(row):
                        worst[t, s, i] = max(worst.get((t, s, i), 0), count)
                        pairs[t, s, i] += 1
            out += [
                ({"q": q, "n": n, "k": k, "t": t, "s": s, "i": i}, worst[t, s, i], pairs[t, s, i])
                for t, s, i in sorted(worst)
            ]
    return out


@pytest.mark.parametrize("q,max_n,max_k", [(2, 4, 3), (3, 4, 2)])
def test_pair_count_suite_matches_the_oracle_over_every_pair(q, max_n, max_k):
    rep = pair_count_suite(q=q, max_n=max_n, max_k=max_k)
    got = [(c.params, c.lhs, c.witness["pairs_checked"]) for c in rep.cases]
    assert got == oracle_pair_count_cases(q, max_n, max_k)
    assert rep.passed


def test_pair_count_q3_report_matches_the_pinned_digest():
    text = json.dumps(pair_count_suite(q=3).to_json(), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _PAIR_COUNT_Q3_DIGEST


def test_perp_census_q4_report_matches_the_pinned_digest():
    text = json.dumps(perp_census_suite(q=4).to_json(), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _PERP_CENSUS_Q4_DIGEST


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 3), (2, 3, 3), (3, 4, 2)])
def test_vertex_census_lifts_each_vertex_s_points_once(monkeypatch, q, n, k):
    # the coefficient tables are cached by the first run; the second lifts
    # only the vertices' points, and no held subspace
    verts = enumerate_k_subspaces(n, k, make_field(q))
    expected = vertex_census(verts)
    real, calls = subspace.subspaces_of, []

    def counted(u, t):
        calls.append((u, t))
        return real(u, t)

    monkeypatch.setattr(subspace, "subspaces_of", counted)
    assert vertex_census(verts) == expected
    assert calls == [(v, 1) for v in verts]


def test_vertex_census_refuses_a_count_above_the_meet(monkeypatch):
    # vertex 0's 2-subspace read as one skew to it: vertex 0 then "meets"
    # that vertex in a 2-subspace, while their point masks share no point
    real, calls = suites.held_subspaces, []

    def corrupt(spaces, top):
        points, levels = real(spaces, top)
        blocks = [sum(1 << p for p in mine) for mine in levels[1][1]]
        # at k = 2 the held 2-subspaces are the vertices, numbered in vertex order
        levels[2][1][0] = [next(b for b, block in enumerate(blocks) if not block & blocks[0])]
        calls.append(top)
        return points, levels

    monkeypatch.setattr(suites, "held_subspaces", corrupt)
    with pytest.raises(ArithmeticError, match=r"meet above dim\(a ∩ b\) = 0"):
        vertex_census(enumerate_k_subspaces(4, 2, make_field(2)))
    assert calls == [2]


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 4, 3), (2, 3, 3), (3, 5, 3)])
def test_vertex_census_refuses_a_point_map_with_two_points_swapped(monkeypatch, q, n, k):
    # at (2, 3, 3) the one vertex holds every point, so only the lines show it
    def swapped(points, generators):
        pis = real(points, generators)
        pis[0][3], pis[0][4] = pis[0][4], pis[0][3]
        return pis

    real = suites.gl_vertex_maps
    monkeypatch.setattr(suites, "gl_vertex_maps", swapped)
    with pytest.raises(ArithmeticError, match="map 0 does not map the lines onto themselves"):
        vertex_census(enumerate_k_subspaces(n, k, make_field(q)))


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 4, 3), (3, 3, 1)])
def test_vertex_census_refuses_a_repeated_vertex(q, n, k):
    verts = enumerate_k_subspaces(n, k, make_field(q))
    with pytest.raises(ArithmeticError, match=f"not a permutation of the {len(verts) + 1} vertices"):
        vertex_census(verts + verts[1:2])


def test_vertex_census_refuses_a_singular_generator(monkeypatch):
    eye = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    singular = ((1, 1, 0, 0), (0, 0, 0, 0)) + eye[2:]  # coordinate 1 of the image repeats x0
    monkeypatch.setattr(suites, "gl_generators", lambda n, f: [singular])
    with pytest.raises(ArithmeticError, match="off the vertices"):
        vertex_census(enumerate_k_subspaces(4, 2, make_field(3)))


def test_vertex_census_refuses_the_diagonal_alone(monkeypatch):
    real = suites.gl_generators
    monkeypatch.setattr(suites, "gl_generators", lambda n, f: real(n, f)[-1:])
    with pytest.raises(ArithmeticError, match="every vertex"):
        vertex_census(enumerate_k_subspaces(4, 2, make_field(3)))


def test_vertex_census_refuses_vertices_that_miss_points(monkeypatch):
    # three lines of PG(3,2) hold 6 of its 15 points: the generators take
    # one of them off the held points, and maps that keep the 6 held points
    # (the identity) are no permutation of all 15
    lines = enumerate_k_subspaces(4, 2, make_field(2))[:3]
    with pytest.raises(ArithmeticError, match="off the vertices"):
        vertex_census(lines)
    identity = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monkeypatch.setattr(suites, "gl_generators", lambda n, f: [identity])
    with pytest.raises(ArithmeticError, match="map 0 is not a permutation of the 15 vertices"):
        vertex_census(lines)


def test_pair_count_budget_fails_before_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built or enumerated past the budget")

    monkeypatch.setattr(suites, "enumerate_k_subspaces", refuse)
    monkeypatch.setattr(suites, "make_field", refuse)
    with pytest.raises(BudgetExceededError, match="140050 subspaces .* budget of 32768"):
        pair_count_suite(q=7)
    with pytest.raises(BudgetExceededError, match="budget"):
        pair_count_suite(q=128)


def test_pair_count_budget_boundary(monkeypatch):
    # the largest mask list of n <= 3, k <= 2 at q = 2 is [3,1]_2 = [3,2]_2 = 7
    monkeypatch.setattr(suites, "GRAPH_MAX_VERTICES", 7)
    assert pair_count_suite(q=2, max_n=3, max_k=2).passed
    monkeypatch.setattr(suites, "GRAPH_MAX_VERTICES", 6)
    with pytest.raises(BudgetExceededError, match="7 subspaces"):
        pair_count_suite(q=2, max_n=3, max_k=2)
