import json
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qktw import suites
from qktw.errors import BudgetExceededError
from qktw.gf import make_field
from qktw.kneser import KneserParams, treewidth_verdict
from qktw.report import CheckCase, SuiteReport, exact_str
from qktw.subspace import Subspace, enumerate_k_subspaces, intersect_dim, subspaces_of
from qktw.suites import (
    bridge_suite,
    counting_suite,
    gauss_bounds_suite,
    grid_suite,
    klein_suite,
    pair_censuses,
    pair_count_suite,
    pair_count_work,
    parabola_suite,
    perp_census_suite,
    verdict_suite,
)


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


def oracle_pair_censuses(verts):
    """pair_censuses by one intersect_dim per pair of t-subspaces."""
    k = verts[0].k
    subs = [
        [[Subspace(v.field, v.n, w) for w in subspaces_of(v, t)] for t in range(1, k + 1)]
        for v in verts
    ]
    for a, u in enumerate(verts):
        for b in range(a, len(verts)):
            s = intersect_dim(u, verts[b])
            counts = []
            for xs, ys in zip(subs[a], subs[b]):
                census = Counter(intersect_dim(x, y) for x in xs for y in ys)
                t = xs[0].k
                assert max(census) <= min(s, t)
                counts.append([census.get(i, 0) for i in range(min(s, t) + 1)])
            yield a, b, s, counts


def pair_census_tuples(verts):
    """pair_censuses expanded to the oracle's (a, b, s, counts) per pair."""
    for a, classes, columns in pair_censuses(verts):
        dims = {b: s for s, bs in enumerate(classes) for b in bs}
        for b, s in sorted(dims.items()):
            tops = [cols[: min(s, t) + 1] for t, cols in enumerate(columns, start=1)]
            yield a, b, s, [[col[b] for col in top] for top in tops]


@pytest.mark.parametrize(
    "q,n,k",
    [(2, n, k) for n in range(2, 5) for k in range(1, n + 1)] + [(3, 4, 2), (4, 3, 3), (5, 3, 3)],
)
def test_pair_censuses_match_the_pairwise_oracle(q, n, k):
    verts = enumerate_k_subspaces(n, k, make_field(q))
    assert list(pair_census_tuples(verts)) == list(oracle_pair_censuses(verts))


@pytest.mark.parametrize("q,most", [(4, 420), (5, 930)])
def test_pair_censuses_fill_two_byte_fields(q, most):
    # the plane of F_q^3 against itself: q^2 + q + 1 points, and the pairs
    # of distinct points (t = 1, i = 0) pass one byte
    (_, classes, columns), = pair_censuses(enumerate_k_subspaces(3, 3, make_field(q)))
    assert classes == [[], [], [], [0]]
    assert columns[0][0].itemsize == 2
    assert max(col[0] for cols in columns for col in cols) == most


@pytest.mark.parametrize("fault", ["above s", "not nested"])
def test_pair_count_refuses_a_corrupt_meet_row(monkeypatch, fault):
    real = suites.meet_masks

    def corrupt(spaces, i):
        # rows with i < t: the row i = t is the identity and never computed
        rows = real(spaces, i)
        t = spaces[0].k
        if fault == "above s" and (t, i) == (2, 1):
            skew = ~rows[0] & ((1 << len(rows)) - 1)
            rows[0] |= skew & -skew  # a line skew to line 0 "meets" it
        if fault == "not nested" and (t, i) == (3, 1):
            rows[0] &= ~(1 << 1)  # plane 1 "misses" plane 0, which it meets in a line
        return rows

    monkeypatch.setattr(suites, "meet_masks", corrupt)
    match = {"above s": "meet in dimension", "not nested": "do not nest"}[fault]
    with pytest.raises(ArithmeticError, match=match):
        pair_count_suite(q=2, max_n=4, max_k=3)


def test_pair_count_takes_the_identity_meet_row_from_the_packed_vectors(monkeypatch):
    real = suites.meet_masks
    calls = []

    def spy(spaces, i):
        calls.append((spaces[0].k, i))
        return real(spaces, i)

    monkeypatch.setattr(suites, "meet_masks", spy)
    assert pair_count_suite(q=2, max_n=4, max_k=3).passed
    assert calls and all(i < t for t, i in calls)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pair_censuses_on_random_vertex_subsets(data):
    q, n = data.draw(st.sampled_from([(2, 4), (2, 5), (3, 3), (3, 4), (4, 4)]))
    k = data.draw(st.integers(1, n - 1))
    every = enumerate_k_subspaces(n, k, make_field(q))
    picked = data.draw(
        st.lists(st.integers(0, len(every) - 1), min_size=1, max_size=12, unique=True)
    )
    verts = [every[i] for i in picked]
    assert list(pair_census_tuples(verts)) == list(oracle_pair_censuses(verts))


def test_pair_count_budget_admits_q2_and_q3_only():
    assert pair_count_work(2, 5, 3) == 234161
    assert pair_count_work(3, 5, 3) == 23510162
    assert pair_count_work(3, 5, 3) <= suites.PAIR_COUNT_MAX_WORK
    assert pair_count_work(4, 5, 3) > suites.PAIR_COUNT_MAX_WORK


def test_pair_count_budget_fails_before_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(suites, "enumerate_k_subspaces", refuse)
    with pytest.raises(BudgetExceededError, match="824011665"):
        pair_count_suite(q=4)


def test_pair_count_budget_boundary(monkeypatch):
    work = pair_count_work(2, 3, 2)
    monkeypatch.setattr(suites, "PAIR_COUNT_MAX_WORK", work)
    assert pair_count_suite(q=2, max_n=3, max_k=2).passed
    monkeypatch.setattr(suites, "PAIR_COUNT_MAX_WORK", work - 1)
    with pytest.raises(BudgetExceededError):
        pair_count_suite(q=2, max_n=3, max_k=2)
