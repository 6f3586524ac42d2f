import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from qktw.kneser import KneserParams, treewidth_verdict
from qktw.report import CheckCase, SuiteReport, exact_str
from qktw.suites import (
    bridge_suite,
    counting_suite,
    gauss_bounds_suite,
    grid_suite,
    klein_suite,
    parabola_suite,
    perp_census_suite,
    verdict_suite,
    worker_count,
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
    rep = gauss_bounds_suite(max_n=4, qs=(2, 3))
    assert rep.passed
    assert rep.total == 2 * sum(n + 1 for n in range(5))


def test_bridge_suite():
    rep = bridge_suite()
    assert rep.passed and rep.total == 27  # prime powers up to 64


def test_grid_and_klein_suites():
    assert grid_suite(qs=(2,)).passed
    assert klein_suite(qs=(2,)).passed


def test_perp_census_suite_plan():
    rep = perp_census_suite(plan=((2, ("i", "iv")),))
    assert [c.params["claim"] for c in rep.cases] == ["i", "iv"]
    assert rep.passed


def test_counting_suite_small():
    rep = counting_suite(tuple_count=5)
    assert rep.passed
    assert {c.params["q"] for c in rep.cases} <= {3, 4, 5, 9, 11, 13}


def test_verdict_suite():
    assert verdict_suite().passed


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("QKTW_THREADS", raising=False)
    assert worker_count() >= 1
    monkeypatch.setenv("QKTW_THREADS", "3")
    assert worker_count() == 3
