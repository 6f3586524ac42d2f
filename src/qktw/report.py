"""Structured pass/fail cases with exact sides, and their JSON rendering.

Exact values (big integers, rationals) are rendered as decimal strings —
"123" or "num/den" — since they routinely exceed 64-bit JSON numbers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction


def _str(x: int) -> str:
    """Exact decimal text of an int of any size.

    Exact certificates (e.g. 4th-power tail majorants) can exceed the
    interpreter's int-to-str digit limit.  Only then is the limit lifted,
    for this one conversion, and the caller's limit restored afterwards.
    """
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def exact_str(x, memo: dict[int, str] | None = None) -> str | None:
    """Render an int or Fraction exactly; None stays None.

    With ``memo``, the text of each int (a Fraction's numerator and
    denominator included) is looked up there first, and converted and
    stored only when it is missing.
    """
    if x is None:
        return None
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return exact_str(x.numerator, memo)
        return f"{exact_str(x.numerator, memo)}/{exact_str(x.denominator, memo)}"
    if memo is not None and type(x) is int:
        text = memo.get(x)
        if text is None:
            text = memo[x] = _str(x)
        return text
    if isinstance(x, int):
        return _str(x)
    return str(x)


def _jsonable(x, memo: dict[int, str] | None = None):
    if isinstance(x, Fraction):
        return exact_str(x, memo)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, memo) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v, memo) for k, v in x.items()}
    if isinstance(x, int) and abs(x) >= 2**53:
        return exact_str(x, memo)
    return x


@dataclass
class CheckCase:
    """One verified inequality or structural check."""

    params: dict
    lhs: object = None
    rhs: object = None
    passed: bool = True
    witness: dict | None = None

    def to_json(self, memo: dict[int, str] | None = None) -> dict:
        """The case's JSON; every exact value in it is rendered through
        ``memo`` (see ``exact_str``)."""
        out = {
            "params": _jsonable(self.params, memo),
            "lhs": exact_str(self.lhs, memo),
            "rhs": exact_str(self.rhs, memo),
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness, memo)
        return out


@dataclass
class SuiteReport:
    suite: str
    cases: list[CheckCase] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def to_json(self, memo: dict[int, str] | None = None) -> dict:
        """The suite's JSON.  Every case renders its exact values through
        one ``memo`` of int texts, a new one unless the caller passes its
        own, so each distinct int is converted to decimal once (the
        parabola suite's 400 fractions hold 191 distinct ints)."""
        if memo is None:
            memo = {}
        return {
            "suite": self.suite,
            "cases": [c.to_json(memo) for c in self.cases],
            "summary": {
                "total": self.total,
                "passed": self.total - self.failed,
                "failed": self.failed,
            },
        }


def verify_all_json(reports: list[SuiteReport]) -> dict:
    """The verify-all report: every suite's JSON and a matrix summary.

    All suites share one memo of int texts, so an exact value is
    converted to decimal once per report.
    """
    memo: dict[int, str] = {}
    return {
        "suites": [r.to_json(memo) for r in reports],
        "summary": {
            "suites": len(reports),
            "cases": sum(r.total for r in reports),
            "failed": sum(r.failed for r in reports),
        },
    }
