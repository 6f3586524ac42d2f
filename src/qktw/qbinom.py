"""Exact Gaussian-binomial arithmetic and the inequality certificates on top.

Everything here is exact: big integers, ``fractions.Fraction``, and fourth
powers where an exponent of q would otherwise be a quarter-integer.  No
floating point anywhere — the margins of the certified inequalities are
thin for q = 2, and a "pass" is meant as a rigorous certificate, not a
numeric approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .gf import prime_power


@lru_cache(maxsize=None)
def gauss_binom(n: int, k: int, q: int) -> int:
    """The Gaussian binomial [n,k]_q = prod_{i=0}^{k-1} (q^(n-i)-1)/(q^(i+1)-1).

    Defined for any integer q >= 2 (primality is not required); counts the
    k-dimensional subspaces of F_q^n when q is a prime power.
    """
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    acc = Fraction(1)
    for i in range(k):
        acc *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
    assert acc.denominator == 1
    return acc.numerator


def gauss_slack_for(q: int) -> int:
    """Additive slack in the Gaussian upper bound: 5, 3, or 2 by field size."""
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    if q == 2:
        return 5
    if q == 3:
        return 3
    return 2


def range_slack_for(q: int) -> int:
    """Additive slack in the treewidth range conditions, by field size."""
    if q == 2:
        return 9
    if q == 3:
        return 3
    if q == 4:
        return 2
    if q <= 8:
        return 1
    return 0


@dataclass(frozen=True)
class SlackConstants:
    """The two q-dependent slack constants used throughout the range checks."""

    q: int
    range_slack: int
    gauss_slack: int


def constants(q: int) -> SlackConstants:
    """Slack constants for a prime-power q."""
    prime_power(q)
    return SlackConstants(q=q, range_slack=range_slack_for(q), gauss_slack=gauss_slack_for(q))


@dataclass(frozen=True)
class Quadratic:
    """Integer quadratic with leading coefficient -1: f(x) = -x^2 + b*x + c."""

    b: int
    c: int

    def value(self, x):
        return -x * x + self.b * x + self.c

    def vertex(self) -> Fraction:
        return Fraction(self.b, 2)

    def vertex_value(self) -> Fraction:
        return Fraction(self.b * self.b, 4) + self.c


@dataclass(frozen=True)
class CountingExponent:
    """Exponent quadratic of the pair-counting sum for parameters (t, k, n).

    f(i) = (t-i)(i + 3k - 2t - n) - i, expanded to leading coefficient -1.
    ``min_overlap`` is the smallest possible intersection dimension of the
    two t-subspaces inside a common k-space.
    """

    t: int
    k: int
    n: int

    def quadratic(self) -> Quadratic:
        b = self.n - 3 * self.k + 3 * self.t - 1
        c = self.t * (3 * self.k - 2 * self.t - self.n)
        return Quadratic(b=b, c=c)

    @property
    def min_overlap(self) -> int:
        return max(0, 2 * self.t - self.k)

    def vertex(self) -> Fraction:
        return Fraction(self.n - 3 * self.k + 3 * self.t - 1, 2)

    def vertex_value(self) -> Fraction:
        return Fraction((3 * self.k + 1 - self.t - self.n) ** 2 - 4 * self.t, 4)


def _qf(q: int, e) -> Fraction:
    """q**e as an exact Fraction for an integer exponent e (Fraction allowed
    when it is integral)."""
    if isinstance(e, Fraction):
        if e.denominator != 1:
            raise ValueError(f"exponent {e} is not an integer")
        e = e.numerator
    return Fraction(q) ** e


def _qsum(q: int, exponents) -> Fraction:
    """The sum of q**e over integer exponents e, as one exact Fraction.

    The powers are summed as integers scaled by q**-min(e) and divided
    out once at the end; summing Fractions would reduce after every term.
    """
    es = list(exponents)
    low = min(es)
    total = sum(q ** (e - low) for e in es)
    return Fraction(total * q**low) if low >= 0 else Fraction(total, q**-low)


# -- Gaussian bounds ------------------------------------------------------


def _lemma_json(lemma: str, params: dict, lhs, rhs, passed: bool) -> dict:
    from .report import exact_str

    return {
        "lemma": lemma,
        "params": params,
        "lhs": exact_str(lhs),
        "rhs": exact_str(rhs),
        "pass": passed,
    }


@dataclass(frozen=True)
class GaussBoundsReport:
    """Two-sided power-of-q bounds on one Gaussian binomial."""

    n: int
    k: int
    q: int
    value: int
    lower_bound: Fraction | None  # (q+1) * q^(k(n-k)-1), only for 0 < k < n
    upper_bound: Fraction         # (q+beta) * q^(k(n-k)-1)
    lower_holds: bool | None
    upper_holds: bool

    @property
    def passed(self) -> bool:
        return self.upper_holds and self.lower_holds is not False

    def to_json(self) -> dict:
        out = _lemma_json(
            "gauss-bounds",
            {"n": self.n, "k": self.k, "q": self.q},
            self.value,
            self.upper_bound,
            self.passed,
        )
        from .report import exact_str

        out["lower_bound"] = exact_str(self.lower_bound)
        return out


def check_gauss_bounds(n: int, k: int, q: int) -> GaussBoundsReport:
    """Check (q+1) q^(k(n-k)-1) <= [n,k]_q <= (q+beta) q^(k(n-k)-1).

    The lower bound is only claimed for 0 < k < n.  All comparisons are
    exact; the exponent k(n-k)-1 may be -1, which makes the bounds
    rationals rather than integers.
    """
    value = gauss_binom(n, k, q)
    beta = gauss_slack_for(q)
    scale = _qf(q, k * (n - k) - 1)
    upper = (q + beta) * scale
    upper_holds = value <= upper
    lower = None
    lower_holds = None
    if 0 < k < n:
        lower = (q + 1) * scale
        lower_holds = lower <= value
    return GaussBoundsReport(
        n=n,
        k=k,
        q=q,
        value=value,
        lower_bound=lower,
        upper_bound=upper,
        lower_holds=lower_holds,
        upper_holds=upper_holds,
    )


# -- parabola tail bounds -------------------------------------------------


@dataclass(frozen=True)
class TailBoundReport:
    """One verified tail bound for sums of q^f(i) with quadratic f.

    ``lhs`` is a rigorous majorant of the infinite sum (finite window plus a
    geometric tail), ``rhs`` the claimed bound.  When ``fourth_power`` is
    set, both sides were raised to the 4th power to keep a quarter-integer
    exponent rational.
    """

    q: int
    mode: str
    anchor: int | None
    window: int
    lhs: Fraction
    rhs: Fraction
    fourth_power: bool
    passed: bool

    def to_json(self) -> dict:
        out = _lemma_json(
            "parabola",
            {"q": self.q, "mode": self.mode, "anchor": self.anchor},
            self.lhs,
            self.rhs,
            self.passed,
        )
        out["fourth_power"] = self.fourth_power
        return out


_ONE_SIDED = "above", "below"


def parabola_tail_check(
    f: Quadratic, a: int | None, q: int, mode: str, window: int = 40
) -> TailBoundReport:
    """Verify a geometric tail bound for sums of q^f(i).

    mode "above":  sum_{i >= a} q^f(i)   < q^f(a) (1 + 1/q + 1/q^3), needs vertex <= a.
    mode "below":  sum_{i <= a} q^f(i)   < q^f(a) (1 + 1/q + 1/q^3), needs vertex >= a.
    mode "full":   sum_{i in Z} q^f(i)   < q^f(x0) (1 + 2/q + 2/q^3), needs 2*x0 integral
                   (always true for integer b; half-integer vertices are
                   compared after raising both sides to the 4th power).

    The infinite sums are majorized by an exact window sum plus the
    geometric tail bound q^f(edge) * q/(q-1); beyond the vertex f drops by
    at least one per step, so the majorant is rigorous.
    """
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    if window < 1:
        raise ValueError("window must be positive")
    v = f.vertex()
    geo = Fraction(q, q - 1)
    if mode in _ONE_SIDED:
        if a is None:
            raise ValueError(f"mode {mode!r} needs an anchor")
        if mode == "above":
            if not v <= a:
                raise ValueError(f"mode 'above' needs vertex {v} <= anchor {a}")
            s = _qsum(q, map(f.value, range(a, a + window + 1)))
            lhs = s + _qf(q, f.value(a + window)) * geo
        else:
            if not v >= a:
                raise ValueError(f"mode 'below' needs vertex {v} >= anchor {a}")
            s = _qsum(q, map(f.value, range(a - window, a + 1)))
            lhs = s + _qf(q, f.value(a - window)) * geo
        rhs = _qf(q, f.value(a)) * (1 + Fraction(1, q) + Fraction(1, q**3))
        return TailBoundReport(
            q=q, mode=mode, anchor=a, window=window,
            lhs=lhs, rhs=rhs, fourth_power=False, passed=lhs < rhs,
        )
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")
    factor = 1 + Fraction(2, q) + Fraction(2, q**3)
    if f.b % 2 == 0:
        x0 = f.b // 2
        s = _qsum(q, map(f.value, range(x0 - window, x0 + window + 1)))
        lhs = s + (_qf(q, f.value(x0 - window)) + _qf(q, f.value(x0 + window))) * geo
        rhs = _qf(q, f.value(x0)) * factor
        return TailBoundReport(
            q=q, mode=mode, anchor=x0, window=window,
            lhs=lhs, rhs=rhs, fourth_power=False, passed=lhs < rhs,
        )
    lo = (f.b - 1) // 2 - window
    hi = (f.b + 1) // 2 + window
    s = _qsum(q, map(f.value, range(lo, hi + 1)))
    lhs = s + (_qf(q, f.value(lo)) + _qf(q, f.value(hi))) * geo
    # rhs = q^(c + b^2/4) * factor has a quarter-integer exponent
    lhs4 = lhs**4
    rhs4 = _qf(q, 4 * f.c + f.b * f.b) * factor**4
    return TailBoundReport(
        q=q, mode=mode, anchor=None, window=window,
        lhs=lhs4, rhs=rhs4, fourth_power=True, passed=lhs4 < rhs4,
    )


# -- the bridge inequality --------------------------------------------------


@dataclass(frozen=True)
class BridgeReport:
    """q^(-eps-3/4) (1 + 2/q + 2/q^3)  <  (q+1) q^3 / (2 (q+beta)^4).

    Both sides are stored raised to the 4th power (eliminating q^(3/4)),
    so the comparison is an exact rational one.
    """

    q: int
    lhs: Fraction
    rhs: Fraction
    passed: bool

    def to_json(self) -> dict:
        return _lemma_json("bridge", {"q": self.q}, self.lhs, self.rhs, self.passed)


def bridge_inequality_check(q: int) -> BridgeReport:
    """Verify the bridge inequality linking the slack constants, exactly."""
    c = constants(q)
    eps, beta = c.range_slack, c.gauss_slack
    factor = 1 + Fraction(2, q) + Fraction(2, q**3)
    lhs4 = Fraction(1, q ** (4 * eps + 3)) * factor**4
    rhs4 = Fraction((q + 1) ** 4 * q**12, 16 * (q + beta) ** 16)
    return BridgeReport(q=q, lhs=lhs4, rhs=rhs4, passed=lhs4 < rhs4)


def parabola_case_grid() -> list[tuple[Quadratic, int | None, int, str]]:
    """The fixed 200-case grid exercised by the parabola verification suite."""
    cases: list[tuple[Quadratic, int | None, int, str]] = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        for b in (-2, -1, 0, 1, 3):
            for c in (-1, 2):
                quad = Quadratic(b, c)
                cases.append((quad, math.ceil(quad.vertex()), q, "above"))
                cases.append((quad, math.floor(quad.vertex()), q, "below"))
            cases.append((Quadratic(b, 0), None, q, "full"))
    assert len(cases) == 200
    return cases
