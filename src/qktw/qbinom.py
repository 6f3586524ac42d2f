"""Exact Gaussian-binomial arithmetic and the inequality certificates on top.

Everything here is exact.  Gaussian binomials come from a fraction-free
integer walk along a diagonal [d+j, j]_q, j = 0, 1, ..., whose every
division is exact and checked; the last few diagonals walked are kept,
within DIAGONAL_CACHE_BITS bits, so that binomials on one diagonal share
a walk.  The inequality certificates use big integers,
``fractions.Fraction`` for rational bounds, and fourth powers where an
exponent of q would otherwise be a quarter-integer.  No floating point
anywhere — the margins of the certified inequalities are thin for q = 2,
and a "pass" is meant as a rigorous certificate, not a numeric
approximation.  A Gaussian binomial with more than GAUSS_MAX_BITS bits by
a cheap lower bound is refused with BudgetExceededError before any arithmetic.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError
from .gf import prime_power
from .report import CheckCase


# Largest lower bound on the bit length that ``gauss_binom`` admits (about
# 79,000 decimal digits at q = 2).  On a 2 vCPU x86 machine with CPython
# 3.11, [1024,512]_2 (262,146 bits) walks its diagonal in 0.2 s and prints
# in 0.1 s; [2000,1000]_2 (a million bits) takes 2.1 s to walk and 1.7 s
# to print.
GAUSS_MAX_BITS = 1 << 18

# Bits held by the kept diagonal walks, all values of all walks together;
# a walk that alone would pass the bound is not kept.  The benchmark's
# formula sweep keeps walks of up to 214,861 bits ([77+j, j]_64, j <= 30);
# per pass it walks 37,305 steps under this bound, 39,192 under 2^17 and
# 37,268 under 2^20, which would keep twice as much after verify-all.
DIAGONAL_CACHE_BITS = 1 << 18


class _Diagonals:
    """The diagonals [d+j, j]_q, j = 0, 1, ..., walked so far, least
    recently used first, holding at most DIAGONAL_CACHE_BITS bits.  One
    lock serializes the walks, which keeps the bit count of concurrent
    callers right."""

    def __init__(self) -> None:
        self.chains: dict[tuple[int, int], tuple[list[int], int]] = {}
        self.bits = 0
        self.lock = threading.Lock()

    def clear(self) -> None:
        with self.lock:
            self.chains.clear()
            self.bits = 0

    def value(self, d: int, j: int, q: int) -> int:
        """[d+j, j]_q: read from a kept walk, or walked on from its top.

        Step i sets acc = acc (q^(d+i) - 1) / (q^i - 1), which takes
        [d+i-1, i-1]_q to [d+i, i]_q, so every division is exact; a
        remainder raises ArithmeticError.
        """
        with self.lock:
            key = (d, q)
            kept = self.chains.pop(key, None)
            if kept is None:
                values, bits = [1], 1
            else:
                values, bits = kept
                if j < len(values):
                    self.chains[key] = kept
                    return values[j]
                self.bits -= bits
            top = len(values)
            acc, high, low = values[-1], q ** (d + top), q**top
            keep = True
            for i in range(top, j + 1):
                acc, rest = divmod(acc * (high - 1), low - 1)
                if rest:
                    raise ArithmeticError(f"[{d + i},{i}]_{q} came out inexact")
                if keep:
                    values.append(acc)
                    bits += acc.bit_length()
                    keep = bits <= DIAGONAL_CACHE_BITS
                high *= q
                low *= q
            if keep:
                self.chains[key] = values, bits
                self.bits += bits
                while self.bits > DIAGONAL_CACHE_BITS:
                    self.bits -= self.chains.pop(next(iter(self.chains)))[1]
            return acc


_diagonals = _Diagonals()


@lru_cache(maxsize=None)
def gauss_binom(n: int, k: int, q: int) -> int:
    """The Gaussian binomial [n,k]_q = prod_{i=0}^{k-1} (q^(n-i)-1)/(q^(i+1)-1).

    Defined for any integer q >= 2 (primality is not required); counts the
    k-dimensional subspaces of F_q^n when q is a prime power.  Raises
    BudgetExceededError, before any arithmetic, when k(n-k)(bit_length(q)-1),
    a lower bound on the value's bit length, passes GAUSS_MAX_BITS.

    With k' = min(k, n-k) the value is [d+k', k']_q on the diagonal
    d = n - k', read from the walk along it (``_Diagonals.value``).
    """
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    # [n,k]_q >= q^(k(n-k)) >= 2^(k(n-k)(bit_length(q)-1))
    bits = k * (n - k) * (q.bit_length() - 1)
    if bits > GAUSS_MAX_BITS:
        raise BudgetExceededError(
            f"[{n},{k}]_{q} has at least {bits} bits, over the limit of {GAUSS_MAX_BITS}"
        )
    k = min(k, n - k)
    if k == 0:
        return 1
    return _diagonals.value(n - k, k, q)


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
class Quadratic:
    """Integer quadratic with leading coefficient -1: f(x) = -x^2 + b*x + c."""

    b: int
    c: int

    def value(self, x):
        return -x * x + self.b * x + self.c

    def vertex(self) -> Fraction:
        return Fraction(self.b, 2)


def _horner(q: int, exponents) -> tuple[int, int]:
    """The sum of q**e over integer exponents e as (m, low), the sum being
    m q^low with low the smallest exponent.

    Horner's rule over the exponents sorted from the top: each step
    multiplies by q to the gap between neighbours, a small power.
    """
    es = sorted(exponents, reverse=True)
    m = 1
    for above, e in zip(es, es[1:]):
        m = m * q ** (above - e) + 1
    return m, es[-1]


def _scaled(q: int, m: int, e: int, den: int = 1) -> Fraction:
    """m q^e / den as one Fraction, for an integer exponent e of any sign."""
    return Fraction(m * q**e, den) if e >= 0 else Fraction(m, den * q**-e)


# -- Gaussian bounds ------------------------------------------------------


def check_gauss_bounds(n: int, k: int, q: int) -> CheckCase:
    """Check (q+1) q^(k(n-k)-1) <= [n,k]_q <= (q+beta) q^(k(n-k)-1).

    The lower bound is only claimed for 0 < k < n.  All comparisons are
    exact; the exponent k(n-k)-1 may be -1, which makes the bounds
    rationals rather than integers.  The case compares [n,k]_q (lhs) with
    the upper bound (rhs); its witness holds the lower bound and whether
    each side holds (``lower_holds`` is None where none is claimed).
    """
    value = gauss_binom(n, k, q)
    scale = _scaled(q, 1, k * (n - k) - 1)
    upper = (q + gauss_slack_for(q)) * scale
    upper_holds = value <= upper
    lower = lower_holds = None
    if 0 < k < n:
        lower = (q + 1) * scale
        lower_holds = lower <= value
    return CheckCase(
        params={"n": n, "k": k, "q": q},
        lhs=value,
        rhs=upper,
        passed=upper_holds and lower_holds is not False,
        witness={"lower_bound": lower, "lower_holds": lower_holds, "upper_holds": upper_holds},
    )


# -- parabola tail bounds -------------------------------------------------


_ONE_SIDED = "above", "below"


def parabola_tail_check(
    f: Quadratic, a: int | None, q: int, mode: str, window: int = 40
) -> CheckCase:
    """Verify a geometric tail bound for sums of q^f(i).

    mode "above":  sum_{i >= a} q^f(i)   < q^f(a) (1 + 1/q + 1/q^3), needs vertex <= a.
    mode "below":  sum_{i <= a} q^f(i)   < q^f(a) (1 + 1/q + 1/q^3), needs vertex >= a.
    mode "full":   sum_{i in Z} q^f(i)   < q^f(x0) (1 + 2/q + 2/q^3), needs 2*x0 integral
                   (always true for integer b; half-integer vertices are
                   compared after raising both sides to the 4th power).

    The infinite sums are majorized by an exact window sum plus the
    geometric tail bound q^f(edge) * q/(q-1); beyond the vertex f drops by
    at least one per step, so the majorant is rigorous.  The window is
    summed by Horner's rule in integers and each side is built as one
    Fraction, so no Fraction arithmetic reduces along the way.  The
    case's lhs is that majorant and its rhs the claimed bound; the witness
    says whether both were raised to the 4th power (``fourth_power``).
    """
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    if window < 1:
        raise ValueError("window must be positive")
    v = f.vertex()
    fourth_power = False
    if mode in _ONE_SIDED:
        if a is None:
            raise ValueError(f"mode {mode!r} needs an anchor")
        if mode == "above":
            if not v <= a:
                raise ValueError(f"mode 'above' needs vertex {v} <= anchor {a}")
            span, edges = range(a, a + window + 1), (a + window,)
        else:
            if not v >= a:
                raise ValueError(f"mode 'below' needs vertex {v} >= anchor {a}")
            span, edges = range(a - window, a + 1), (a - window,)
        # q^f(a) (1 + 1/q + 1/q^3)
        rhs = _scaled(q, q**3 + q**2 + 1, f.value(a) - 3)
    elif mode == "full":
        # the window is symmetric about the vertex b/2: x0 -+ window for
        # an integer vertex x0, (b-1)/2 - window to (b+1)/2 + window else
        lo, hi = f.b // 2 - window, (f.b + 1) // 2 + window
        span, edges = range(lo, hi + 1), (lo, hi)
        factor = q**3 + 2 * q * q + 2  # (1 + 2/q + 2/q^3) q^3
        if f.b % 2 == 0:
            rhs = _scaled(q, factor, f.value(f.b // 2) - 3)
        else:
            # q^(c + b^2/4) (1 + 2/q + 2/q^3) has a quarter-integer exponent
            rhs = _scaled(q, factor**4, 4 * f.c + f.b * f.b - 12)
            fourth_power = True
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # lhs = (m + sum_edges q^(f(edge) - low) q/(q-1)) q^low; the edges lie
    # in the window, so their exponents are at least low
    m, low = _horner(q, map(f.value, span))
    num = m * (q - 1) + q * sum(q ** (f.value(x) - low) for x in edges)
    lhs = _scaled(q, num, low, q - 1)
    if fourth_power:
        lhs **= 4
    return CheckCase(
        params={"q": q, "mode": mode, "b": f.b, "c": f.c, "anchor": a},
        lhs=lhs,
        rhs=rhs,
        passed=lhs < rhs,
        witness={"fourth_power": fourth_power, "window": window},
    )


# -- the bridge inequality --------------------------------------------------


def bridge_inequality_check(q: int) -> CheckCase:
    """Verify q^(-eps-3/4) (1 + 2/q + 2/q^3)  <  (q+1) q^3 / (2 (q+beta)^4)
    exactly, the bridge inequality linking the slack constants of a prime
    power q.

    Both sides are raised to the 4th power (eliminating q^(3/4)), so the
    comparison is an exact rational one.
    """
    prime_power(q)
    eps, beta = range_slack_for(q), gauss_slack_for(q)
    factor = 1 + Fraction(2, q) + Fraction(2, q**3)
    lhs4 = Fraction(1, q ** (4 * eps + 3)) * factor**4
    rhs4 = Fraction((q + 1) ** 4 * q**12, 16 * (q + beta) ** 16)
    return CheckCase(params={"q": q}, lhs=lhs4, rhs=rhs4, passed=lhs4 < rhs4)


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
    return cases
