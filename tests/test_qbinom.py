from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qktw import qbinom
from qktw.errors import NotAPrimePowerError, SizeLimitError
from qktw.gf import prime_powers_up_to
from qktw.qbinom import (
    Quadratic,
    bridge_inequality_check,
    check_gauss_bounds,
    gauss_binom,
    gauss_slack_for,
    parabola_case_grid,
    parabola_tail_check,
    range_slack_for,
)


def pascal_oracle(n, k, q):
    """Independent evaluation through the q-Pascal recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for m in range(n + 1):
        table[m][0] = 1
        for j in range(1, m + 1):
            table[m][j] = table[m - 1][j - 1] + (q**j) * table[m - 1][j] if j < m else 1
    return table[n][k]


def test_gauss_binom_frozen_values():
    assert gauss_binom(4, 2, 2) == 35
    assert gauss_binom(5, 2, 2) == 155
    assert gauss_binom(6, 3, 3) == 33880
    assert gauss_binom(3, 1, 2) == 7
    assert gauss_binom(4, 1, 2) == 15
    assert gauss_binom(3, 1, 3) == 13
    assert gauss_binom(4, 1, 9) == 820
    assert gauss_binom(7, 0, 5) == 1
    assert gauss_binom(7, 7, 5) == 1


def test_gauss_binom_argument_errors():
    with pytest.raises(ValueError):
        gauss_binom(3, 4, 2)
    with pytest.raises(ValueError):
        gauss_binom(3, -1, 2)
    with pytest.raises(ValueError):
        gauss_binom(3, 1, 1)
    # non-prime-power q is fine: the product is defined for any q >= 2
    assert gauss_binom(4, 2, 6) == pascal_oracle(4, 2, 6)


def test_gauss_binom_against_pascal_oracle():
    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                assert gauss_binom(n, k, q) == pascal_oracle(n, k, q)


def fraction_products(n, k_max, q):
    """The Fraction product formula prod_{i<k} (q^(n-i)-1)/(q^(i+1)-1); its
    running products are [n,0]_q, [n,1]_q, ..., [n,k_max]_q."""
    acc = Fraction(1)
    yield acc
    for i in range(k_max):
        acc *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
        yield acc


def test_gauss_binom_against_the_fraction_product():
    # the sweep's scale: k <= 30 and n <= 2k + 60, q up to 251; the kernel
    # is called uncached so the grid leaves nothing in the shared cache
    kernel = gauss_binom.__wrapped__
    checked = 0
    for q in (2, 3, 4, 5, 7, 9, 251):
        for n in range(121):
            for k, value in enumerate(fraction_products(n, min(n, 30), q)):
                if n > 2 * k + 60:
                    continue
                assert value.denominator == 1
                assert kernel(n, k, q) == value.numerator == kernel(n, n - k, q), (n, k, q)
                checked += 1
    assert checked == 7 * sum(k + 61 for k in range(31))


def test_gauss_binom_size_limit():
    # k = 1 gives the bound (n-1)(bit_length(q)-1) exactly
    n = qbinom.GAUSS_MAX_BITS + 1
    assert gauss_binom.__wrapped__(n, 1, 2) == 2**n - 1
    with pytest.raises(SizeLimitError, match="over the limit"):
        gauss_binom(n + 1, 1, 2)
    with pytest.raises(SizeLimitError):
        gauss_binom(n + 1, n, 2)
    with pytest.raises(SizeLimitError):
        gauss_binom(10**6, 10**6 - 1, 2)
    with pytest.raises(SizeLimitError):
        gauss_binom(4000, 2000, 2)
    assert gauss_binom(10**6, 0, 3) == gauss_binom(10**6, 10**6, 3) == 1


def test_gauss_binom_symmetry_and_pascal_identity():
    for q in (2, 3, 4, 5):
        for n in range(1, 13):
            for k in range(n + 1):
                assert gauss_binom(n, k, q) == gauss_binom(n, n - k, q)
                if 1 <= k < n:
                    assert gauss_binom(n, k, q) == gauss_binom(
                        n - 1, k - 1, q
                    ) + q**k * gauss_binom(n - 1, k, q)


def slack(q):
    return range_slack_for(q), gauss_slack_for(q)


def test_constants():
    assert slack(2) == (9, 5)
    assert slack(3) == (3, 3)
    assert slack(4) == (2, 2)
    for q in (5, 7, 8):
        assert slack(q) == (1, 2)
    for q in (9, 11, 64):
        assert slack(q) == (0, 2)
    with pytest.raises(NotAPrimePowerError):
        bridge_inequality_check(6)  # the one caller that needs a field order


def test_gauss_bounds_examples():
    rep = check_gauss_bounds(4, 2, 2)
    assert rep.witness["lower_bound"] == 24 and rep.rhs == 56
    assert rep.witness["lower_holds"] and rep.witness["upper_holds"]
    edge = check_gauss_bounds(5, 0, 3)
    assert edge.witness["lower_holds"] is None
    assert edge.witness["upper_holds"]  # 1 <= (q + beta)/q
    big = check_gauss_bounds(6, 3, 3)
    assert big.lhs == 33880
    assert big.witness["lower_bound"] == 4 * 3**8 and big.rhs == 6 * 3**8
    assert big.passed


def test_gauss_bounds_grid():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(9):
            for k in range(n + 1):
                assert check_gauss_bounds(n, k, q).passed


def test_parabola_above_example():
    rep = parabola_tail_check(Quadratic(0, 0), 0, 2, "above")
    assert rep.passed
    # the majorant must dominate an honest partial sum of sum 2^(-i^2)
    partial = sum(Fraction(1, 2 ** (i * i)) for i in range(6))
    assert partial < rep.lhs < rep.rhs
    assert rep.rhs == Fraction(13, 8)  # 1 + 1/2 + 1/8


def test_parabola_below_mirror():
    rep = parabola_tail_check(Quadratic(6, -9), 3, 3, "below")  # -(x-3)^2
    assert rep.passed
    assert rep.rhs == Fraction(1, 1) * (1 + Fraction(1, 3) + Fraction(1, 27))


def test_parabola_full_half_integer_vertex():
    rep = parabola_tail_check(Quadratic(1, 0), None, 2, "full")  # vertex 1/2
    assert rep.passed and rep.witness["fourth_power"]
    # both sides were raised to the 4th power: rhs = 2^(0 + 1) * (1 + 1 + 1/4)^4
    assert rep.rhs == 2 * Fraction(9, 4) ** 4


def test_parabola_full_integer_vertex():
    rep = parabola_tail_check(Quadratic(4, -1), None, 3, "full")  # vertex 2
    assert rep.passed and not rep.witness["fourth_power"]


def test_parabola_preconditions():
    with pytest.raises(ValueError):
        parabola_tail_check(Quadratic(10, 0), 0, 2, "above")  # vertex 5 > 0
    with pytest.raises(ValueError):
        parabola_tail_check(Quadratic(-10, 0), 0, 2, "below")  # vertex -5 < 0
    with pytest.raises(ValueError):
        parabola_tail_check(Quadratic(0, 0), 0, 2, "sideways")
    with pytest.raises(ValueError):
        parabola_tail_check(Quadratic(0, 0), None, 2, "above")


def test_parabola_grid_is_fixed_and_passes():
    grid = parabola_case_grid()
    assert len(grid) == 200
    for quad, anchor, q, mode in grid:
        assert parabola_tail_check(quad, anchor, q, mode).passed


def fraction_sum(q, exponents):
    """The window sum term by term in Fraction arithmetic (oracle for
    ``qbinom._qsum``)."""
    return sum(qbinom._qf(q, e) for e in exponents)


@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 251]),
    exponents=st.lists(st.integers(-2000, 300), min_size=1, max_size=90),
)
def test_integer_window_sum_matches_the_fraction_sum(q, exponents):
    got = qbinom._qsum(q, exponents)
    assert isinstance(got, Fraction)
    assert got == fraction_sum(q, exponents)


@pytest.mark.parametrize("window", [1, 40])
def test_parabola_grid_matches_the_fraction_sum(monkeypatch, window):
    grid = parabola_case_grid()
    fast = [parabola_tail_check(quad, a, q, mode, window=window) for quad, a, q, mode in grid]
    monkeypatch.setattr(qbinom, "_qsum", fraction_sum)
    slow = [parabola_tail_check(quad, a, q, mode, window=window) for quad, a, q, mode in grid]
    assert fast == slow


@given(
    b=st.integers(-6, 6),
    c=st.integers(-4, 4),
    q=st.sampled_from([2, 3, 4, 5, 7, 9, 16]),
    offset=st.integers(0, 3),
)
def test_parabola_tail_bound_is_a_theorem(b, c, q, offset):
    quad = Quadratic(b, c)
    above_anchor = (b + 1) // 2 + offset  # >= ceil(b/2) >= vertex
    assert parabola_tail_check(quad, above_anchor, q, "above").passed
    below_anchor = b // 2 - offset
    assert parabola_tail_check(quad, below_anchor, q, "below").passed
    assert parabola_tail_check(quad, None, q, "full").passed


def test_bridge_inequality_selected_and_swept():
    for q in (2, 9, 64):
        assert bridge_inequality_check(q).passed
    for q in prime_powers_up_to(64):
        assert bridge_inequality_check(q).passed
    with pytest.raises(NotAPrimePowerError):
        bridge_inequality_check(10)


def test_counting_exponent_identities():
    # the pair-counting exponent f(i) = (t-i)(i + 3k - 2t - n) - i, expanded
    for t in range(1, 5):
        for k in range(t + 1, 8):
            for n in range(2 * k, 3 * k + 6):
                quad = Quadratic(n - 3 * k + 3 * t - 1, t * (3 * k - 2 * t - n))
                # expanded form agrees with the product form at several points
                for i in range(-2, 6):
                    assert quad.value(i) == (t - i) * (i + 3 * k - 2 * t - n) - i
                assert quad.vertex() == Fraction(n - 3 * k + 3 * t - 1, 2)
                assert 4 * quad.vertex_value() == (3 * k + 1 - t - n) ** 2 - 4 * t


def test_upper_bound_product_stays_under_seven_halves():
    # the q = 2 product prod_{i<=k} 2^i/(2^i - 1) stays below 1 + beta/q = 7/2
    prod = Fraction(1)
    for i in range(1, 41):
        prod *= Fraction(2**i, 2**i - 1)
        assert prod <= Fraction(7, 2)


def test_single_check_json_shape():
    js = check_gauss_bounds(4, 2, 2).to_json()
    assert js == {
        "params": {"n": 4, "k": 2, "q": 2},
        "lhs": "35",
        "rhs": "56",
        "pass": True,
        "witness": {"lower_bound": "24", "lower_holds": True, "upper_holds": True},
    }
    js = bridge_inequality_check(2).to_json()
    assert js["params"] == {"q": 2} and js["pass"]
    assert "/" in js["lhs"]  # exact rational as num/den
    js = parabola_tail_check(Quadratic(0, 0), 0, 2, "above").to_json()
    assert js["params"] == {"q": 2, "mode": "above", "b": 0, "c": 0, "anchor": 0}
    assert js["pass"] and not js["witness"]["fourth_power"]
