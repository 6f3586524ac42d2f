import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

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
from qktw.report import exact_str


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


@pytest.fixture
def fresh_diagonals():
    """The kept diagonal walks, empty before the test and after it."""
    qbinom._diagonals.clear()
    yield qbinom._diagonals
    qbinom._diagonals.clear()


def test_gauss_binom_against_the_fraction_product(fresh_diagonals):
    # the sweep's scale: k <= 30 and n <= 2k + 60, q up to 251; the kernel
    # is called uncached, and the fixture clears the diagonal walks it
    # keeps, so the grid leaves nothing in the shared cache
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


def kept_bits(diagonals):
    """The bits of every kept walk, summed afresh, each walk's own count
    checked on the way."""
    for values, bits in diagonals.chains.values():
        assert bits == sum(v.bit_length() for v in values)
    return sum(bits for _, bits in diagonals.chains.values())


@pytest.mark.parametrize("bound", [qbinom.DIAGONAL_CACHE_BITS, 3000])
def test_diagonal_walks_match_the_fraction_product_in_any_order(
    monkeypatch, fresh_diagonals, bound
):
    monkeypatch.setattr(qbinom, "DIAGONAL_CACHE_BITS", bound)
    kernel = gauss_binom.__wrapped__
    expected = {}
    for q in (2, 3, 251):
        for n in range(61):
            for k, value in enumerate(fraction_products(n, min(n, 20), q)):
                expected[n, k, q] = value.numerator

    def diagonal_descending(key):
        n, k, q = key
        j = min(k, n - k)
        return q, n - j, -j

    orders = {
        "shuffled": random.Random(19).sample(list(expected), len(expected)),
        "per diagonal, descending": sorted(expected, key=diagonal_descending),
    }
    for name, order in orders.items():
        fresh_diagonals.clear()
        evicted = set()
        for n, k, q in order:
            before = set(fresh_diagonals.chains)
            assert kernel(n, k, q) == expected[n, k, q], (name, n, k, q)
            evicted |= before - set(fresh_diagonals.chains)
            if bound < qbinom.DIAGONAL_CACHE_BITS:
                assert fresh_diagonals.bits == kept_bits(fresh_diagonals) <= bound
        assert fresh_diagonals.bits == kept_bits(fresh_diagonals) <= bound
        assert evicted, name
        # after the evictions every value is still right, read or walked again
        for n, k, q in order[::7]:
            assert kernel(n, k, q) == expected[n, k, q], (name, n, k, q)
        assert fresh_diagonals.bits == kept_bits(fresh_diagonals) <= bound


def test_a_walk_past_the_bound_is_not_kept(monkeypatch, fresh_diagonals):
    kernel = gauss_binom.__wrapped__
    chain = [pascal_oracle(5 + j, j, 2) for j in range(6)]
    exact = sum(v.bit_length() for v in chain)
    monkeypatch.setattr(qbinom, "DIAGONAL_CACHE_BITS", exact)
    assert kernel(10, 5, 2) == chain[5]
    assert fresh_diagonals.chains == {(5, 2): (chain, exact)}
    assert fresh_diagonals.bits == exact
    fresh_diagonals.clear()
    monkeypatch.setattr(qbinom, "DIAGONAL_CACHE_BITS", exact - 1)
    assert kernel(10, 5, 2) == chain[5]
    assert fresh_diagonals.chains == {} and fresh_diagonals.bits == 0
    # a walk that extends a kept one past the bound drops it
    assert kernel(8, 3, 2) == chain[3]
    assert fresh_diagonals.chains == {(5, 2): (chain[:4], kept_bits(fresh_diagonals))}
    assert kernel(10, 5, 2) == chain[5]
    assert fresh_diagonals.chains == {} and fresh_diagonals.bits == 0
    # at the real bound: [1024,512]_2 alone passes it, and a kept walk stays
    monkeypatch.undo()
    assert kernel(40, 20, 3) == pascal_oracle(40, 20, 3)
    kept = dict(fresh_diagonals.chains)
    big = kernel(1024, 512, 2)
    assert fresh_diagonals.chains == kept
    assert big == kernel(1023, 511, 2) + 2**512 * kernel(1023, 512, 2)
    assert fresh_diagonals.chains == kept
    assert fresh_diagonals.bits == kept_bits(fresh_diagonals) <= qbinom.DIAGONAL_CACHE_BITS


def test_concurrent_walks_keep_the_bit_count(monkeypatch, fresh_diagonals):
    monkeypatch.setattr(qbinom, "DIAGONAL_CACHE_BITS", 20000)
    kernel = gauss_binom.__wrapped__
    keys = [(n, k, q) for q in (2, 7) for n in range(50) for k in range(min(n, 25) + 1)]
    expected = {key: pascal_oracle(*key) for key in keys}
    wrong = []

    def worker(seed):
        for key in random.Random(seed).sample(keys, len(keys)):
            if kernel(*key) != expected[key]:
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert fresh_diagonals.bits == kept_bits(fresh_diagonals) <= 20000


def test_a_diagonal_step_with_a_remainder_raises(monkeypatch, fresh_diagonals):
    # a stored value off by one makes the next step's division inexact
    kernel = gauss_binom.__wrapped__
    assert kernel(7, 2, 2) == 2667
    values, _ = fresh_diagonals.chains[(5, 2)]
    values[2] += 1  # 2668 (2^8 - 1) leaves 3 over 2^3 - 1
    with pytest.raises(ArithmeticError, match=r"\[8,3\]_2 came out inexact"):
        kernel(8, 3, 2)
    assert fresh_diagonals.chains == {} and fresh_diagonals.bits == 0
    assert kernel(8, 3, 2) == pascal_oracle(8, 3, 2)


_VERDICT_RSS = """
import os, resource, sys
from qktw import qbinom
from qktw.cli import run
qbinom.DIAGONAL_CACHE_BITS = int(sys.argv[1])
sys.stdout = open(os.devnull, "w")
assert run(["verdict", "-q", "2", "-n", "1024", "-k", "512", "-t", "1"]) == 0
sys.stderr.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
"""


def test_the_kept_walks_add_no_memory_to_a_large_verdict():
    # a bound of 0 keeps no walk: every binomial walks its diagonal afresh
    src = str(Path(__file__).resolve().parents[1] / "src")

    def peak_kib(bound):
        probe = subprocess.run(
            [sys.executable, "-c", _VERDICT_RSS, str(bound)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        return int(probe.stderr)

    assert peak_kib(qbinom.DIAGONAL_CACHE_BITS) - peak_kib(0) < 1024


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
    ``qbinom._horner``)."""
    return sum(Fraction(q) ** e for e in exponents)


@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 251]),
    exponents=st.lists(st.integers(-2000, 300), min_size=1, max_size=90),
)
def test_integer_window_sum_matches_the_fraction_sum(q, exponents):
    m, low = qbinom._horner(q, exponents)
    assert low == min(exponents)
    assert m * Fraction(q) ** low == fraction_sum(q, exponents)


def oracle_tail_sides(f, a, q, mode, window):
    """The majorant and the bound of ``parabola_tail_check``, term by term
    in Fraction arithmetic: each power of q a Fraction, summed one by one."""
    geo = Fraction(q, q - 1)

    def qf(e):
        return Fraction(q) ** e

    if mode == "above":
        lhs = fraction_sum(q, map(f.value, range(a, a + window + 1)))
        lhs += qf(f.value(a + window)) * geo
    elif mode == "below":
        lhs = fraction_sum(q, map(f.value, range(a - window, a + 1)))
        lhs += qf(f.value(a - window)) * geo
    if mode != "full":
        return lhs, qf(f.value(a)) * (1 + Fraction(1, q) + Fraction(1, q**3))
    factor = 1 + Fraction(2, q) + Fraction(2, q**3)
    if f.b % 2 == 0:
        x0 = f.b // 2
        lhs = fraction_sum(q, map(f.value, range(x0 - window, x0 + window + 1)))
        lhs += (qf(f.value(x0 - window)) + qf(f.value(x0 + window))) * geo
        return lhs, qf(f.value(x0)) * factor
    lo = (f.b - 1) // 2 - window
    hi = (f.b + 1) // 2 + window
    lhs = fraction_sum(q, map(f.value, range(lo, hi + 1)))
    lhs += (qf(f.value(lo)) + qf(f.value(hi))) * geo
    return lhs**4, qf(4 * f.c + f.b * f.b) * factor**4


@pytest.mark.parametrize("window", [1, 40])
def test_parabola_grid_matches_the_fraction_sum(window):
    grid = parabola_case_grid()
    assert len(grid) == 200
    for quad, a, q, mode in grid:
        case = parabola_tail_check(quad, a, q, mode, window=window)
        lhs, rhs = oracle_tail_sides(quad, a, q, mode, window)
        assert (case.lhs, case.rhs, case.passed) == (lhs, rhs, lhs < rhs)
        assert case.witness["fourth_power"] == (mode == "full" and quad.b % 2 == 1)
        assert case.to_json()["lhs"] == exact_str(lhs)


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
                assert 4 * (Fraction(quad.b * quad.b, 4) + quad.c) == (3 * k + 1 - t - n) ** 2 - 4 * t


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
