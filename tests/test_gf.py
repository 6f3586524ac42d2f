import pytest
from hypothesis import given
from hypothesis import strategies as st

from qktw.errors import NotAPrimePowerError, SizeLimitError, UnsupportedFieldError
from qktw.gf import (
    MILLER_RABIN_EXACT_BELOW,
    make_field,
    prime_power,
    prime_powers_up_to,
    primitive_element,
)

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16]
ALL_TABLE_FIELDS = prime_powers_up_to(64)


def test_prime_power_decomposition():
    assert prime_power(2) == (2, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(27) == (3, 3)
    assert prime_power(49) == (7, 2)
    with pytest.raises(NotAPrimePowerError):
        prime_power(6)
    with pytest.raises(NotAPrimePowerError):
        prime_power(1)


def trial_division_prime_power(q, spf):
    """(p, e) from the smallest prime factor, or None: the trial-division
    decomposition, with the factors read from a sieve."""
    p, e = spf[q], 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def test_prime_power_agrees_with_trial_division():
    limit = 10**5
    spf = list(range(limit + 1))
    for d in range(2, int(limit**0.5) + 1):
        if spf[d] == d:
            for m in range(d * d, limit + 1, d):
                if spf[m] == m:
                    spf[m] = d
    for q in range(2, limit + 1):
        expected = trial_division_prime_power(q, spf)
        if expected is None:
            with pytest.raises(NotAPrimePowerError):
                prime_power(q)
        else:
            assert prime_power(q) == expected


def test_prime_power_on_large_orders():
    assert prime_power(10**18 + 3) == (10**18 + 3, 1)
    assert prime_power((10**9 + 7) ** 2) == (10**9 + 7, 2)
    assert prime_power(2**61) == (2, 61)
    assert prime_power((2**61 - 1) ** 3) == (2**61 - 1, 3)
    assert prime_power(3**9000) == (3, 9000)
    for q in (
        10**18 + 4,
        6**20,
        (10**9 + 7) * (10**9 + 9),
        (2**61 - 1) ** 2 * 3,
        # strong pseudoprimes to the first 3, 4, 9 and 12 prime bases
        25326001,
        3215031751,
        3825123056546413051,
        318665857834031151167461,
    ):
        with pytest.raises(NotAPrimePowerError):
            prime_power(q)


def test_prime_power_refuses_what_it_cannot_decide_exactly():
    # 2^89 - 1 is prime but past the exact Miller-Rabin range, as is the
    # strong pseudoprime to the first 13 prime bases
    for q in (2**89 - 1, (2**89 - 1) ** 2, MILLER_RABIN_EXACT_BELOW):
        with pytest.raises(SizeLimitError):
            prime_power(q)
    # a factor up to 41 still decides a large order at once
    with pytest.raises(NotAPrimePowerError):
        prime_power(41 * (2**89 - 1))
    assert prime_power(41**30) == (41, 30)


def test_make_field_basic():
    f2 = make_field(2)
    assert (f2.p, f2.e) == (2, 1)
    f4 = make_field(4)
    assert (f4.p, f4.e) == (2, 2)
    assert f4.modulus == (1, 1, 1)
    with pytest.raises(NotAPrimePowerError):
        make_field(6)
    with pytest.raises(NotAPrimePowerError):
        make_field(12)


def test_every_order_past_the_tables_is_refused():
    # primes and prime powers alike: every field is a lookup-table field
    for q in (67, 127, 251, 81, 128):
        with pytest.raises(UnsupportedFieldError, match=f"^order {q} exceeds"):
            make_field(q)


def test_gf4_multiplication_by_hand():
    # x * x = x + 1 modulo x^2 + x + 1; reps: x = 2, x + 1 = 3
    f4 = make_field(4)
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1  # x(x+1) = x^2 + x = 1
    assert f4.inv(2) == 3


def test_small_inverses():
    assert make_field(3).inv(2) == 2
    assert make_field(5).inv(3) == 2
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)


def test_identity_is_neutral():
    for q in SMALL_FIELDS:
        f = make_field(q)
        for a in range(f.q):
            assert f.mul(a, 1) == a
            assert f.add(a, 0) == a


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    elems = list(range(f.q))
    for a in elems:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_frobenius(q):
    f = make_field(q)
    for a in range(f.q):
        power = 1
        for _ in range(q):
            power = f.mul(power, a)
        assert power == a


class SchoolbookField:
    """F_q arithmetic on coefficient lists, the schoolbook way: digits
    added mod p, products convolved and reduced by the field's modulus."""

    def __init__(self, f):
        self.q, self.p, self.e, self.modulus = f.q, f.p, f.e, f.modulus

    def digits(self, a):
        return [a // self.p**i % self.p for i in range(self.e)]

    def element(self, digits):
        return sum(d * self.p**i for i, d in enumerate(digits))

    def add(self, a, b):
        return self.element([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.element([-x % self.p for x in self.digits(a)])

    def mul(self, a, b):
        p, e = self.p, self.e
        product = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                product[i + j] += x * y
        for i in range(2 * e - 2, e - 1, -1):
            for j, m in enumerate(self.modulus[:-1]):
                product[i - e + j] -= product[i] * m
            product[i] = 0
        return self.element([c % p for c in product[:e]])


@pytest.mark.parametrize("q", ALL_TABLE_FIELDS)
def test_tables_equal_the_schoolbook_arithmetic(q):
    f = make_field(q)
    oracle = SchoolbookField(f)
    elems = range(q)
    assert [[f.add(a, b) for b in elems] for a in elems] == [
        [oracle.add(a, b) for b in elems] for a in elems
    ]
    products = [[oracle.mul(a, b) for b in elems] for a in elems]
    assert [[f.mul(a, b) for b in elems] for a in elems] == products
    assert [f.neg(a) for a in elems] == [oracle.neg(a) for a in elems]
    assert [f.inv(a) for a in elems if a] == [products[a].index(1) for a in elems if a]


@pytest.mark.parametrize("q", ALL_TABLE_FIELDS)
def test_primitive_element_is_the_least_generator(q):
    oracle = SchoolbookField(make_field(q))

    def distinct_powers(w):
        powers, power = set(), 1
        for _ in range(q - 1):
            power = oracle.mul(power, w)
            powers.add(power)
        return len(powers)

    w = primitive_element(make_field(q))
    assert distinct_powers(w) == q - 1
    assert all(distinct_powers(v) < q - 1 for v in range(1, w))


@pytest.mark.parametrize("q", ALL_TABLE_FIELDS)
def test_no_zero_divisors_and_group_order(q):
    # zero-divisor-freeness certifies that each modulus is irreducible
    f = make_field(q)
    nonzero = [a for a in range(f.q) if a]
    assert len(nonzero) == q - 1
    for a in nonzero:
        assert f.mul(a, f.inv(a)) == 1
        for b in nonzero:
            assert f.mul(a, b) != 0


@given(
    q=st.sampled_from([25, 27, 32, 49, 64]),
    data=st.data(),
)
def test_sampled_axioms_bigger_fields(q, data):
    f = make_field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.sub(f.add(a, b), b) == a


@pytest.mark.parametrize("q", ALL_TABLE_FIELDS)
@given(data=st.data())
def test_axpy_and_scale_match_the_scalar_ops(q, data):
    # every field, entry by entry
    f = make_field(q)
    elem = st.integers(0, q - 1)
    n = data.draw(st.integers(0, 7))
    x = data.draw(st.lists(elem, min_size=n, max_size=n))
    y = data.draw(st.lists(elem, min_size=n, max_size=n))
    c = data.draw(elem)
    assert f.axpy(x, c, y) == [f.add(a, f.mul(c, b)) for a, b in zip(x, y)]
    assert f.scale(c, x) == [f.mul(c, a) for a in x]


@pytest.mark.parametrize("q", ALL_TABLE_FIELDS)
def test_vector_ops_refuse_a_scalar_outside_the_field(q):
    # a table row read at -1 would be row q - 1: in GF(4) that makes
    # "-1 * 3" equal 2, but -1 = 1 there and 1 * 3 = 3
    f = make_field(q)
    for c in (-1, q):
        with pytest.raises(ValueError, match=f"scalar {c} is not an element of GF"):
            f.axpy([1, 0], c, [1, 1])
        with pytest.raises(ValueError, match=f"scalar {c} is not an element of GF"):
            f.scale(c, [1, 1])
    assert make_field(4).axpy([0], 1, [3]) == [3]


@pytest.mark.parametrize("q", ALL_TABLE_FIELDS)
def test_scalar_ops_refuse_an_element_outside_the_field(q):
    # the scalar ops read the same table rows as axpy and scale
    f = make_field(q)
    for bad in (-1, q, -q):
        for op, args in (
            (f.add, (bad, 1)), (f.add, (1, bad)),
            (f.sub, (bad, 1)), (f.sub, (1, bad)),
            (f.mul, (bad, 1)), (f.mul, (1, bad)),
            (f.neg, (bad,)), (f.inv, (bad,)),
        ):
            with pytest.raises(ValueError, match=f"^{bad} is not an element of GF\\({q}\\)$"):
                op(*args)
    top = q - 1
    assert f.add(top, 0) == f.sub(top, 0) == f.mul(top, 1) == f.neg(f.neg(top)) == top
    assert make_field(4).mul(1, 3) == 3


def test_prime_power_keeps_answers_but_raises_every_refusal_again():
    prime_power.cache_clear()
    assert prime_power(251) == prime_power(251) == (251, 1)
    assert prime_power.cache_info().hits == 1
    for q, error in ((12, NotAPrimePowerError), (1, NotAPrimePowerError), (2**89 - 1, SizeLimitError)):
        for _ in range(2):
            with pytest.raises(error):
                prime_power(q)
    assert prime_power.cache_info().currsize == 1
