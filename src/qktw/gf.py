"""Exact arithmetic in small finite fields.

Elements of F_q are plain integers in [0, q).  For prime q the integer is
the residue; for q = p^e it packs the coefficient vector of the residue
polynomial in base p (digit i = coefficient of x^i).  Plain-int elements
compare, hash, and sort like ints, which is exactly what the subspace
canonical forms need.

Every field is a lookup-table field: the orders are the prime powers up
to 64, each with full add/mul/neg/inv tables, since subspace enumeration
and rank computations hit them in their innermost loops.  Larger orders
are refused.  Each table entry is built from entries already built:
addition digit by digit, multiplication by Horner's rule on the digits
of one factor through a table of multiplication by x.  The vector
kernels (the lifts, row reduction and linear maps of
:mod:`qktw.subspace`) go through one primitive,
:meth:`FieldSpec.axpy` (x + c*y over whole rows), and
:meth:`FieldSpec.scale`: each reads the row mul[c] once per vector
instead of calling ``mul`` and ``add`` per coordinate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Sequence

from .errors import BudgetExceededError, NotAPrimePowerError

MAX_TABLE_ORDER = 64

# One fixed monic irreducible modulus per supported extension field,
# coefficients ascending (constant term first, leading 1 last).
_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),               # x^2 + x + 1
    8: (1, 1, 0, 1),            # x^3 + x + 1
    9: (1, 0, 1),               # x^2 + 1
    16: (1, 1, 0, 0, 1),        # x^4 + x + 1
    25: (2, 0, 1),              # x^2 + 2
    27: (1, 2, 0, 1),           # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0, 1),     # x^5 + x^2 + 1
    49: (1, 0, 1),              # x^2 + 1
    64: (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
}


# Miller-Rabin to the first thirteen prime bases decides primality exactly
# below this bound (Sorenson and Webster 2015, OEIS A014233).  Above it a
# "prime" verdict would only be probable, so larger candidates without a
# small factor are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def _is_prime(r: int) -> bool:
    """Exact primality of r >= 2; BudgetExceededError where it cannot be exact."""
    for b in _MR_BASES:
        if r % b == 0:
            return r == b
    if r >= MILLER_RABIN_EXACT_BELOW:
        raise BudgetExceededError(
            f"{r} has no prime factor up to 41, and primality is decided "
            f"exactly only below {MILLER_RABIN_EXACT_BELOW}"
        )
    s = ((r - 1) & (1 - r)).bit_length() - 1
    d = (r - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, r)
        if x == 1 or x == r - 1:
            continue
        for _ in range(s - 1):
            x = x * x % r
            if x == r - 1:
                break
        else:
            return False
    return True


def _exact_root(q: int, e: int) -> int | None:
    """The integer r with r**e == q, if there is one (q >= 2, e >= 1)."""
    if e == 1:
        return q
    x = math.log2(q) / e
    if x < 40:
        # the float is within 0.01 of a root below 2^40; the low 64 bits
        # reject almost every wrong guess before the full power is taken
        r = round(2**x)
        if pow(r, e, 1 << 64) != q & ((1 << 64) - 1):
            return None
    else:
        # integer Newton from just above the root, which the float gives
        # to about 30 bits
        k = max(int(x) - 50, 0)
        r = (int(2 ** (x - k) * (1 + 1e-9)) + 1) << k
        while True:
            s = ((e - 1) * r + q // r ** (e - 1)) // e
            if s >= r:
                break
            r = s
    return r if r**e == q else None


@lru_cache(maxsize=1024)
def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p**e with p prime; raise NotAPrimePowerError otherwise.

    Takes the exact integer e-th root of q for e from log2(q) down to 1;
    the first exact root r is the only candidate for p, since a composite
    r makes q have two prime divisors.  Its primality is decided exactly
    (`_is_prime`); a prime candidate too large for that raises
    BudgetExceededError instead of a probable verdict.  Answers are kept for
    the last 1,024 orders asked (a formula sweep asks the same few orders
    thousands of times); a refusal is not kept, so it is raised again.
    """
    if q < 2:
        raise NotAPrimePowerError(f"field order must be at least 2, got {q}")
    for e in range(q.bit_length() - 1, 0, -1):
        r = _exact_root(q, e)
        if r is not None:
            break
    if not _is_prime(r):
        raise NotAPrimePowerError(f"{q} is not a prime power")
    return r, e


def is_prime_power(q: int) -> bool:
    try:
        prime_power(q)
    except NotAPrimePowerError:
        return False
    return True


def prime_powers_up_to(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


class FieldSpec:
    """Arithmetic for one finite field F_q.

    Use :func:`make_field`; instances are cached and shared, so equality
    and hashing reduce to the order q.
    """

    __slots__ = ("q", "p", "e", "modulus", "_add", "_mul", "_inv", "_neg")

    def __init__(self, q: int, p: int, e: int, modulus: tuple[int, ...]):
        self.q = q
        self.p = p
        self.e = e
        self.modulus = modulus
        self._build_tables()

    # -- construction -------------------------------------------------

    def _build_tables(self) -> None:
        """Fill the add and mul tables from entries already built, by the
        three rules below; neg and inv are then read off their rows."""
        q, p = self.q, self.p
        # Addition, digit by digit with no carry: the low digit of a + b is
        # (a + b) mod p, and the digits above it are those of a // p + b // p.
        add = [list(range(q))]
        for a in range(1, q):
            higher = add[a // p]
            add.append([higher[b // p] * p + (a + b) % p for b in range(q)])
        neg = [row.index(0) for row in add]
        # Multiplication by x shifts the digits up one place; a top digit
        # shifted out is x^e, which is minus the modulus's lower terms
        # (`low`), so each unit of it adds neg[low].  Unused when e = 1.
        top = q // p
        low = sum(m * p**i for i, m in enumerate(self.modulus[:-1]))
        times_x: list[int] = []
        for c in range(q):
            times_x.append(c * p if c < top else add[times_x[c - top]][neg[low]])
        # Multiplication, by Horner's rule on b's digits: a * b is
        # a * (b - 1) + a for a one-digit b, and otherwise
        # x * (a * (b // p)) + a * (b mod p).
        mul = []
        for a in range(q):
            row = [0]
            for b in range(1, q):
                row.append(add[row[b - 1]][a] if b < p else add[times_x[row[b // p]]][row[b % p]])
            mul.append(row)
        self._add = add
        self._mul = mul
        self._neg = neg
        self._inv = [0] + [row.index(1) for row in mul[1:]]

    # -- operations ----------------------------------------------------

    # The scalar ops take elements only, 0..q-1, and raise ValueError for
    # anything else: a table would read a negative element as a wrong row.
    # a | b >= 0 iff both are nonnegative, and an element past q has no
    # table entry; the try costs nothing when nothing is raised.

    def _not_elements(self, *xs: int) -> ValueError:
        bad = next(x for x in xs if not 0 <= x < self.q)
        return ValueError(f"{bad} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        if (a | b) >= 0:
            try:
                return self._add[a][b]
            except IndexError:
                pass
        raise self._not_elements(a, b)

    def neg(self, a: int) -> int:
        if a >= 0:
            try:
                return self._neg[a]
            except IndexError:
                pass
        raise self._not_elements(a)

    def sub(self, a: int, b: int) -> int:
        if (a | b) >= 0:
            try:
                return self._add[a][self._neg[b]]
            except IndexError:
                pass
        raise self._not_elements(a, b)

    def mul(self, a: int, b: int) -> int:
        if (a | b) >= 0:
            try:
                return self._mul[a][b]
            except IndexError:
                pass
        raise self._not_elements(a, b)

    def axpy(self, x: Sequence[int], c: int, y: Sequence[int]) -> list[int]:
        """x + c*y coordinatewise, in one pass over the table rows mul[c]
        and add[a].  c must be an element, 0..q-1."""
        if not 0 <= c < self.q:
            raise ValueError(f"scalar {c} is not an element of GF({self.q})")
        row, add = self._mul[c], self._add
        return [add[a][row[b]] for a, b in zip(x, y)]

    def scale(self, c: int, x: Sequence[int]) -> list[int]:
        """c*x coordinatewise; c must be an element, 0..q-1."""
        if not 0 <= c < self.q:
            raise ValueError(f"scalar {c} is not an element of GF({self.q})")
        return list(map(self._mul[c].__getitem__, x))

    def inv(self, a: int) -> int:
        """The multiplicative inverse of a nonzero element, from the table;
        0 raises ZeroDivisionError, a non-element ValueError."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if a > 0:
            try:
                return self._inv[a]
            except IndexError:
                pass
        raise self._not_elements(a)

    # -- identity ------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpec) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.q))


def primitive_element(f: FieldSpec) -> int:
    """The least element of multiplicative order q - 1, a generator of F_q^*:
    the least w whose running products w, w^2, ..., w^(q-1) are distinct."""
    q = f.q
    return next(w for w in range(1, q) if len(set(accumulate(repeat(w, q - 1), f.mul))) == q - 1)


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Return the canonical FieldSpec for prime-power q.

    The orders are the prime powers up to MAX_TABLE_ORDER (64): primes
    reduce modulo q, and the other orders use the built-in modulus table.
    A larger prime power raises ValueError, whatever its prime.
    """
    p, e = prime_power(q)
    if q > MAX_TABLE_ORDER:
        raise ValueError(
            f"order {q} exceeds the supported table range (q <= {MAX_TABLE_ORDER})"
        )
    return FieldSpec(q, p, e, _MODULI[q] if e > 1 else ())
