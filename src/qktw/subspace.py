"""Canonical subspaces of F_q^n.

A subspace is stored as its reduced row echelon basis (RREF): pivots are
1 with zeros above and below, pivot columns strictly increase.  RREF is a
unique representative, so equality and hashing of Subspace values decide
equality of subspaces.

Enumeration walks Schubert cells: choose the pivot columns, then fill the
free entries.  :func:`subspaces_of` is the one lister of the t-subspaces
(and so of the projective points) inside a given subspace: it lifts the
enumeration of F_q^k, made once per (k, t, q), through the subspace's
RREF basis, and the lifts are RREF and sorted as they come.  A subspace
is determined by its point set, so :func:`held_subspaces` lifts only the
points of a list of spaces, numbers them once, and knows every held
subspace of dimension 2 and up by its point mask; which points of F_q^k
each t-subspace holds is one table per (k, t, q).  Sub-subspaces come
out of :func:`subspaces_of` as RREF row tuples; :func:`held_subspaces`
keeps only its points that way and passes the larger ones as point
masks.  Whole incidence relations ("meets in dimension >= t") come from
shared t-subspaces as bitmasks, without a per-pair elimination
(:func:`meet_masks`).  The image of a subspace under a linear map is
:func:`linear_image`, with the map as its matrix rows.

The field arithmetic runs on whole rows: the lifts, Gauss-Jordan
(:func:`_row_reduce`, under :func:`rref_canonical`, :func:`nullspace_rows`
and :func:`orthogonal_complement`) and :func:`linear_image` make every
row operation one :meth:`FieldSpec.axpy` or ``scale``, never one ``add``
or ``mul`` per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import AmbientMismatchError, DimensionMismatchError, SizeLimitError
from .gf import FieldSpec
from .qbinom import gauss_binom

DEFAULT_ENUMERATION_CAP = 2_000_000

# Entries kept by _coefficient_rows, _lift_plan and _point_sets, each one
# per (dim u, t, q) asked for; verify-all asks them for 6, 3 and 3.
COEFFICIENT_CACHE_SIZE = 64

_HEX = "0123456789abcdef"


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of F_q^n as its RREF basis.

    ``rows`` must already be in reduced row echelon form; go through
    :func:`rref_canonical` for arbitrary input.  k = 0 (zero space) is
    represented by an empty row tuple.
    """

    field: FieldSpec
    n: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.rows)

    def text(self) -> str:
        """Stable text form: one digit string per row, rows joined by '|'."""
        if self.field.q <= 16:
            return "|".join("".join(_HEX[v] for v in row) for row in self.rows)
        return "|".join(",".join(str(v) for v in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"Subspace(GF({self.field.q}), n={self.n}, {self.text() or '0'})"


# -- elimination kernels ------------------------------------------------


def _row_reduce(rows: Iterable[Sequence[int]], f: FieldSpec) -> list[list[int]]:
    """Full Gauss-Jordan; returns the nonzero RREF rows, pivots ascending.
    Every row operation is one :meth:`FieldSpec.axpy` or ``scale``.

    Invariant: every stored pivot row is zero at all other pivot columns,
    so a single reduction pass per incoming row suffices.
    """
    pivots: list[tuple[int, list[int]]] = []
    for raw in rows:
        r = list(raw)
        for col, prow in pivots:
            coef = r[col]
            if coef:
                r = f.axpy(r, f.neg(coef), prow)
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        c = f.inv(r[lead])
        if c != 1:
            r = f.scale(c, r)
        for _, prow in pivots:
            c2 = prow[lead]
            if c2:
                prow[:] = f.axpy(prow, f.neg(c2), r)
        pivots.append((lead, r))
    pivots.sort(key=lambda cp: cp[0])
    return [row for _, row in pivots]


def nullspace_rows(rows: Sequence[Sequence[int]], f: FieldSpec, n: int) -> list[tuple[int, ...]]:
    """Basis rows (RREF) of the solution space of ``rows @ x = 0`` in F_q^n."""
    reduced = _row_reduce(rows, f)
    pivcols = [next(j for j, x in enumerate(r) if x) for r in reduced]
    pivset = set(pivcols)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        vec = [0] * n
        vec[free] = 1
        for i, pc in enumerate(pivcols):
            vec[pc] = f.neg(reduced[i][free])
        basis.append(vec)
    return [tuple(r) for r in _row_reduce(basis, f)]


# -- public operations ---------------------------------------------------


def rref_canonical(rows: Sequence[Sequence[int]], f: FieldSpec) -> Subspace:
    """Canonical Subspace spanned by the given rows (dimension = rank)."""
    rows = [list(r) for r in rows]
    if not rows:
        raise DimensionMismatchError("need at least one row")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("ragged row input")
    q = f.q
    for r in rows:
        for v in r:
            if not 0 <= v < q:
                raise ValueError(f"entry {v} is not an element of GF({q})")
    reduced = _row_reduce(rows, f)
    return Subspace(f, n, tuple(tuple(r) for r in reduced))


def enumerate_k_subspaces(n: int, k: int, f: FieldSpec) -> list[Subspace]:
    """All k-dimensional subspaces of F_q^n, sorted lexicographically by RREF.

    The count equals the Gaussian binomial [n,k]_q; a count past
    DEFAULT_ENUMERATION_CAP raises SizeLimitError before any is built.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = gauss_binom(n, k, f.q)
    if total > DEFAULT_ENUMERATION_CAP:
        raise SizeLimitError(
            f"[{n},{k}]_{f.q} = {total} subspaces exceeds the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    out: list[Subspace] = []
    elems = range(f.q)
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivset
        ]
        for assign in product(elems, repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(free, assign):
                rows[i][j] = v
            out.append(Subspace(f, n, tuple(tuple(r) for r in rows)))
    out.sort(key=lambda s: s.rows)
    if len(out) != total:
        raise ArithmeticError(f"enumerated {len(out)} subspaces, [{n},{k}]_{f.q} = {total}")
    return out


@lru_cache(maxsize=COEFFICIENT_CACHE_SIZE)
def _coefficient_rows(k: int, t: int, f: FieldSpec) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The RREF row tuples of the t-subspaces of F_q^k, in enumeration order."""
    return tuple(w.rows for w in enumerate_k_subspaces(k, t, f))


@lru_cache(maxsize=COEFFICIENT_CACHE_SIZE)
def _lift_plan(
    k: int, t: int, f: FieldSpec
) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, ...], ...]]:
    """How :func:`subspaces_of` lifts the t-subspaces of F_q^k: steps that
    build each distinct row of their RREF bases, and per t-subspace, in
    enumeration order, the step numbers of its rows.

    A row whose only nonzero entry is its leading 1, at j, is step
    (-1, j, 1): its lift is row j of u, with no arithmetic.  Any other row
    is its parent, the same row with its last nonzero entry c (at j) made
    0, plus c times e_j: step (parent's step, j, c).  A parent keeps the
    leading 1 and comes before its children, so each lift is one axpy.
    """
    at: dict[tuple[int, ...], int] = {}
    steps: list[tuple[int, int, int]] = []

    def step(coords: tuple[int, ...]) -> int:
        s = at.get(coords)
        if s is None:
            nonzero = [j for j, c in enumerate(coords) if c]
            j = nonzero[-1]
            parent = step(coords[:j] + (0,) * (k - j)) if len(nonzero) > 1 else -1
            s = at[coords] = len(steps)
            steps.append((parent, j, coords[j]))
        return s

    slots = tuple(tuple(map(step, w)) for w in _coefficient_rows(k, t, f))
    return tuple(steps), slots


def subspaces_of(u: Subspace, t: int) -> list[tuple[tuple[int, ...], ...]]:
    """The t-dimensional subspaces of u, as the RREF row tuples of
    subspaces of the ambient space, sorted lexicographically.

    Each t-subspace w of F_q^k (k = dim u), in RREF, lifts to w . u.rows.
    The rows of u are RREF, so at u's pivot columns the lift repeats w's
    entries and is zero before the first of them: the lift is already
    RREF.  Two coefficient rows that first differ at index j give lifts
    that first differ at u's j-th pivot column, by the same values, so the
    lifts keep the enumeration's order.  Nothing is re-reduced or sorted.
    The lifts run on whole table rows: each distinct coefficient row is
    lifted once, by :func:`_lift_plan`, starting from the row of u at its
    leading 1 and adding the rest one :meth:`FieldSpec.axpy` at a time.
    The coefficient subspaces and the plan are made once per (k, t, q).
    """
    if not 0 <= t <= u.k:
        raise ValueError(f"need 0 <= t <= dim, got t={t}, dim={u.k}")
    steps, slots = _lift_plan(u.k, t, u.field)
    axpy, rows = u.field.axpy, u.rows
    lifts: list[tuple[int, ...]] = []
    for parent, j, c in steps:
        lifts.append(rows[j] if parent < 0 else tuple(axpy(lifts[parent], c, rows[j])))
    return [tuple(map(lifts.__getitem__, s)) for s in slots]


@lru_cache(maxsize=COEFFICIENT_CACHE_SIZE)
def _point_sets(k: int, t: int, f: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """Per t-subspace of F_q^k, in enumeration order, the enumeration
    numbers of its points among the 1-subspaces of F_q^k."""
    number = {p: j for j, p in enumerate(_coefficient_rows(k, 1, f))}
    return tuple(
        tuple(number[p] for p in subspaces_of(Subspace(f, k, w), 1))
        for w in _coefficient_rows(k, t, f)
    )


def held_subspaces(
    spaces: Sequence[Subspace], top: int
) -> tuple[list[tuple[tuple[int, ...], ...]], list[tuple[list[int], list[list[int]]]]]:
    """Number the subspaces of dimension 0..top that the spaces hold, by
    their point masks.

    Each space's points are lifted once by :func:`subspaces_of` and
    numbered in first-seen order; bit p of a point mask is point p.  A
    subspace is its point set, so a t-subspace of a space is keyed by the
    OR of its points' bits, found through :func:`_point_sets`, and the
    t-subspaces are numbered in first-seen order of those masks.  Returns
    the held points as RREF row tuples, listed by number, and per t =
    0..top the held masks, listed by number, with per space the numbers of
    its own t-subspaces in :func:`subspaces_of` order.  Level 0 is the
    zero space, mask 0, held by every space; top = 0 lifts nothing.  Every
    space needs dimension >= top and one ambient space.
    """
    f, n = spaces[0].field, spaces[0].n
    number: dict[tuple[tuple[int, ...], ...], int] = {}
    on_points = []
    for u in spaces:
        if u.field != f or u.n != n:
            raise AmbientMismatchError("subspaces live in different ambient spaces")
        if not 0 <= top <= u.k:
            raise ValueError(f"need 0 <= top <= dim, got top={top}, dim={u.k}")
        lifts = subspaces_of(u, 1) if top else ()
        on_points.append([number.setdefault(p, len(number)) for p in lifts])
    levels = [([0], [[0] for _ in spaces]), ([1 << p for p in range(len(number))], on_points)]
    for t in range(2, top + 1):
        held: dict[int, int] = {}
        numbers = []
        for u, mine in zip(spaces, on_points):
            bits = [1 << p for p in mine]
            masks = (sum(map(bits.__getitem__, ps)) for ps in _point_sets(u.k, t, f))
            numbers.append([held.setdefault(m, len(held)) for m in masks])
        levels.append((list(held), numbers))
    return list(number), levels[: top + 1]


def meet_masks(spaces: Sequence[Subspace], t: int) -> list[int]:
    """Incidence masks: bit j of mask i is set iff dim(spaces[i] ∩ spaces[j]) >= t.

    Two subspaces meet in dimension >= t exactly when they share a
    t-subspace.  Each t-subspace :func:`held_subspaces` numbers gets the
    mask of the spaces containing it, and a space's mask is the OR of
    those masks over its own t-subspaces; no pair is compared.  Masks
    follow the input order, and every space needs dimension >= t.
    ``oracle_intersect_dim`` in the tests, one elimination per pair, is
    the oracle they compare against.
    """
    held, numbers = held_subspaces(spaces, t)[1][t]
    containing = [0] * len(held)
    for i, mine in enumerate(numbers):
        bit = 1 << i
        for x in mine:
            containing[x] |= bit
    masks = []
    for mine in numbers:
        mask = 0
        for x in mine:
            mask |= containing[x]
        masks.append(mask)
    return masks


# A linear map of F_q^n on row vectors as its matrix M, one row per unit
# vector: row i is the image of e_i, so x M is the sum of x_i (row i).
LinearMap = tuple[tuple[int, ...], ...]


def linear_image(m: LinearMap, rows: Sequence[Sequence[int]], f: FieldSpec) -> Subspace:
    """The span of ``rows`` times M, canonical: the image of their span
    under the map, of lower dimension when M is singular on it.  Each
    image is the sum of x_i (row i of M), one axpy per nonzero x_i."""
    images = []
    for x in rows:
        image = [0] * len(m[0])
        for c, image_row in zip(x, m):
            if c:
                image = f.axpy(image, c, image_row)
        images.append(image)
    return rref_canonical(images, f)


def orthogonal_complement(u: Subspace) -> Subspace:
    """Null space of the basis under the standard dot form sum_i x_i y_i;
    for the zero space, the null space of no rows, F_q^n."""
    return Subspace(u.field, u.n, tuple(nullspace_rows(u.rows, u.field, u.n)))
