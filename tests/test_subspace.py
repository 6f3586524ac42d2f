import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qktw import kneser, subspace
from qktw.errors import BudgetExceededError
from qktw.gf import make_field, prime_powers_up_to
from qktw.graph import Graph
from qktw.kneser import KneserParams, build_kneser_graph, star_independent_set
from qktw.qbinom import gauss_binom
from qktw.quadric import QuadricModel
from qktw.subspace import (
    Subspace,
    enumerate_k_subspaces,
    held_subspaces,
    linear_image,
    meet_masks,
    nullspace_rows,
    orthogonal_complement,
    rref_canonical,
    subspaces_of,
)

from subspace_helpers import oracle_intersect_dim, oracle_perp_space

F2 = make_field(2)
F3 = make_field(3)


def unit(n, i, f=F2):
    return tuple(1 if j == i else 0 for j in range(n))


def span(f, *rows):
    return rref_canonical(rows, f)


def contains(u, v):
    """Whether v lies in u, by elimination."""
    return oracle_intersect_dim(u, v) == v.k


def test_rref_examples():
    u = rref_canonical([(1, 1, 0), (0, 1, 1)], F2)
    assert u.rows == ((1, 0, 1), (0, 1, 1))
    dup = rref_canonical([(1, 0), (1, 0)], F2)
    assert dup.rows == ((1, 0),)
    scaled = rref_canonical([(2, 0, 0)], F3)
    assert scaled.rows == ((1, 0, 0),)


def test_rref_errors():
    with pytest.raises(ValueError, match="^need at least one row$"):
        rref_canonical([], F2)
    with pytest.raises(ValueError, match="^ragged row input$"):
        rref_canonical([(1, 0), (1, 0, 1)], F2)
    with pytest.raises(ValueError):
        rref_canonical([(2, 0)], F2)


def test_enumeration_counts():
    assert len(enumerate_k_subspaces(4, 2, F2)) == 35
    assert len(enumerate_k_subspaces(4, 2, F3)) == 130
    for n in range(6):
        (empty,) = enumerate_k_subspaces(n, 0, F2)
        assert (empty.n, empty.k, empty.rows) == (n, 0, ())


def test_enumeration_matches_gauss_binom():
    for q, max_n in ((2, 6), (3, 6), (4, 5), (5, 5)):
        f = make_field(q)
        for n in range(max_n + 1):
            for k in range(n + 1):
                subs = enumerate_k_subspaces(n, k, f)
                assert len(subs) == gauss_binom(n, k, q)
                assert len(set(subs)) == len(subs)


def test_enumeration_is_sorted_and_capped():
    subs = enumerate_k_subspaces(4, 2, F2)
    assert subs == sorted(subs, key=lambda s: s.rows)
    # [10,5]_2 = 109,221,651 is past DEFAULT_ENUMERATION_CAP: refused before
    # any subspace is built
    with pytest.raises(
        BudgetExceededError, match=r"^\[10,5\]_2 = 109221651 subspaces exceeds the cap of 2000000$"
    ):
        enumerate_k_subspaces(10, 5, F2)


def test_enumeration_count_mismatch_raises(monkeypatch):
    # the count check is explicit, not an assert that ``python -O`` strips
    monkeypatch.setattr(subspace, "gauss_binom", lambda n, k, q: 36)
    with pytest.raises(ArithmeticError, match="enumerated 35 subspaces"):
        enumerate_k_subspaces(4, 2, F2)


def test_meet_masks_examples():
    # three lines of PG(3,2) in a chain: u meets v and v meets w in a
    # point, u and w are disjoint; the masks follow the input order
    u = span(F2, unit(4, 0), unit(4, 1))
    v = span(F2, unit(4, 1), unit(4, 2))
    w = span(F2, unit(4, 2), unit(4, 3))
    assert meet_masks([u, v, w], 0) == [0b111, 0b111, 0b111]
    assert meet_masks([u, v, w], 1) == [0b011, 0b111, 0b110]
    assert meet_masks([u, v, w], 2) == [0b001, 0b010, 0b100]
    assert meet_masks([u, u], 2) == [0b11, 0b11]
    with pytest.raises(ValueError, match="^subspaces live in different ambient spaces$"):
        meet_masks([u, span(F3, unit(4, 0, F3), unit(4, 1, F3))], 1)


def test_orthogonal_complement_examples():
    e1 = span(F2, unit(3, 0))
    assert orthogonal_complement(e1).rows == ((0, 1, 0), (0, 0, 1))
    full = span(F2, unit(3, 0), unit(3, 1), unit(3, 2))
    assert orthogonal_complement(full).k == 0
    self_dual = span(F2, (1, 1, 0, 0), (0, 0, 1, 1))
    assert orthogonal_complement(self_dual) == self_dual
    zero = Subspace(F2, 3, ())
    assert orthogonal_complement(zero).k == 3


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_complement_involution_and_containment_reversal(q, n):
    f = make_field(q)
    all_subs = [s for k in range(n + 1) for s in enumerate_k_subspaces(n, k, f)]
    for s in all_subs:
        c = orthogonal_complement(s)
        assert c.k == n - s.k
        assert orthogonal_complement(c) == s
    for u in all_subs:
        for v in all_subs:
            if u.k <= v.k and contains(v, u):
                assert contains(orthogonal_complement(u), orthogonal_complement(v))


def test_complement_intersection_identity():
    # dim(U-perp ∩ V-perp) = n - dim(U + V)
    f = F2
    subs = enumerate_k_subspaces(4, 2, f)
    for u in subs[:12]:
        for v in subs[:12]:
            lhs = oracle_intersect_dim(orthogonal_complement(u), orthogonal_complement(v))
            assert lhs == 4 - (u.k + v.k - oracle_intersect_dim(u, v))


def test_dimension_formula_exhaustive():
    subs = enumerate_k_subspaces(4, 2, F2)
    for u in subs:
        for v in subs:
            d = oracle_intersect_dim(u, v)
            assert d >= u.k + v.k - 4
            assert d <= min(u.k, v.k)


def test_subspaces_of_counts():
    u = span(F2, unit(5, 0), unit(5, 1), unit(5, 2))
    assert len(subspaces_of(u, 1)) == 7
    assert len(subspaces_of(u, 2)) == 7
    assert len(subspaces_of(u, 3)) == 1
    assert subspaces_of(u, 0) == [()]
    for rows in subspaces_of(u, 2):
        assert all(len(row) == 5 for row in rows)
        assert contains(u, Subspace(F2, 5, rows))


def is_rref(s):
    """Structural RREF check, independent of the elimination code: entries
    in the field, pivots 1 at strictly increasing columns, and each pivot
    column zero in every other row."""
    if any(len(row) != s.n or not all(0 <= v < s.field.q for v in row) for row in s.rows):
        return False
    pivots = []
    for row in s.rows:
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None or row[lead] != 1:
            return False
        pivots.append(lead)
    if pivots != sorted(set(pivots)):
        return False
    return all(
        other[pc] == 0 for i, pc in enumerate(pivots) for j, other in enumerate(s.rows) if j != i
    )


def oracle_subspaces_of(u, t):
    """The t-subspaces of u by lifting, re-reducing and sorting: each RREF
    t-subspace of F_q^k is lifted through u's rows (:func:`oracle_lifts`),
    the lift is put in RREF by rref_canonical, and the list is sorted by
    rows."""
    f = u.field
    if t == 0:
        return [Subspace(f, u.n, ())]
    return sorted((rref_canonical(w, f) for w in oracle_lifts(u, t)), key=lambda s: s.rows)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 4), (5, 3)])
def test_subspaces_of_matches_the_reducing_oracle(q, n):
    # every subspace u of F_q^n and every t from 0 to dim u
    f = make_field(q)
    for k in range(n + 1):
        for u in enumerate_k_subspaces(n, k, f):
            for t in range(k + 1):
                subs = [Subspace(f, n, w) for w in subspaces_of(u, t)]
                assert subs == oracle_subspaces_of(u, t)
                assert all(is_rref(w) for w in subs)


def test_coefficient_subspaces_are_enumerated_once_per_shape(monkeypatch):
    # one enumeration for the vertices of K_2(6,3,2), one for the points of
    # F_2^3 that every vertex lifts, and for _point_sets one each for the
    # 2-subspaces of F_2^3 and the points of F_2^2: not one per vertex
    calls = []
    real = subspace.enumerate_k_subspaces

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    for module in (subspace, kneser):
        monkeypatch.setattr(module, "enumerate_k_subspaces", counted)
    caches = (subspace._coefficient_rows, subspace._lift_plan, subspace._point_sets)
    for cache in caches:
        cache.cache_clear()
    build_kneser_graph(KneserParams(2, 6, 3, 2))
    assert calls == [(6, 3), (3, 1), (3, 2), (2, 1)]
    for cache in caches:
        assert cache.cache_info().maxsize == subspace.COEFFICIENT_CACHE_SIZE


def test_is_rref_rejects_each_defect():
    assert is_rref(Subspace(F3, 3, ((1, 0, 2), (0, 1, 1))))
    assert is_rref(Subspace(F3, 3, ()))
    assert not is_rref(Subspace(F3, 3, ((0, 1, 1), (1, 0, 2))))  # pivots out of order
    assert not is_rref(Subspace(F3, 3, ((2, 0, 1),)))  # pivot not 1
    assert not is_rref(Subspace(F3, 3, ((1, 1, 0), (0, 1, 0))))  # pivot column not cleared
    assert not is_rref(Subspace(F3, 3, ((1, 0, 0), (0, 0, 0))))  # zero row
    assert not is_rref(Subspace(F3, 3, ((1, 0, 3),)))  # not a field element
    assert not is_rref(Subspace(F3, 3, ((1, 0),)))  # wrong length


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (5, 3)])
def test_enumeration_and_complement_return_rref_rows(q, n):
    f = make_field(q)
    for k in range(n + 1):
        for u in enumerate_k_subspaces(n, k, f):
            assert is_rref(u)
            assert is_rref(orthogonal_complement(u))


@pytest.mark.parametrize(
    "q,n,k,t",
    [(2, 4, 2, 1), (2, 5, 2, 1), (2, 5, 3, 2), (2, 6, 3, 2), (2, 6, 4, 3), (3, 4, 2, 1),
     (3, 5, 3, 2), (4, 5, 2, 1)],
)
def test_star_set_is_rref_and_sorted(q, n, k, t):
    family = star_independent_set(KneserParams(q, n, k, t))
    assert all(is_rref(s) for s in family)
    assert [s.rows for s in family] == sorted({s.rows for s in family})


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_perp_space_is_rref(q):
    # nullspace_rows on the polar vectors of quadric points: an RREF basis
    # of dimension 6 - rank of the points
    model = QuadricModel(q)
    n = len(model.points)
    for i in range(0, n, 7):
        for pts in ((), (i,), (i, (5 * i + 1) % n), (i, (3 * i + 2) % n, (11 * i + 5) % n)):
            space = oracle_perp_space(model, pts)
            assert is_rref(space)
            rank = rref_canonical([model.points[j] for j in pts], model.field).k if pts else 0
            assert space.k == 6 - rank


def test_text_form():
    u = span(F2, unit(2, 0), unit(2, 1))
    assert u.text() == "10|01"
    v = span(F3, (1, 0, 2))
    assert v.text() == "102"


matrix_strategy = st.integers(2, 3).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        ),
    )
)


@given(matrix_strategy)
def test_rref_canonical_is_invariant_under_row_operations(args):
    q, rows = args
    f = make_field(q)
    u = rref_canonical(rows, f)
    assert u.k <= len(rows)
    # appending any linear combination of the rows cannot change the span
    combo = [0] * len(rows[0])
    for coef, row in zip(range(1, q), rows):
        combo = [f.add(x, f.mul(coef % q, y)) for x, y in zip(combo, row)]
    assert rref_canonical(rows + [combo], f) == u
    # the canonical form is a fixpoint
    assert rref_canonical(u.rows, f) == u if u.k else True


@given(matrix_strategy)
def test_rank_bounds(args):
    q, rows = args
    f = make_field(q)
    u = rref_canonical(rows, f)
    pivots = [next(j for j, x in enumerate(row) if x) for row in u.rows]
    assert pivots == sorted(pivots)
    for i, row in enumerate(u.rows):
        assert row[pivots[i]] == 1
        for j, other in enumerate(u.rows):
            if i != j:
                assert other[pivots[i]] == 0


# -- the row kernels against their per-coordinate oracles -----------------------

# every field shape: prime and extension tables, and the largest table
ROW_KERNEL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 27, 64]


def oracle_row_reduce(rows, f):
    """Gauss-Jordan one coordinate at a time, every entry through the
    scalar f.sub and f.mul: the nonzero RREF rows, pivots ascending."""
    pivots = []
    for raw in rows:
        r = list(raw)
        for col, prow in pivots:
            coef = r[col]
            if coef:
                r = [f.sub(x, f.mul(coef, y)) for x, y in zip(r, prow)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        c = f.inv(r[lead])
        if c != 1:
            r = [f.mul(c, x) for x in r]
        for _, prow in pivots:
            c2 = prow[lead]
            if c2:
                prow[:] = [f.sub(x, f.mul(c2, y)) for x, y in zip(prow, r)]
        pivots.append((lead, r))
    pivots.sort(key=lambda cp: cp[0])
    return [row for _, row in pivots]


def oracle_lifts(u, t):
    """Each t-subspace of F_q^k, in enumeration order, lifted through u's
    rows one coordinate at a time with the scalar f.add and f.mul."""
    f = u.field
    out = []
    for w in enumerate_k_subspaces(u.k, t, f):
        lifted = []
        for coords in w.rows:
            vec = [0] * u.n
            for c, row in zip(coords, u.rows):
                if c:
                    vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
            lifted.append(tuple(vec))
        out.append(tuple(lifted))
    return out


def oracle_linear_image(m, rows, f):
    """The rows times M one coordinate at a time, coordinate j of x M the
    scalar sum of x_i M[i][j], reduced by :func:`oracle_row_reduce`."""
    n = len(m[0])
    images = []
    for x in rows:
        image = []
        for j in range(n):
            value = 0
            for xi, mrow in zip(x, m):
                value = f.add(value, f.mul(xi, mrow[j]))
            image.append(value)
        images.append(image)
    return Subspace(f, n, tuple(tuple(r) for r in oracle_row_reduce(images, f)))


def random_rows(rng, f, count, n):
    """count random vectors of F_q^n; a few are zero or repeat another, so
    dependent rows show up at every q."""
    rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(count)]
    if count > 1 and rng.random() < 0.3:
        rows[-1] = list(rows[0])
    if rng.random() < 0.1:
        rows[0] = [0] * n
    return rows


def oracle_dims(q):
    """(n, largest k) small enough to lift every t-subspace at this q."""
    return (5, 4) if q <= 3 else (4, 3) if q <= 27 else (3, 2)


@pytest.mark.parametrize("q", ROW_KERNEL_FIELDS)
def test_row_reduce_and_nullspace_match_the_per_coordinate_oracle(q):
    f, rng = make_field(q), random.Random(q)
    n, _ = oracle_dims(q)
    for _ in range(40):
        rows = random_rows(rng, f, rng.randint(1, n + 1), n)
        reduced = oracle_row_reduce(rows, f)
        assert subspace._row_reduce(rows, f) == reduced
        assert rref_canonical(rows, f).rows == tuple(map(tuple, reduced))
        # RREF, of dimension n - rank and orthogonal to every row: the null space
        null = Subspace(f, n, tuple(nullspace_rows(rows, f, n)))
        assert is_rref(null) and null.k == n - len(reduced)
        for x in null.rows:
            for r in rows:
                dot = 0
                for a, b in zip(x, r):
                    dot = f.add(dot, f.mul(a, b))
                assert dot == 0


@pytest.mark.parametrize("q", ROW_KERNEL_FIELDS)
def test_subspaces_of_matches_the_per_coordinate_lift(q):
    # random subspaces of every dimension up to the largest k, every t
    f, rng = make_field(q), random.Random(q)
    n, top = oracle_dims(q)
    for k in range(top + 1):
        for _ in range(2):
            u = Subspace(f, n, ())
            while u.k < k:
                u = rref_canonical(list(u.rows) + random_rows(rng, f, 1, n), f)
            for t in range(k + 1):
                assert subspaces_of(u, t) == oracle_lifts(u, t)


@pytest.mark.parametrize("q", ROW_KERNEL_FIELDS)
def test_linear_image_matches_the_per_coordinate_map(q):
    # random maps, singular ones included, on random subspaces
    f, rng = make_field(q), random.Random(q)
    n, top = oracle_dims(q)
    maps = [tuple(map(tuple, random_rows(rng, f, n, n))) for _ in range(20)]
    for m in maps + kneser.gl_generators(n, f):
        for _ in range(3):
            rows = random_rows(rng, f, rng.randint(1, top), n)
            assert linear_image(m, rows, f) == oracle_linear_image(m, rows, f)


# -- held_subspaces against the RREF-row numbering -----------------------------


def oracle_held_subspaces(spaces, t):
    """The t-subspaces the spaces hold, numbered in first-seen order of
    their RREF row tuples, and per space its numbers in subspaces_of order."""
    number = {}
    numbers = [[number.setdefault(w, len(number)) for w in subspaces_of(u, t)] for u in spaces]
    return list(number), numbers


def assert_point_masks_match_the_oracle(spaces, top):
    """Every level of held_subspaces numbers the oracle's subspaces in the
    same order, each by the mask of its own points, and gives each space the
    oracle's numbers."""
    f, n = spaces[0].field, spaces[0].n
    points, levels = held_subspaces(spaces, top)
    assert points == (oracle_held_subspaces(spaces, 1)[0] if top else [])
    at = {p: x for x, p in enumerate(points)}
    assert len(levels) == top + 1
    for t, (held, numbers) in enumerate(levels):
        rows, expected = oracle_held_subspaces(spaces, t)
        assert numbers == expected
        assert held == [
            sum(1 << at[p] for p in subspaces_of(Subspace(f, n, w), 1)) if w else 0 for w in rows
        ]


@pytest.mark.parametrize(
    "q,n,k", [(2, 4, 2), (2, 5, 3), (2, 6, 3), (2, 4, 4), (3, 4, 2), (3, 5, 3), (4, 4, 2), (4, 3, 3)]
)
def test_held_subspaces_match_the_rref_row_numbering(q, n, k):
    verts = enumerate_k_subspaces(n, k, make_field(q))
    assert_point_masks_match_the_oracle(verts, k)
    assert_point_masks_match_the_oracle([orthogonal_complement(u) for u in verts], n - k)


def test_held_subspaces_at_t_0_lift_nothing(monkeypatch):
    def refuse(u, t):
        raise AssertionError("lifted at t = 0")

    spaces = [Subspace(F2, 3, ()), span(F2, unit(3, 0))]
    monkeypatch.setattr(subspace, "subspaces_of", refuse)
    assert held_subspaces(spaces, 0) == ([], [([0], [[0], [0]])])
    assert meet_masks(spaces, 0) == [0b11, 0b11]


@pytest.mark.parametrize("top", [-1, 2])
def test_held_subspaces_refuse_a_level_outside_a_space(top):
    with pytest.raises(ValueError, match=f"got top={top}, dim="):
        held_subspaces([span(F2, unit(3, 0), unit(3, 1)), span(F2, unit(3, 2))], top)


# -- meet_masks against the elimination oracle --------------------------------


def oracle_meet_masks(spaces, ts):
    """meet_masks at each t of ts, by one oracle_intersect_dim per pair."""
    dims = [[oracle_intersect_dim(u, v) for v in spaces] for u in spaces]
    return [[sum(1 << j for j, d in enumerate(row) if d >= t) for row in dims] for t in ts]


def _small_kneser_ambients(limit=400):
    """(q, n, k) of every valid K_q(n,k,t) with at most ``limit`` vertices."""
    out = set()
    for q in prime_powers_up_to(16):
        for n in range(2, 9):
            for k in range(2, n):
                for t in range(1, k):
                    if n > 2 * k - t and gauss_binom(n, k, q) <= limit:
                        KneserParams(q, n, k, t)  # valid by construction
                        out.add((q, n, k))
    return sorted(out)


def test_small_kneser_ambients_cover_the_edge_cases():
    ambients = _small_kneser_ambients()
    assert ambients == [(2, 4, 2), (2, 5, 2), (2, 5, 3), (3, 4, 2), (4, 4, 2)]
    assert any(n < 2 * k for _, n, k in ambients)  # K_2(5,3,2), reached by duality


@pytest.mark.parametrize("q,n,k", _small_kneser_ambients())
def test_meet_masks_match_the_elimination_oracle(q, n, k):
    # every t from 0 to k, so t = k - 1 (each Kneser t here) and the
    # trivial thresholds are all covered
    verts = enumerate_k_subspaces(n, k, make_field(q))
    ts = range(k + 1)
    assert [meet_masks(verts, t) for t in ts] == oracle_meet_masks(verts, ts)


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 4, 2), (2, 5, 3)])
def test_meet_masks_on_complement_images(q, n, k):
    # the duality check's input: complements, listed in source order
    images = [orthogonal_complement(u) for u in enumerate_k_subspaces(n, k, make_field(q))]
    ts = range(n - k + 1)
    assert [meet_masks(images, t) for t in ts] == oracle_meet_masks(images, ts)


@given(
    st.sampled_from([(2, 4), (2, 5), (3, 3), (3, 4)]).flatmap(
        lambda qn: st.tuples(
            st.just(qn),
            st.integers(0, qn[1] - 1),
            st.lists(st.integers(0, 10**6), min_size=1, max_size=25),
        )
    )
)
def test_meet_masks_on_random_subsets(args):
    (q, n), t, picks = args
    f = make_field(q)
    pool = [s for k in range(t, n + 1) for s in enumerate_k_subspaces(n, k, f)]
    spaces = [pool[i % len(pool)] for i in picks]  # mixed dimensions, repeats
    assert_point_masks_match_the_oracle(spaces, t)
    masks = meet_masks(spaces, t)
    assert [masks] == oracle_meet_masks(spaces, [t])
    for i, m in enumerate(masks):
        assert (m >> i) & 1  # every space meets itself
        for j in range(len(spaces)):
            assert (m >> j) & 1 == (masks[j] >> i) & 1
    full = (1 << len(spaces)) - 1
    Graph.from_masks([full & ~m for m in masks])  # rejects loops and stray bits


def test_meet_masks_rejects_mixed_ambients():
    with pytest.raises(ValueError, match="^subspaces live in different ambient spaces$"):
        meet_masks([span(F2, unit(4, 0)), span(F2, unit(3, 0))], 1)
