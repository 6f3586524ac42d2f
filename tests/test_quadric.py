import pytest

from qktw import quadric
from qktw.errors import BudgetExceededError, NotALineError
from qktw.gf import make_field
from qktw.graph import iter_bits
from qktw.kneser import intersection_counts
from qktw.qbinom import gauss_binom
from qktw.quadric import (
    QuadricModel,
    build_quadric_graph,
    grid_extremal_search,
    klein_map,
    perp_section_census,
    verify_klein_isomorphism,
)
from qktw.subspace import enumerate_k_subspaces, intersect_dim, rref_canonical

F2 = make_field(2)


def test_model_point_counts():
    assert len(QuadricModel(2).points) == 35
    assert len(QuadricModel(3).points) == 130
    for q in (2, 3, 4, 5):
        assert len(QuadricModel(q).points) == gauss_binom(4, 2, q)


def test_points_are_self_perpendicular():
    m = QuadricModel(2)
    for i, p in enumerate(m.points):
        assert m.form_value(p) == 0
        assert m.bilinear(p, p) == 0
        assert (m.perp_masks[i] >> i) & 1


def test_line_structure():
    m = QuadricModel(2)
    assert len(m.lines) == 105  # one line per pencil of PG(3,2)
    assert all(len(line) == 3 for line in m.lines)
    assert all(len(m.lines_through[p]) == 9 for p in range(35))
    m3 = QuadricModel(3)
    assert len(m3.lines) == 520
    assert all(len(m3.lines_through[p]) == 16 for p in range(130))


def test_klein_map_examples():
    e = lambda i: tuple(1 if j == i else 0 for j in range(4))
    line12 = rref_canonical([e(0), e(1)], F2)
    assert klein_map(line12) == (1, 0, 0, 0, 0, 0)
    line34 = rref_canonical([e(2), e(3)], F2)
    assert klein_map(line34) == (0, 1, 0, 0, 0, 0)
    with pytest.raises(NotALineError):
        klein_map(rref_canonical([e(0)], F2))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_klein_image_lies_on_the_quadric(q):
    f = make_field(q)
    model = QuadricModel(q)
    for line in enumerate_k_subspaces(4, 2, f):
        assert model.form_value(klein_map(line)) == 0


def test_meeting_lines_map_to_perpendicular_points():
    model = QuadricModel(2)
    lines = enumerate_k_subspaces(4, 2, F2)
    for i, a in enumerate(lines):
        for b in lines[i + 1 :]:
            meets = intersect_dim(a, b) >= 1
            perp = model.bilinear(klein_map(a), klein_map(b)) == 0
            assert meets == perp


def test_quadric_graph_regular_of_degree_q4():
    for q in (2, 3):
        g = build_quadric_graph(q)
        assert g.is_regular() and g.degree(0) == q**4
        profile = intersection_counts(q, 4, 2)
        assert g.degree(0) == profile[0]
        for v in range(g.n):
            assert not (g.adjacency_mask(v) >> v) & 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_klein_isomorphism(q):
    rep = verify_klein_isomorphism(q)
    assert rep.passed
    assert rep.line_count == rep.point_count == gauss_binom(4, 2, q)
    assert rep.pairs_checked == rep.line_count * (rep.line_count - 1) // 2


def test_klein_check_limit():
    assert quadric.QUADRIC_GRAPH_MAX_Q == 5
    with pytest.raises(BudgetExceededError):
        verify_klein_isomorphism(7)


def test_klein_mismatches_match_the_pairwise_oracle(monkeypatch):
    # swap the images of two lines; the per-pair loop over intersect_dim
    # and the bilinear form says which pairs the broken map fails on
    model = QuadricModel(2)
    lines = enumerate_k_subspaces(4, 2, F2)
    images = [klein_map(line) for line in lines]
    images[0], images[20] = images[20], images[0]
    lookup = dict(zip(lines, images))
    monkeypatch.setattr(quadric, "klein_map", lookup.__getitem__)
    expected = [
        (i, j)
        for i in range(len(lines))
        for j in range(i + 1, len(lines))
        if (intersect_dim(lines[i], lines[j]) == 0)
        != (model.bilinear(images[i], images[j]) != 0)
    ]
    rep = verify_klein_isomorphism(2)
    assert rep.bijective and expected
    assert list(rep.mismatches) == expected
    assert not rep.passed


def test_grid_search_q2():
    rep = grid_extremal_search(2)
    assert rep.max_size == 6
    assert len(rep.extremal_sets) == 6
    assert rep.classification_ok and rep.passed


def test_grid_search_q3():
    rep = grid_extremal_search(3)
    assert rep.max_size == 8
    assert len(rep.extremal_sets) == 12
    assert rep.passed


def test_grid_search_rejects_large_q():
    with pytest.raises(BudgetExceededError):
        grid_extremal_search(5)


def test_single_line_is_valid_but_not_maximal():
    # a full row has no three pairwise non-collinear points, but only q+1 of them
    rep = grid_extremal_search(2)
    row = tuple((0, j) for j in range(3))
    assert all(set(row) != set(s) for s in rep.extremal_sets)
    assert rep.max_size > len(row)


def test_census_q2_all_claims():
    rep = perp_section_census(2)
    assert set(rep.claims) == {"i", "ii", "iii", "iv"}
    assert rep.claims["i"].checked == 560
    assert rep.claims["ii"].checked == 280  # one per non-perpendicular pair
    assert rep.claims["iii"].checked == 630
    assert rep.passed


def test_census_q3_defaults():
    rep = perp_section_census(3)
    assert set(rep.claims) == {"ii", "iii"}
    assert rep.claims["ii"].checked == 130 * 81 // 2
    assert rep.passed


def test_census_claim_selection_and_errors():
    rep = perp_section_census(2, claims=("i",))
    assert set(rep.claims) == {"i"}
    with pytest.raises(ValueError):
        perp_section_census(3, claims=("iv",))
    with pytest.raises(BudgetExceededError):
        perp_section_census(4)


def test_conic_plane_sections_by_hand():
    # a non-degenerate triple spans a plane whose polar meets the quadric
    # in q + 1 points; spot-check one triangle directly
    m = QuadricModel(2)
    adj = m.adjacency_masks
    u = 0
    v = next(iter_bits(adj[u]))
    w = next(x for x in iter_bits(adj[u] & adj[v]) if x > v)
    polar = m.perp_space((u, v, w))
    assert polar.k == 3
    assert len(m.section(polar)) == 3
