import random
from itertools import product

import pytest

from qktw import quadric, subspace
from qktw.errors import BudgetExceededError, NotALineError
from qktw.gf import make_field
from qktw.graph import certify_maps, iter_bits, permute_mask
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
from qktw.subspace import enumerate_k_subspaces, rref_canonical

from subspace_helpers import oracle_bilinear, oracle_intersect_dim, oracle_perp_space

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
        assert oracle_bilinear(m.field, p, p) == 0
        assert (m.perp_masks[i] >> i) & 1


def _perp_masks_reference(m):
    """Pairwise ``oracle_bilinear`` tests, one per pair of points."""
    n = len(m.points)
    masks = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if oracle_bilinear(m.field, m.points[i], m.points[j]) == 0:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_perp_masks_match_the_pairwise_bilinear_form(q):
    m = QuadricModel(q)
    assert m.perp_masks == _perp_masks_reference(m)
    # p's polar hyperplane meets Q+(5,q) in a cone with vertex p over a
    # Q+(3,q) grid of (q+1)^2 points: 1 + q(q+1)^2 points
    assert {mask.bit_count() for mask in m.perp_masks} == {1 + q * (q + 1) ** 2}


def test_line_structure():
    m = QuadricModel(2)
    assert len(m.lines) == 105  # one line per pencil of PG(3,2)
    assert all(line.bit_count() == 3 for line in m.lines)
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
            meets = oracle_intersect_dim(a, b) >= 1
            perp = oracle_bilinear(model.field, klein_map(a), klein_map(b)) == 0
            assert meets == perp


def test_quadric_graph_regular_of_degree_q4():
    for q in (2, 3):
        g = build_quadric_graph(q)
        assert g.degrees() == [q**4] * g.n
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
    # swap the images of two lines; the per-pair loop over
    # oracle_intersect_dim and the bilinear form says which pairs the
    # broken map fails on
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
        if (oracle_intersect_dim(lines[i], lines[j]) == 0)
        != (oracle_bilinear(model.field, images[i], images[j]) != 0)
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


def oracle_grid_search(q):
    """(max size, extremal masks in discovery order) by the plain DFS: a cell
    is included unless it is non-collinear with two non-collinear chosen
    points, tested pair by pair, and a branch is pruned only by the count
    of cells left."""
    side = q + 1
    size = side * side
    nc = [0] * size
    for a in range(size):
        for b in range(size):
            if a // side != b // side and a % side != b % side:
                nc[a] |= 1 << b
    best = 0
    extremal = []

    def dfs(idx, chosen, count):
        nonlocal best, extremal
        if idx == size:
            if count > best:
                best, extremal = count, [chosen]
            elif count == best and count > 0:
                extremal.append(chosen)
            return
        if count + (size - idx) < best:
            return
        zone = chosen & nc[idx]
        if not any(zone & nc[a] for a in iter_bits(zone)):
            dfs(idx + 1, chosen | (1 << idx), count + 1)
        dfs(idx + 1, chosen, count)

    dfs(0, 0, 0)
    return best, extremal


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_grid_search_matches_oracle(monkeypatch, q):
    monkeypatch.setattr(quadric, "GRID_SEARCH_MAX_Q", 5)
    rep = grid_extremal_search(q)
    best, extremal = oracle_grid_search(q)
    side = q + 1
    masks = [sum(1 << (i * side + j) for i, j in s) for s in rep.extremal_sets]
    assert rep.max_size == best == 2 * q + 2
    assert masks == sorted(extremal)
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
    assert rep.claims["iii"].checked == 9360
    assert rep.passed


def test_census_q4_defaults():
    rep = perp_section_census(4)
    assert set(rep.claims) == {"ii", "iii"}
    assert rep.claims["ii"].checked == 357 * 256 // 2 == 45696
    assert rep.claims["iii"].checked == 71400
    assert rep.passed


def test_census_q5_defaults_match_the_closed_forms():
    rep = perp_section_census(5)
    n, q = 806, 5
    assert set(rep.claims) == {"ii", "iii"}
    # ii: every point has q^4 non-perpendicular points; iii: every point
    # lies on (q+1)^2 lines, and (q+1)^2 q^2 / 2 of their pairs span a plane
    # that is not on the quadric
    assert rep.claims["ii"].checked == n * q**4 // 2 == 251875
    assert rep.claims["iii"].checked == n * (q + 1) ** 2 * q**2 // 2 == 362700
    assert (rep.claims["ii"].examined, rep.claims["iii"].examined) == (625, 450)
    assert rep.passed


def test_census_claim_selection_and_errors():
    rep = perp_section_census(2, claims=("i",))
    assert set(rep.claims) == {"i"}
    with pytest.raises(ValueError):
        perp_section_census(3, claims=("iv",))
    assert quadric.CENSUS_MAX_Q == quadric.QUADRIC_GRAPH_MAX_Q == 5
    with pytest.raises(BudgetExceededError):
        perp_section_census(6)


# -- the per-point census: the oracle of the census at one representative ---------


def oracle_census(model, want_cycles=False):
    """Claims i-iii (and iv) by the per-point loops, with no symmetry: every
    triple and pair once, by its lowest point, and every two lines through
    every point.  claim -> (checked, failures)."""
    q = model.q
    adj = model.adjacency_masks
    perp = model.perp_masks
    n = len(model.points)
    conic, grids = [0, []], [0, []]
    for u in range(n):
        for v_off in iter_bits(adj[u] >> (u + 1)):
            v = u + 1 + v_off
            grids[0] += 1
            sect = model.polar_section((u, v))
            size = sect.bit_count()
            if size != (q + 1) ** 2 or not quadric._grid_structure_ok(model, sect):
                grids[1].append((u, v, size))
            for w_off in iter_bits((adj[u] & adj[v]) >> (v + 1)):
                w = v + 1 + w_off
                conic[0] += 1
                size = model.polar_section((u, v, w)).bit_count()
                if size != q + 1:
                    conic[1].append((u, v, w, size))
    planes, three, four = 0, [], []
    for z in range(n):
        for _, p1, p2 in quadric._two_line_planes(model, z):
            if (perp[p1] >> p2) & 1:
                continue
            planes += 1
            polar = model.polar_section((z, p1, p2))
            split = quadric._two_line_split(model, polar)
            ok = split is not None and split[0] == z
            if ok:
                plane = quadric._plane_section(model, split)
                ok = quadric._two_line_split(model, plane) is not None and plane & polar == 1 << z
            if not ok:
                three.append((z, p1, p2))
            elif want_cycles and not quadric._is_point_plus_two_cycles(model, z, plane | polar):
                four.append((z, p1, p2))
    out = {
        "i": (conic[0], tuple(conic[1])),
        "ii": (grids[0], tuple(grids[1])),
        "iii": (planes, tuple(three)),
    }
    if want_cycles:
        out["iv"] = (planes, tuple(four))
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_census_at_the_representative_matches_the_per_point_oracle(q):
    claims = ("i", "ii", "iii", "iv") if q == 2 else ("i", "ii", "iii")
    rep = perp_section_census(q, claims)
    oracle = oracle_census(QuadricModel(q), want_cycles=q == 2)
    assert set(rep.claims) == set(oracle)
    for claim, (checked, failures) in oracle.items():
        result = rep.claims[claim]
        assert (result.checked, result.failures) == (checked, failures)
        assert result.passed == (checked > 0 and not failures)
        assert 0 < result.examined < checked


def test_certificate_refuses_a_map_with_two_points_swapped():
    m = QuadricModel(3)
    perms = [list(g) for g in m.automorphisms]
    perms[0][5], perms[0][9] = perms[0][9], perms[0][5]
    with pytest.raises(ArithmeticError, match="map 0 does not map the lines onto themselves"):
        certify_maps(perms, len(m.points), m.line_set)
    with pytest.raises(ArithmeticError, match="not a permutation"):
        certify_maps([[0] * len(m.points)], len(m.points), m.line_set)


@pytest.mark.parametrize("q", [2, 3])
def test_certificate_refuses_maps_that_fix_point_0(q):
    m = QuadricModel(q)
    fixing = [g for g in m.automorphisms if g[0] == 0]
    assert fixing and len(fixing) < len(m.automorphisms)
    certify_maps(m.automorphisms, len(m.points), m.line_set)
    with pytest.raises(ArithmeticError, match="every vertex"):
        certify_maps(fixing, len(m.points), m.line_set)
    with pytest.raises(ArithmeticError, match="every vertex"):
        certify_maps([], len(m.points), m.line_set)


def test_lines_refuse_perp_masks_that_are_not_the_lines_through_each_point():
    m = QuadricModel(3)

    def lines_after_flips(*pairs):
        perp = list(m.perp_masks)
        for a, b in pairs:
            perp[a] ^= 1 << b
        broken = QuadricModel(3)
        broken.perp_masks = tuple(perp)
        return broken.lines

    # un-perpendicular two points on a common line, symmetrically: the
    # line read off the four ANDs through either of them then misses the other
    a, b = list(iter_bits(m.lines[0]))[:2]
    with pytest.raises(ArithmeticError, match="q \\+ 1 points"):
        lines_after_flips((a, b), (b, a))
    # one bit only, below the diagonal: no line joins 69 to 36, so the line
    # check could not stand in for perpendicularity
    assert not (m.perp_masks[69] >> 36) & 1
    with pytest.raises(ArithmeticError, match="perp mask of point 69 is not the lines"):
        lines_after_flips((69, 36))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lines_from_four_ands_are_the_double_polars(q):
    m = QuadricModel(q)
    double_polars = {
        m.polar_section(iter_bits(m.polar_section((i, j))))
        for i, row in enumerate(m.perp_masks)
        for j in iter_bits(row & ~(1 << i))
    }
    assert set(m.lines) == double_polars and len(m.lines) == len(double_polars)


def test_lines_refuse_a_polar_solid_of_mutually_perpendicular_points():
    broken = QuadricModel(2)
    broken.perp_masks = ((1 << len(broken.points)) - 1,) * len(broken.points)
    with pytest.raises(ArithmeticError, match="two planes"):
        broken.lines


@pytest.mark.parametrize("q", [2, 3])
def test_lines_are_read_off_the_perp_masks_alone(monkeypatch, q):
    expected = QuadricModel(q).lines

    def refuse(*args):
        raise AssertionError("the lines need no subspace of their own")

    monkeypatch.setattr(quadric, "rref_canonical", refuse)
    monkeypatch.setattr(subspace, "subspaces_of", refuse)
    assert QuadricModel(q).lines == expected


def test_a_missing_line_makes_the_census_fail_not_pass():
    m = QuadricModel(3)
    through_0 = m.lines[m.lines_through[0][0]]
    # the certificate sees the line set is not mapped onto itself
    fewer = QuadricModel(3)
    fewer.line_set = m.line_set - {through_0}
    with pytest.raises(ArithmeticError, match="lines"):
        quadric._census(fewer, ("ii", "iii"))
    # with maps certified on the intact model, the claim itself fails
    fewer = QuadricModel(3)
    fewer.line_set = m.line_set - {through_0}
    fewer.automorphisms = m.automorphisms
    rep = quadric._census(fewer, ("iii",))
    assert rep.claims["iii"].failures and not rep.passed


@pytest.mark.parametrize("q", [2, 3])
def test_certified_maps_keep_the_section_verdicts(q):
    m = QuadricModel(q)
    adj = m.adjacency_masks
    grids, splits = [], []
    for v in iter_bits(adj[0]):
        grid = m.polar_section((0, v))
        low = grid & -grid
        off = next(iter_bits(m.perp_masks[low.bit_length() - 1] & ~grid))
        grids += [grid, (grid ^ low) | (1 << off)]  # a grid, and one point traded
    for z, p1, p2 in quadric._two_line_planes(m, 0):
        polar = m.polar_section((z, p1, p2))
        splits += [polar, polar ^ (1 << p1)]
    verdicts = [quadric._grid_structure_ok(m, s) for s in grids]
    assert True in verdicts and False in verdicts
    found = [quadric._two_line_split(m, s) for s in splits]
    assert None in found and any(found)
    for g in m.automorphisms:
        assert [quadric._grid_structure_ok(m, permute_mask(s, g)) for s in grids] == verdicts
        for section, split in zip(splits, found):
            image = quadric._two_line_split(m, permute_mask(section, g))
            if split is None:
                assert image is None
            else:
                z, l1, l2 = split
                assert image[0] == g[z]
                assert {image[1], image[2]} == {permute_mask(l1, g), permute_mask(l2, g)}


# -- the span-and-normalize oracle -------------------------------------------------


def normalize_point(vec, f):
    """Scale so the first nonzero coordinate is 1."""
    lead = next(j for j, x in enumerate(vec) if x)
    c = f.inv(vec[lead])
    return tuple(f.mul(c, x) for x in vec)


def proj_points_of_span(rows, f):
    """Projective points of the span of independent rows, each once: every
    coefficient vector with a leading 1, its combination normalized."""
    n = len(rows[0])
    out = []
    for lead in range(len(rows)):
        for tail in product(range(f.q), repeat=len(rows) - lead - 1):
            vec = [0] * n
            for c, row in zip((0,) * lead + (1,) + tail, rows):
                vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
            out.append(normalize_point(vec, f))
    return out


def oracle_points(model):
    identity = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    pts = proj_points_of_span(identity, model.field)
    return tuple(sorted(p for p in pts if model.form_value(p) == 0))


def oracle_lines(model):
    """The span of every two perpendicular points not yet on a common line,
    as a point mask; sorted by point lists."""
    covered = [0] * len(model.points)
    found = []
    for i in range(len(model.points)):
        for j in iter_bits(model.perp_masks[i] & ~((2 << i) - 1)):
            if (covered[i] >> j) & 1:
                continue
            span = proj_points_of_span((model.points[i], model.points[j]), model.field)
            mask = _mask(model.index[p] for p in span)
            for p in iter_bits(mask):
                covered[p] |= mask
            found.append(mask)
    return tuple(sorted(found, key=lambda m: list(iter_bits(m))))


def oracle_section(model, space):
    if space.k == 0:
        return []
    found = (model.index.get(p) for p in proj_points_of_span(space.rows, model.field))
    return sorted(i for i in found if i is not None)


def oracle_klein_map(line):
    """Plucker coordinates (p01, p23, p02, p31, p03, p12), normalized."""
    f = line.field
    a, b = line.rows
    minor = lambda i, j: f.sub(f.mul(a[i], b[j]), f.mul(a[j], b[i]))
    coords = (minor(0, 1), minor(2, 3), minor(0, 2), minor(3, 1), minor(0, 3), minor(1, 2))
    return normalize_point(coords, f)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_points_and_lines_match_the_span_oracle(q):
    model = QuadricModel(q)
    assert model.points == oracle_points(model)
    assert model.lines == oracle_lines(model)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_klein_map_matches_the_span_oracle(q):
    for line in enumerate_k_subspaces(4, 2, make_field(q)):
        assert klein_map(line) == oracle_klein_map(line)


# -- mask sections against the enumerated sections ------------------------------


def _mask(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_section_matches_the_span_oracle(q):
    # polar sections of the spans of 0 to 6 seeded random points: polars of
    # every dimension from the whole space down to the zero space
    model = QuadricModel(q)
    rng = random.Random(q)
    n = len(model.points)
    tuples = [()] + [tuple(rng.sample(range(n), r)) for r in range(1, 7) for _ in range(20)]
    dims = set()
    for pts in tuples:
        polar = oracle_perp_space(model, pts)
        dims.add(polar.k)
        assert model.polar_section(pts) == _mask(oracle_section(model, polar))
    assert dims == set(range(7))


def _census_inputs(model):
    """The point sets the census sections: the non-perpendicular pairs
    (claim ii), triples (claim i) and the two-line planes (claim iii)."""
    adj = model.adjacency_masks
    pairs = [(u, v) for u in range(len(adj)) for v in iter_bits(adj[u]) if v > u]
    triples = [
        (u, v, w) for u, v in pairs for w in iter_bits(adj[u] & adj[v]) if w > v
    ]
    planes = [pts for z in range(len(adj)) for pts in quadric._two_line_planes(model, z)]
    return pairs, triples, planes


@pytest.mark.parametrize("q,stride", [(2, 1), (3, 97)])
def test_mask_sections_match_the_enumerated_sections(q, stride):
    # q = 2: every census input; q = 3: a fixed stride sample
    model = QuadricModel(q)
    pairs, triples, planes = _census_inputs(model)
    assert (len(pairs), len(triples), len(planes)) == {
        2: (280, 560, 35 * 36),
        3: (5265, 84240, 130 * 120),
    }[q]
    for pts in pairs[::stride] + triples[::stride]:
        polar = model.polar_section(pts)
        assert polar == _mask(oracle_section(model, oracle_perp_space(model, pts)))
    skipped = 0
    for z, p1, p2 in planes[::stride]:
        pts = (z, p1, p2)
        plane = _mask(
            oracle_section(model, rref_canonical([model.points[i] for i in pts], model.field))
        )
        polar = model.polar_section(pts)
        assert polar == _mask(oracle_section(model, oracle_perp_space(model, pts)))
        skip = (model.perp_masks[p1] >> p2) & 1 == 1
        assert skip == (plane.bit_count() != 2 * q + 1)
        skipped += skip
        if not skip:
            split = quadric._two_line_split(model, polar)
            assert split is not None and split[0] == z
            assert quadric._plane_section(model, split) == plane
    assert 0 < skipped < len(planes[::stride])


def test_section_shape_checks_reject_other_shapes():
    m = QuadricModel(3)
    u, v = 0, next(iter_bits(m.adjacency_masks[0]))
    grid = m.polar_section((u, v))
    assert quadric._grid_structure_ok(m, grid)
    low = grid & -grid
    off = next(iter_bits(m.perp_masks[low.bit_length() - 1] & ~grid))
    assert not quadric._grid_structure_ok(m, (grid ^ low) | (1 << off))
    # the two grid lines through a point: a two-line section, not a grid
    p0 = low.bit_length() - 1
    a, b = [m.lines[li] for li in m.lines_through[p0] if not m.lines[li] & ~grid]
    assert not quadric._grid_structure_ok(m, a | b)
    assert quadric._two_line_split(m, a | b) in ((p0, a, b), (p0, b, a))
    # every line the checks build must be a line of the model
    fewer = QuadricModel(3)
    other_class = next(l for l in m.lines if l & ~(a | b) and not l & ~grid)
    fewer.line_set = m.line_set - {other_class}
    assert not quadric._grid_structure_ok(fewer, grid)
    fewer.line_set = m.line_set - {b}
    assert quadric._two_line_split(fewer, a | b) is None
    # one point of b traded for another grid point: no centre
    y = next(iter_bits(b & ~low))
    w = next(iter_bits(grid & ~a & ~b))
    assert quadric._two_line_split(m, (a | b) ^ (1 << y) ^ (1 << w)) is None
    # a conic, a single line, a plane on the quadric
    x = next(iter_bits(m.adjacency_masks[u] & m.adjacency_masks[v]))
    assert quadric._two_line_split(m, m.polar_section((u, v, x))) is None
    assert quadric._two_line_split(m, m.lines[0]) is None
    z, p1, p2 = next(
        pts for pts in quadric._two_line_planes(m, 0) if (m.perp_masks[pts[1]] >> pts[2]) & 1
    )
    on_quadric = m.polar_section((z, p1, p2))
    assert on_quadric.bit_count() == 13
    assert quadric._two_line_split(m, on_quadric) is None


def test_point_plus_two_cycles_rejects_other_unions():
    m = QuadricModel(2)
    z, p1, p2 = next(
        pts for pts in quadric._two_line_planes(m, 0) if not (m.perp_masks[pts[1]] >> pts[2]) & 1
    )
    polar = m.polar_section((z, p1, p2))
    union = quadric._plane_section(m, quadric._two_line_split(m, polar)) | polar
    assert quadric._is_point_plus_two_cycles(m, z, union)
    assert not quadric._is_point_plus_two_cycles(m, z, union ^ (1 << p1))
    assert not quadric._is_point_plus_two_cycles(m, p1, union)
    other = next(iter_bits(~union & ((1 << 35) - 1)))
    assert not quadric._is_point_plus_two_cycles(m, z, union ^ (1 << p1) | (1 << other))


def test_conic_plane_sections_by_hand():
    # a non-degenerate triple spans a plane whose polar meets the quadric
    # in q + 1 points; spot-check one triangle directly
    m = QuadricModel(2)
    adj = m.adjacency_masks
    u = 0
    v = next(iter_bits(adj[u]))
    w = next(x for x in iter_bits(adj[u] & adj[v]) if x > v)
    polar = oracle_perp_space(m, (u, v, w))
    assert polar.k == 3
    section = m.polar_section((u, v, w))
    assert section.bit_count() == 3
    assert section == _mask(oracle_section(m, polar))
