import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from qktw import kneser, suites
from qktw.errors import OutOfCertifiedRangeError, SizeLimitError
from qktw.gf import make_field
from qktw.graph import GRAPH_MAX_VERTICES, certify_collineations, certify_maps
from qktw.kneser import (
    KneserParams,
    ResultTag,
    alpha_value,
    build_kneser_graph,
    counting_inequality_check,
    counting_sweep_params,
    duality_isomorphism,
    gl_generators,
    gl_vertex_maps,
    intersection_counts,
    kneser_star_decomposition,
    star_independent_set,
    treewidth_verdict,
)
from qktw.qbinom import gauss_binom
from qktw.subspace import (
    enumerate_k_subspaces,
    meet_masks,
    orthogonal_complement,
    rref_canonical,
    subspaces_of,
)
from qktw.suites import vertex_census
from qktw.treedec import validate_td

from subspace_helpers import oracle_intersect_dim

F2 = make_field(2)


def tags_of(verdict):
    return {t.value for t in verdict.applicable}


def test_params_validation():
    with pytest.raises(ValueError):
        KneserParams(2, 4, 2, 2)  # t = k is not allowed
    with pytest.raises(ValueError):
        KneserParams(2, 4, 2, 3)  # t > k
    with pytest.raises(ValueError):
        KneserParams(2, 3, 2, 1)  # n <= 2k - t means an empty graph
    with pytest.raises(ValueError):
        KneserParams(6, 4, 2, 1)  # q must be a prime power


def test_dual_is_always_valid_and_an_involution():
    # n > 2k - t makes the dual's t = n - 2k + t at least 1: the sweep's
    # tuples, and seeded tuples with 2k - t < n < 2k, whose duals are reduced
    rng = random.Random(5)
    seeded = []
    for _ in range(300):
        k = rng.randint(3, 40)
        t = rng.randint(2, k - 1)
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 64, 251])
        seeded.append(KneserParams(q, rng.randint(2 * k - t + 1, 2 * k - 1), k, t))
    for p in counting_sweep_params(50) + seeded:
        d = p.dual
        assert isinstance(d, KneserParams) and d.dual == p
        assert (d.q, d.n, d.k, d.t) == (p.q, p.n, p.n - p.k, p.n - 2 * p.k + p.t)
        if p.n < 2 * p.k:
            assert d.is_reduced


def test_build_kneser_graph_2421():
    g = build_kneser_graph(KneserParams(2, 4, 2, 1))
    assert g.n == 35
    assert g.degrees() == [16] * g.n
    assert g.edge_count == 35 * 16 // 2


def test_build_kneser_graph_2521():
    g = build_kneser_graph(KneserParams(2, 5, 2, 1))
    assert g.n == 155
    assert g.degrees() == [112] * g.n


def test_alpha_values():
    assert alpha_value(KneserParams(2, 4, 2, 1)) == 7
    assert alpha_value(KneserParams(3, 4, 2, 1)) == 13
    assert alpha_value(KneserParams(2, 5, 2, 1)) == 15
    # n < 2k: the other branch of the maximum is active
    assert alpha_value(KneserParams(2, 5, 3, 2)) == 15


def test_alpha_value_is_the_larger_side_of_the_maximum():
    checked = reflected = 0
    for q in (2, 3, 4, 5, 7, 9):
        for k in range(2, 8):
            for t in range(1, k):
                for n in range(2 * k - t + 1, 3 * k + 4):
                    both = gauss_binom(n - t, k - t, q), gauss_binom(2 * k - t, k - t, q)
                    assert alpha_value(KneserParams(q, n, k, t)) == max(both), (q, n, k, t)
                    checked += 1
                    reflected += n < 2 * k
    assert (checked, reflected) == (1386, 210)


@pytest.mark.parametrize(
    "q,n,k,t",
    [(2, 4, 2, 1), (2, 5, 2, 1), (3, 4, 2, 1), (2, 5, 3, 2), (2, 6, 2, 1)],
)
def test_star_independent_set_is_maximum_and_independent(q, n, k, t):
    p = KneserParams(q, n, k, t)
    family = star_independent_set(p)
    assert len(family) == alpha_value(p)
    assert len(set(family)) == len(family)
    for i, u in enumerate(family):
        for v in family[i + 1 :]:
            assert oracle_intersect_dim(u, v) >= t  # no edge
    if n >= 2 * k:
        fixed = rref_canonical(
            [[1 if j == i else 0 for j in range(n)] for i in range(t)], make_field(q)
        )
        assert all(oracle_intersect_dim(u, fixed) == t for u in family)


@pytest.mark.parametrize("q,n,k,t", [(2, 4, 2, 1), (2, 5, 3, 2)])
def test_kneser_star_decomposition_realizes_the_formula(q, n, k, t):
    p = KneserParams(q, n, k, t)
    g, td = kneser_star_decomposition(p)
    assert g == build_kneser_graph(p)
    assert validate_td(g, td).passed
    assert td.width() == treewidth_verdict(p).formula_value
    star = {g.labels.index(s) for s in star_independent_set(p)}
    assert td.bags[0] == tuple(v for v in range(g.n) if v not in star)


def test_star_set_inside_fixed_subspace_when_n_small():
    p = KneserParams(2, 5, 3, 2)
    hull = rref_canonical(
        [[1 if j == i else 0 for j in range(5)] for i in range(4)], F2
    )
    for u in star_independent_set(p):
        assert oracle_intersect_dim(hull, u) == u.k


def test_intersection_counts_examples():
    assert intersection_counts(2, 4, 2) == {0: 16, 1: 18, 2: 1}
    assert intersection_counts(2, 2, 1) == {0: 2, 1: 1}
    assert intersection_counts(2, 3, 2) == {0: 0, 1: 6, 2: 1}
    for q, n, k in ((2, 5, 2), (3, 4, 2), (2, 5, 3)):
        counts = intersection_counts(q, n, k)
        assert counts[k] == 1
        assert sum(counts.values()) == gauss_binom(n, k, q)


def intersection_census(vertices):
    """Brute-force profile: per-vertex counts of intersection dimensions,
    verified identical for every base vertex."""
    base = None
    for u in vertices:
        c = Counter(oracle_intersect_dim(u, v) for v in vertices)
        if base is None:
            base = c
        elif c != base:
            raise ArithmeticError("intersection census is not vertex-uniform")
    assert base is not None
    k = vertices[0].k
    return {j: base.get(j, 0) for j in range(k + 1)}


def test_profile_matches_bruteforce_census():
    for q, n, k, t in ((2, 4, 2, 1), (3, 4, 2, 1), (2, 5, 3, 2)):
        p = KneserParams(q, n, k, t)
        g = build_kneser_graph(p)
        counts = intersection_counts(q, n, k)
        assert intersection_census(g.labels) == counts
        # the degree stays within |V| - alpha - 1: the star construction is width-optimal
        degree = sum(m for j, m in counts.items() if j < t)
        assert degree <= gauss_binom(n, k, q) - alpha_value(p) - 1


def test_duality_isomorphism_2532():
    rep = duality_isomorphism(KneserParams(2, 5, 3, 2))
    assert rep.dual_params == KneserParams(2, 5, 2, 1)
    assert rep.vertex_count == 155
    assert rep.pairs_checked == 155 * 154 // 2
    assert rep.passed


def test_duality_isomorphism_self_dual():
    rep = duality_isomorphism(KneserParams(2, 4, 2, 1))
    assert rep.dual_params == KneserParams(2, 4, 2, 1)
    assert rep.passed


def test_duality_mismatches_match_the_pairwise_oracle(monkeypatch):
    # swap the images of two vertices; the per-pair elimination loop says
    # which pairs the broken map fails on
    p = KneserParams(2, 5, 2, 1)
    verts = enumerate_k_subspaces(5, 2, F2)
    images = [orthogonal_complement(u) for u in verts]
    images[3], images[40] = images[40], images[3]
    lookup = dict(zip(verts, images))
    monkeypatch.setattr(kneser, "orthogonal_complement", lookup.__getitem__)
    expected = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if (oracle_intersect_dim(verts[i], verts[j]) < p.t)
        != (oracle_intersect_dim(images[i], images[j]) < p.dual.t)
    ]
    rep = duality_isomorphism(p)
    assert rep.bijective and expected
    assert list(rep.mismatches) == expected
    assert not rep.passed


def test_graph_budget_fails_before_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a graph past the budget")

    monkeypatch.setattr(kneser, "enumerate_k_subspaces", refuse)
    # [6,3]_3 = 33880 is just past 2^15; [8,4]_2 = 200787 passes the
    # 2,000,000 enumeration cap but not the adjacency budget
    assert gauss_binom(6, 3, 3) > GRAPH_MAX_VERTICES == 2**15
    for params in (KneserParams(3, 6, 3, 1), KneserParams(2, 8, 4, 1)):
        with pytest.raises(SizeLimitError):
            build_kneser_graph(params)
        with pytest.raises(SizeLimitError):
            duality_isomorphism(params)


def test_graph_budget_boundary(monkeypatch):
    p = KneserParams(2, 4, 2, 1)
    monkeypatch.setattr(kneser, "GRAPH_MAX_VERTICES", 35)
    assert build_kneser_graph(p).n == 35
    monkeypatch.setattr(kneser, "GRAPH_MAX_VERTICES", 34)
    with pytest.raises(SizeLimitError):
        build_kneser_graph(p)


def test_duality_isomorphism_q3():
    rep = duality_isomorphism(KneserParams(3, 5, 2, 1))
    assert rep.dual_params == KneserParams(3, 5, 3, 2)
    assert rep.vertex_count == 1210
    assert rep.passed


def test_counting_inequality_examples():
    rep = counting_inequality_check(KneserParams(9, 6, 3, 2))
    assert [c.s for c in rep.cases] == [0, 1]
    empty, s1 = rep.cases
    assert empty.lhs == 0 and empty.passed  # sum starts above s
    assert s1.lhs == 100  # [1,1] * [2,1]_9^2 * [3,0]
    assert s1.rhs == Fraction(820, 2)
    assert rep.passed


def test_counting_inequality_range_gate():
    with pytest.raises(OutOfCertifiedRangeError):
        counting_inequality_check(KneserParams(2, 4, 2, 1))
    # in range through the uniform bound: n = 16 >= 3k - t + 9
    rep = counting_inequality_check(KneserParams(2, 16, 3, 2))
    assert rep.passed


def counting_oracle(p):
    """The pair-counting sums (s, lhs, rhs, passed) as one double loop over
    (s, i), every Gaussian binomial evaluated in place."""
    reduced = p if p.is_reduced else p.dual
    q, n, k, t = reduced.q, reduced.n, reduced.k, reduced.t
    rhs = Fraction(gauss_binom(n - t, k - t, q), 2)
    out = []
    for s in range(max(0, 2 * k - n), t):
        total = 0
        for i in range(max(0, 2 * t - k), s + 1):
            total += (
                gauss_binom(s, i, q)
                * gauss_binom(k - i, t - i, q) ** 2
                * gauss_binom(n - 2 * t + i, k - 2 * t + i, q)
            )
        out.append((s, total, rhs, total <= rhs))
    return out


# in-range tuples with larger fields and dimensions than the default sweep,
# dual (n < 2k) ones among them
COUNTING_ORACLE_EXTRA = [
    KneserParams(251, 25, 8, 7),
    KneserParams(251, 40, 12, 3),
    KneserParams(251, 61, 30, 26),
    KneserParams(127, 70, 30, 20),
    KneserParams(49, 16, 6, 5),
    KneserParams(32, 19, 7, 4),
    KneserParams(9, 30, 10, 8),
    KneserParams(2, 40, 8, 6),
    KneserParams(3, 23, 7, 5),
    KneserParams(2, 60, 12, 9),
    KneserParams(251, 25, 17, 16),
    KneserParams(9, 30, 20, 18),
]


@pytest.mark.parametrize("p", counting_sweep_params(50) + COUNTING_ORACLE_EXTRA, ids=str)
def test_counting_check_matches_the_double_loop(p):
    rep = counting_inequality_check(p)
    got = [(c.s, c.lhs, c.rhs, c.passed) for c in rep.cases]
    assert got == counting_oracle(p)
    assert all(type(c.rhs) is Fraction for c in rep.cases)


def test_counting_check_passes_on_a_tie(monkeypatch):
    # Gaussian binomials stubbed so that the one sum (s = 0) is exactly
    # alpha/2: [13,1] plays alpha = 2, every other factor is 1
    p = KneserParams(2, 14, 2, 1)
    monkeypatch.setattr(kneser, "gauss_binom", lambda n, k, q: 2 if (n, k) == (13, 1) else 1)
    (case,) = counting_inequality_check(p).cases
    assert case.lhs == case.rhs == 1
    assert case.passed
    monkeypatch.setattr(kneser, "gauss_binom", lambda n, k, q: 2 if (n, k) == (13, 1) else 3)
    (case,) = counting_inequality_check(p).cases
    assert case.lhs == 81 and not case.passed


def test_counting_sweep_rejects_counts_below_one():
    for count in (0, -5):
        with pytest.raises(ValueError, match="count"):
            counting_sweep_params(count)
    assert len(counting_sweep_params(1)) == 1


def test_counting_sweep_refuses_counts_past_its_tuples():
    assert len(set(counting_sweep_params(4151))) == 4151
    with pytest.raises(ValueError, match="need count <= 4151, .* got 4152"):
        counting_sweep_params(4152)


def test_counting_sweep_deterministic_and_in_range():
    sweep = counting_sweep_params(50)
    assert len(sweep) == 50
    assert sweep == counting_sweep_params(50)
    assert KneserParams(5, 6, 2, 1) in sweep
    assert KneserParams(9, 5, 2, 1) in sweep
    assert KneserParams(3, 8, 2, 1) in sweep
    for p in sweep[:10]:
        assert counting_inequality_check(p).passed


def test_pair_count_examples():
    # line pairs (t = 1) of planes (k = 2) in F_2^4, counted by hand; the
    # bound is [s,i] [k-i,t-i]^2
    verts = enumerate_k_subspaces(4, 2, F2)
    classes, columns = vertex_census(verts)  # vertex 0 against all
    censuses = {
        b: (s, [columns[0][i][b] for i in range(min(s, 1) + 1)])
        for s, bs in enumerate(classes)
        for b in bs
    }
    assert [len(bs) for bs in classes] == [16, 18, 1]

    def bound(s, i):
        return gauss_binom(s, i, 2) * gauss_binom(2 - i, 1 - i, 2) ** 2

    # diagonal: K1 = K2, i = t
    s, lines = censuses[0]
    assert s == 2 and lines[1] == gauss_binom(2, 1, 2) == bound(s, 1) == 3
    # s = 1, i = 1: both t-subspaces must be the intersection line
    s, lines = next(c for c in censuses.values() if c[0] == 1)
    assert (lines[1], bound(s, 1)) == (1, 1)
    # s = 0, i = 0: all 3 x 3 line pairs qualify, and none meets in i > s
    s, lines = next(c for c in censuses.values() if c[0] == 0)
    assert (lines[0], bound(s, 0)) == (9, 9)
    assert len(lines) == 1


# -- the GL(n,q) certificate ------------------------------------------------------


def broken_class_lists(verts, sigma):
    """The s, 1 <= s < k, whose class list "dim(a ∩ b) >= s" the vertex map
    sigma does not keep.  sigma keeps it exactly when the meet masks of the
    images, vertex a read as verts[sigma[a]], equal those of the vertices:
    every pair is compared, the diagonal included."""
    images = [verts[sigma[a]] for a in range(len(verts))]
    return [s for s in range(1, verts[0].k) if meet_masks(images, s) != meet_masks(verts, s)]


def census_maps(monkeypatch, verts):
    """The vertex maps that vertex_census reads off its point maps."""
    seen = []

    def spy(*args):
        seen.append(certify_collineations(*args))
        return seen[-1]

    monkeypatch.setattr(suites, "certify_collineations", spy)
    vertex_census(verts)
    return seen.pop()


# the (n, k) of pair_count_suite's default sweep, with k = 1 added
CENSUS_SWEEP = [(n, k) for n in range(2, 6) for k in range(1, min(3, n) + 1)]


@pytest.mark.parametrize("q,n,k", [(q, n, k) for q in (2, 3) for n, k in CENSUS_SWEEP])
def test_point_derived_maps_pass_the_class_list_certificate(monkeypatch, q, n, k):
    verts = enumerate_k_subspaces(n, k, make_field(q))
    sigmas = census_maps(monkeypatch, verts)
    assert sigmas == gl_vertex_maps(verts, gl_generators(n, verts[0].field))
    assert all(broken_class_lists(verts, sigma) == [] for sigma in sigmas)


def point_setup(q, n, k):
    """The k-subspaces, the generators' point maps, and the point masks of
    the lines and of the k-subspaces, all built here."""
    f = make_field(q)
    verts, points = enumerate_k_subspaces(n, k, f), enumerate_k_subspaces(n, 1, f)
    at = {p.rows: x for x, p in enumerate(points)}

    def point_masks(spaces):
        return [sum(1 << at[w] for w in subspaces_of(u, 1)) for u in spaces]

    pis = gl_vertex_maps(points, gl_generators(n, f))
    return verts, pis, point_masks(enumerate_k_subspaces(n, 2, f)), point_masks(verts)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 3), (3, 4, 2), (3, 3, 1), (4, 3, 2)])
def test_gl_generators_are_certified_automorphisms(q, n, k):
    verts, pis, lines, blocks = point_setup(q, n, k)
    assert len(pis) == (3 if q == 2 else 4)
    sigmas = certify_collineations(pis, len(pis[0]), lines, blocks)
    # each map keeps the intersection dimension of every pair it moves
    for sigma in sigmas:
        for a in range(0, len(verts), 7):
            for b in range(len(verts)):
                assert oracle_intersect_dim(
                    verts[sigma[a]], verts[sigma[b]]
                ) == oracle_intersect_dim(verts[a], verts[b])


def test_certificate_refuses_a_point_map_with_two_points_swapped():
    _, pis, lines, blocks = point_setup(2, 4, 2)
    pis[1][5], pis[1][9] = pis[1][9], pis[1][5]
    with pytest.raises(ArithmeticError, match="map 1 does not map the lines onto themselves"):
        certify_collineations(pis, 15, lines, blocks)
    with pytest.raises(ArithmeticError, match="not a permutation of the 15 vertices"):
        certify_collineations([[0] * 15], 15, lines, blocks)


def test_certificate_refuses_a_singular_generator():
    f = make_field(3)
    points = enumerate_k_subspaces(4, 1, f)
    eye = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    singular = ((1, 1, 0, 0), (0, 0, 0, 0)) + eye[2:]  # coordinate 1 of the image repeats x0
    with pytest.raises(ArithmeticError, match="off the vertices"):
        gl_vertex_maps(points, [gl_generators(4, f)[0], singular])


def test_certificate_refuses_maps_that_are_not_transitive():
    _, pis, lines, blocks = point_setup(3, 4, 2)
    # diag(w, 1, 1, 1) fixes every point of x0 = 0
    with pytest.raises(ArithmeticError, match="every vertex"):
        certify_collineations(pis[-1:], 40, lines, blocks)
    with pytest.raises(ArithmeticError, match="every vertex"):
        certify_collineations([], 40, lines, blocks)


def test_certificate_refuses_a_singer_cycle_that_is_transitive_on_points_only():
    # x -> x α in F_16 = F_2[α]/(α^4 + α + 1), on the basis 1, α, α², α³:
    # transitive on the 15 points, but its orbits on the 35 lines have 15,
    # 15 and 5 lines: the lines check passes, and the vertex orbit refuses it
    singer = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0))  # row i: α^i · α
    _, _, lines, blocks = point_setup(2, 4, 2)
    pis = gl_vertex_maps(enumerate_k_subspaces(4, 1, F2), [singer])
    certify_maps(pis, 15, lines)
    with pytest.raises(ArithmeticError, match="every vertex"):
        certify_collineations(pis, 15, lines, blocks)


def test_certificate_refuses_a_point_map_that_breaks_one_line_at_k_3():
    # the one 3-subspace of F_2^3 holds every point, so any permutation of
    # the points maps it onto itself: only the lines show a broken map
    _, pis, lines, blocks = point_setup(2, 3, 3)
    pis[2][0], pis[2][1] = pis[2][1], pis[2][0]
    assert certify_collineations(pis, 7, [], blocks) == [[0]] * 3
    with pytest.raises(ArithmeticError, match="map 2 does not map the lines onto themselves"):
        certify_collineations(pis, 7, lines, blocks)


def test_certificate_refuses_an_image_that_is_no_block():
    _, pis, lines, blocks = point_setup(2, 4, 2)
    # the image of the last block is no block, so no induced map is a permutation
    with pytest.raises(ArithmeticError, match="map 0 is not a permutation of the 34 vertices"):
        certify_collineations(pis, 15, lines, blocks[:-1])


@pytest.mark.parametrize("q,n,k", [(2, 5, 3), (3, 5, 2), (3, 5, 3)])
def test_certificate_refuses_a_class_list_that_is_not_preserved(q, n, k):
    verts, pis, lines, blocks = point_setup(q, n, k)
    sigma = certify_collineations(pis, len(pis[0]), lines, blocks)[0]
    assert broken_class_lists(verts, sigma) == []
    # still a permutation, but vertices 0 and 7 trade images
    sigma[0], sigma[7] = sigma[7], sigma[0]
    assert broken_class_lists(verts, sigma)


def test_verdict_k421():
    v = treewidth_verdict(KneserParams(2, 4, 2, 1))
    assert v.formula_value == 27
    assert v.alpha == 7 and v.upper_bound == 27
    assert tags_of(v) == {"K421"}
    assert v.treewidth_pinned
    v3 = treewidth_verdict(KneserParams(3, 4, 2, 1))
    assert v3.formula_value == 116
    assert tags_of(v3) == {"K421"}


def test_verdict_sqrt_range_example():
    v = treewidth_verdict(KneserParams(9, 6, 3, 2))
    assert tags_of(v) == {"SQRT_RANGE", "ALL_N_RANGE"}
    expected = gauss_binom(6, 3, 9) - gauss_binom(4, 1, 9) - 1
    assert v.formula_value == expected == v.upper_bound


def test_verdict_small_t_range_example():
    v = treewidth_verdict(KneserParams(2, 16, 3, 2))
    assert tags_of(v) == {"SMALL_T_RANGE", "UNIFORM_RANGE", "PRIOR_RANGE"}


def test_verdict_upper_bound_only():
    v = treewidth_verdict(KneserParams(2, 6, 2, 1))
    assert tags_of(v) == {"UPPER_BOUND_ONLY"}
    assert not v.treewidth_pinned
    assert v.formula_value == gauss_binom(6, 2, 2) - gauss_binom(5, 1, 2) - 1


def test_verdict_reflection():
    v = treewidth_verdict(KneserParams(2, 5, 3, 2))
    assert v.reflected
    assert v.params == KneserParams(2, 5, 2, 1)
    assert v.given_params == KneserParams(2, 5, 3, 2)
    assert v.formula_value == 139
    assert any("reflected" in note for note in v.notes)
    js = v.to_json()
    assert js["given_params"] == {"q": 2, "n": 5, "k": 3, "t": 2}
    assert js["formula_value"] == "139"


@pytest.mark.parametrize(
    "q,n,k,t,tag",
    [(2, 5, 3, 2, None), (2, 6, 2, 1, "UPPER_BOUND_ONLY"), (3, 4, 2, 1, "K421"),
     (2, 239, 121, 4, None)],
)
def test_verdict_renders_formula_value_once(monkeypatch, q, n, k, t, tag):
    v = treewidth_verdict(KneserParams(q, n, k, t))
    assert v.reflected == (n < 2 * k)
    assert tag is None or tags_of(v) == {tag}
    assert v.upper_bound == v.formula_value
    rendered = []

    def exact_str(x):
        rendered.append(x)
        return str(x)

    monkeypatch.setattr(kneser, "exact_str", exact_str)
    js = v.to_json()
    assert rendered == [v.formula_value, v.alpha]
    assert js["upper_bound"] == js["formula_value"] == str(v.formula_value)
    # a verdict built with another upper bound still renders its own value
    other = replace(v, upper_bound=v.formula_value + 1).to_json()
    assert other["upper_bound"] == str(v.formula_value + 1)


def test_verdict_boundary_is_strict():
    # n exactly at the threshold must not qualify for the sqrt range
    # q = 9, k = 2, t = 1: threshold n > 4, so n = 4 fails, n = 5 passes
    assert "SQRT_RANGE" not in tags_of(treewidth_verdict(KneserParams(9, 4, 2, 1)))
    assert "SQRT_RANGE" in tags_of(treewidth_verdict(KneserParams(9, 5, 2, 1)))


def test_tag_implications_over_sweep():
    main = {ResultTag.SMALL_T_RANGE, ResultTag.SQRT_RANGE}
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for k in range(2, 9):
            for t in range(1, k):
                for n in range(2 * k, 4 * k + 1):
                    v = treewidth_verdict(KneserParams(q, n, k, t))
                    tags = v.applicable
                    if ResultTag.UNIFORM_RANGE in tags:
                        assert tags & main
                    if ResultTag.ALL_N_RANGE in tags:
                        assert ResultTag.SQRT_RANGE in tags
                    if ResultTag.UPPER_BOUND_ONLY in tags:
                        assert len(tags) == 1
