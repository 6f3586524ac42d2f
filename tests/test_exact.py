import inspect
import random
import sys
import textwrap
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qktw.errors import BudgetExceededError
from qktw import exact
from qktw.exact import (
    SolveBudget,
    min_balanced_separator,
    min_degree_width,
    mis_exact,
    treewidth_all_orderings,
    treewidth_at_most,
    treewidth_by_decision,
    treewidth_exact,
)
from qktw.graph import (
    Graph,
    complete_graph,
    component,
    components,
    iter_bits,
    path_graph,
    petersen_graph,
)
from qktw.kneser import KneserParams, alpha_value, build_kneser_graph
from qktw.treedec import (
    TreeDecomposition,
    balanced_separator_check,
    star_decomposition,
    validate_td,
)

from graph_helpers import cycle_graph


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def min_vertex_cover_bruteforce(g):
    """Smallest vertex cover by exhaustive search (oracle for mis_exact)."""
    edges = list(g.edges())
    for size in range(g.n + 1):
        for cover in combinations(range(g.n), size):
            cmask = sum(1 << v for v in cover)
            if all((cmask >> u) & 1 or (cmask >> v) & 1 for u, v in edges):
                return size
    raise AssertionError("unreachable: V itself covers all edges")


def test_mis_small_graphs():
    assert mis_exact(cycle_graph(5))[0] == 2
    assert mis_exact(complete_graph(6))[0] == 1
    assert mis_exact(Graph(4))[0] == 4  # edgeless
    size, witness = mis_exact(path_graph(5))
    assert size == 3
    assert witness == (0, 2, 4)


def test_mis_on_kneser_graphs():
    g = build_kneser_graph(KneserParams(2, 4, 2, 1))
    assert mis_exact(g)[0] == 7 == alpha_value(KneserParams(2, 4, 2, 1))


def test_mis_witness_is_independent():
    g = random_graph(12, 0.4, seed=7)
    size, witness = mis_exact(g)
    for i, u in enumerate(witness):
        for v in witness[i + 1 :]:
            assert not g.adjacency[u] >> v & 1
    assert len(witness) == size


def test_mis_matches_vertex_cover_complement():
    for seed in range(25):
        n = 6 + seed % 7
        g = random_graph(n, 0.4, seed)
        assert mis_exact(g)[0] == n - min_vertex_cover_bruteforce(g)
    g16 = random_graph(16, 0.35, seed=99)
    assert mis_exact(g16)[0] == 16 - min_vertex_cover_bruteforce(g16)


def test_mis_budget():
    g = random_graph(12, 0.3, seed=1)
    with pytest.raises(BudgetExceededError):
        mis_exact(g, SolveBudget(max_vertices=10))
    with pytest.raises(BudgetExceededError):
        mis_exact(g, SolveBudget(node_limit=2))


# (n, p, seed, search nodes, witness): the search tree of the greedy-color
# branch and bound, which the color-class cut must leave as it is
MIS_SEARCH_TREES = [
    (12, 0.3, 1, 10, (2, 4, 5, 7, 10, 11)),
    (20, 0.5, 2, 6, (2, 4, 9, 15, 19)),
    (25, 0.7, 7, 5, (11, 12, 22, 24)),
    (30, 0.3, 3, 39, (1, 2, 3, 4, 6, 9, 19, 20, 24, 26)),
    (40, 0.2, 4, 110, (4, 8, 12, 14, 21, 27, 28, 30, 33, 37, 38, 39)),
    (40, 0.5, 5, 36, (0, 4, 10, 16, 21, 32, 34)),
    (60, 0.1, 6, 1946, (0, 2, 4, 6, 7, 10, 12, 16, 23, 24, 26, 34, 35, 39, 44, 47, 49, 51, 53,
                        56, 57, 58)),
    (100, 0.4, 1, 1582, (3, 4, 5, 14, 15, 16, 61, 63, 66, 71, 92)),
    (150, 0.5, 1, 2209, (1, 2, 33, 35, 50, 54, 124, 141, 146, 148)),
]


@pytest.mark.parametrize("n, p, seed, nodes, witness", MIS_SEARCH_TREES)
def test_mis_search_tree_is_pinned(n, p, seed, nodes, witness):
    g = random_graph(n, p, seed)
    assert mis_exact(g, SolveBudget(node_limit=nodes)) == (len(witness), witness)
    with pytest.raises(BudgetExceededError, match="search-node limit"):
        mis_exact(g, SolveBudget(node_limit=nodes - 1))


def test_mis_search_tree_is_pinned_on_k3_5_2_1():
    g = build_kneser_graph(KneserParams(3, 5, 2, 1))
    assert g.n == 1210
    size, witness = mis_exact(g, SolveBudget(max_vertices=g.n, node_limit=532))
    assert size == 40 == alpha_value(KneserParams(3, 5, 2, 1))
    assert witness == (
        164, 204, 244, 282, 319, 356, 385, 422, 459, 473, 504, 535, 564, 592, 620, 640, 668, 696,
        737, 768, 799, 828, 856, 884, 904, 932, 960, 1103, 1117, 1128, 1134, 1145, 1153, 1159,
        1170, 1178, 1187, 1191, 1195, 1197,
    )
    with pytest.raises(BudgetExceededError, match="search-node limit 531 exceeded"):
        mis_exact(g, SolveBudget(max_vertices=g.n, node_limit=531))


def reference_mis(g, budget=None):
    """``mis_exact`` with the coloring that clears each vertex's
    complement-neighbours by ``&= ~comp[v]``: its search tree is the
    kernel's, node for node.  Returns (size, witness, search nodes)."""
    budget = budget or SolveBudget()
    clock = exact._BudgetClock(budget)
    comp = g.complement().adjacency
    best_size = 0
    best_mask = 0

    def expand(rmask, rsize, cand):
        nonlocal best_size, best_mask
        clock.tick()
        if not cand:
            if rsize > best_size:
                best_size, best_mask = rsize, rmask
            return
        kmin = best_size - rsize
        rest = cand
        color = 0
        while rest and color < kmin:
            color += 1
            avail = rest
            while avail:
                bit = avail & -avail
                avail &= ~(comp[bit.bit_length() - 1] | bit)
                rest ^= bit
        order = []
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~comp[v]
                avail &= ~bit
                rest &= ~bit
                order.append((v, color))
        for v, color in reversed(order):
            if rsize + color <= best_size:
                return
            bit = 1 << v
            expand(rmask | bit, rsize + 1, cand & comp[v])
            cand &= ~bit

    expand(0, 0, (1 << g.n) - 1)
    return best_size, tuple(iter_bits(best_mask)), clock.nodes


def _differential_graphs():
    rng = random.Random(31)
    for n in range(1, 41):
        yield Graph(n)
        yield complete_graph(n)
        for _ in range(4):
            yield random_graph(n, rng.choice([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]),
                               rng.randrange(10**6))


def test_mis_matches_the_reference_kernel_node_for_node():
    graphs = list(_differential_graphs())
    assert len(graphs) >= 200
    for g in graphs:
        size, witness, nodes = reference_mis(g)
        # within `nodes` and not within one fewer: the same node count
        assert mis_exact(g, SolveBudget(node_limit=nodes)) == (size, witness)
        short = SolveBudget(node_limit=nodes - 1)
        with pytest.raises(BudgetExceededError) as ours:
            mis_exact(g, short)
        with pytest.raises(BudgetExceededError) as theirs:
            reference_mis(g, short)
        assert str(ours.value) == str(theirs.value)


def test_treewidth_named_graphs():
    assert treewidth_exact(complete_graph(5))[0] == 4
    assert treewidth_exact(path_graph(6))[0] == 1
    assert treewidth_exact(cycle_graph(7))[0] == 2
    assert treewidth_exact(petersen_graph())[0] == 4
    tree = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert treewidth_exact(tree)[0] == 1
    assert treewidth_exact(Graph(3))[0] == 0  # edgeless


def test_treewidth_decomposition_is_valid_and_optimal_width():
    for g in (petersen_graph(), cycle_graph(6), random_graph(9, 0.5, seed=3)):
        tw, td = treewidth_exact(g)
        rep = validate_td(g, td)
        assert rep.passed
        assert td.width() == tw


def test_treewidth_agrees_with_all_orderings():
    for seed in range(30):
        g = random_graph(4 + seed % 5, 0.45, seed)
        assert treewidth_exact(g)[0] == treewidth_all_orderings(g)


def test_treewidth_budget():
    g = random_graph(12, 0.3, seed=2)
    with pytest.raises(BudgetExceededError):
        treewidth_exact(g, SolveBudget(max_vertices=10))


def test_treewidth_table_budget_fails_before_allocating(monkeypatch):
    class Allocated(Exception):
        pass

    def allocate(n):
        raise Allocated(n)

    # 9 table bytes per subset past 16 vertices: 2^23 subsets fit 128 MiB
    tables = exact._subset_tables(17)
    assert sum(len(t) * getattr(t, "itemsize", 1) for t in tables) == 9 * 2**17
    assert 9 * 2**23 <= 2**27 < 9 * 2**24
    # the subset tables are the first allocation; 23 vertices reach it
    monkeypatch.setattr(exact, "_subset_tables", allocate)
    assert exact.TREEWIDTH_TABLE_MAX_VERTICES == 23
    with pytest.raises(Allocated):
        treewidth_exact(path_graph(23), SolveBudget(max_vertices=40))
    with pytest.raises(BudgetExceededError, match="23 vertices"):
        treewidth_exact(path_graph(24), SolveBudget(max_vertices=40))


def test_min_balanced_separator_examples():
    sep = min_balanced_separator(path_graph(3))
    assert sep.size == 1 and sep.witness == (1,)
    # in a complete graph any leftover pair is adjacent, so only P = V works
    assert min_balanced_separator(complete_graph(4)).size == 4
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert min_balanced_separator(two_triangles).size == 0


def test_min_balanced_separator_witness_is_balanced():
    g = random_graph(9, 0.35, seed=11)
    sep = min_balanced_separator(g)
    assert balanced_separator_check(g, sep.witness).balanced
    if sep.size:
        # nothing smaller is balanced: spot-check by re-running capped search
        for smaller in combinations(range(g.n), sep.size - 1):
            assert not balanced_separator_check(g, smaller).balanced


def test_separator_lower_bound_vs_treewidth():
    graphs = [path_graph(6), cycle_graph(6), petersen_graph()] + [
        random_graph(8, 0.4, seed=s) for s in range(10)
    ]
    for g in graphs:
        tw, _ = treewidth_exact(g)
        sep = min_balanced_separator(g)
        assert tw + 1 >= sep.size
        # some balanced separator always fits in a bag of an optimal
        # decomposition, so the treewidth is at least its size - 1
        assert tw >= sep.size - 1


def test_star_bound_dominates_treewidth():
    for seed in range(10):
        g = random_graph(8, 0.5, seed)
        size, witness = mis_exact(g)
        if 0 < size < g.n:
            td = star_decomposition(g, witness)
            assert treewidth_exact(g)[0] <= td.width()


@given(n=st.integers(4, 8), seed=st.integers(0, 10_000))
def test_dp_vs_bruteforce_property(n, seed):
    g = random_graph(n, 0.5, seed)
    assert treewidth_exact(g)[0] == treewidth_all_orderings(g)


# -- slow oracles for the kernels ------------------------------------------------


def reference_all_orderings(g):
    """Every elimination ordering as its own permutation, each fill-in
    simulated from scratch; the width cut ends only that permutation."""
    n = g.n
    best = n - 1
    for perm in permutations(range(n)):
        adj = list(g.adjacency)
        alive = (1 << n) - 1
        width = 0
        for v in perm:
            nb = adj[v] & alive & ~(1 << v)
            d = nb.bit_count()
            if d > width:
                width = d
                if width >= best:
                    break
            for u in iter_bits(nb):
                adj[u] |= nb
            alive ^= 1 << v
        else:
            best = min(best, width)
    return best


def _reach_degree(adj, eliminated, v):
    """Vertices outside ``eliminated`` + {v} connected to v through
    eliminated vertices: v's fill degree when eliminated after them."""
    outside = adj[v] & ~eliminated
    frontier = adj[v] & eliminated
    reach = 0
    while frontier:
        reach |= frontier
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= adj[u]
        outside |= nxt & ~eliminated
        frontier = nxt & eliminated & ~reach
    return (outside & ~(1 << v)).bit_count()


def reference_treewidth(g):
    """The subset DP with one reachability search per (subset, vertex)."""
    n = g.n
    size = 1 << n
    best = bytearray(size)
    choice = bytearray(size)
    for s in range(1, size):
        best_width, best_v = 255, 0
        for v in iter_bits(s):
            prev = s ^ (1 << v)
            cand = max(best[prev], _reach_degree(g.adjacency, prev, v))
            if cand < best_width:
                best_width, best_v = cand, v
        best[s], choice[s] = best_width, best_v
    order = []
    s = size - 1
    while s:
        order.append(choice[s])
        s ^= 1 << choice[s]
    return best[size - 1], exact._decomposition_from_order(g, order[::-1])


def reference_balanced(g, ymask):
    return all(2 * c.bit_count() <= ymask.bit_count() for c, _ in components(g.adjacency, ymask))


def reference_separator(g):
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        for p in combinations(range(g.n), size):
            ymask = full & ~sum(1 << v for v in p)
            if reference_balanced(g, ymask):
                sizes = sorted((c.bit_count() for c, _ in components(g.adjacency, ymask)), reverse=True)
                return size, p, tuple(sizes)


def forced_set(g, size):
    """F_s: the vertices v with deg(v) - s >= floor((n - s) / 2), which
    every balanced separator of size s contains."""
    half = (g.n - size) // 2
    return {v for v in range(g.n) if g.degree(v) - size >= half}


def separator_candidates(g):
    """The sets the separator search tests, in its order: by size, the
    sizes with |F_s| > s skipped, and F_s + R for R over the other
    vertices in lexicographic order."""
    for size in range(g.n + 1):
        forced = forced_set(g, size)
        if len(forced) > size:
            continue
        rest = [v for v in range(g.n) if v not in forced]
        for r in combinations(rest, size - len(forced)):
            yield tuple(sorted(forced.union(r)))


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def disjoint_union(a, b):
    """``a`` on the first vertices, ``b`` on the next ones."""
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph.from_edges(a.n + b.n, edges)


NAMED_GRAPHS = [
    Graph(1),
    Graph(6),
    path_graph(8),
    cycle_graph(9),
    complete_graph(7),
    petersen_graph(),
    disjoint_union(complete_graph(4), cycle_graph(5)),
    # the two components tie on width 4 (two Petersen graphs make 20
    # vertices, past the default cap, and the reference takes 30 s there)
    disjoint_union(petersen_graph(), complete_graph(5)),
    disjoint_union(path_graph(5), Graph(3)),
]


@pytest.mark.parametrize("g", NAMED_GRAPHS, ids=lambda g: f"n{g.n}-m{g.edge_count}")
def test_treewidth_matches_the_reference_dp_on_named_graphs(g):
    assert treewidth_exact(g) == reference_treewidth(g)


@given(g=graphs(max_n=10))
def test_treewidth_matches_the_reference_dp(g):
    assert treewidth_exact(g) == reference_treewidth(g)


@given(a=graphs(max_n=6), b=graphs(max_n=6))
def test_treewidth_matches_the_reference_dp_on_disjoint_unions(a, b):
    g = disjoint_union(a, b)
    assert treewidth_exact(g) == reference_treewidth(g)


TREE = Graph.from_edges(8, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (6, 7)])


@pytest.mark.parametrize(
    "g, tw",
    [(Graph(1), 0), (Graph(7), 0), (complete_graph(8), 7), (path_graph(8), 1), (TREE, 1)],
    ids=["n1", "edgeless", "complete", "path", "tree"],
)
def test_all_orderings_on_named_graphs(g, tw):
    assert treewidth_all_orderings(g) == reference_all_orderings(g) == tw


@given(
    n=st.integers(1, 8),
    p=st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)),
    seed=st.integers(0, 10_000),
)
def test_all_orderings_matches_the_permutation_loop(n, p, seed):
    g = random_graph(n, p, seed)
    assert treewidth_all_orderings(g) == reference_all_orderings(g)


@given(g=graphs(max_n=11))
def test_separator_matches_the_reference_search(g):
    sep = min_balanced_separator(g)
    assert (sep.size, sep.witness, sep.component_sizes) == reference_separator(g)


def assert_every_set_missing_a_forced_vertex_is_unbalanced(g):
    full = (1 << g.n) - 1
    forced = [sum(1 << v for v in forced_set(g, size)) for size in range(g.n + 1)]
    for pmask in range(full + 1):
        size = pmask.bit_count()
        if forced[size] & ~pmask:
            assert not exact._balanced(g.adjacency, full ^ pmask, g.n - size), pmask


@pytest.mark.parametrize("g", NAMED_GRAPHS, ids=lambda g: f"n{g.n}-m{g.edge_count}")
def test_forced_vertices_are_in_every_balanced_separator_on_named_graphs(g):
    assert_every_set_missing_a_forced_vertex_is_unbalanced(g)


@given(g=graphs(max_n=9))
def test_forced_vertices_are_in_every_balanced_separator(g):
    assert_every_set_missing_a_forced_vertex_is_unbalanced(g)


# the benchmark's separator mix: n = 12-15, p = 0.5-0.8
SEPARATOR_GNP = [(12 + i % 4, (0.5, 0.6, 0.7, 0.8)[i // 10], i) for i in range(40)]


@pytest.mark.parametrize("n, p, seed", SEPARATOR_GNP)
def test_separator_matches_the_unpruned_search_on_dense_graphs(n, p, seed):
    g = random_graph(n, p, seed)
    sep = min_balanced_separator(g)
    assert (sep.size, sep.witness, sep.component_sizes) == reference_separator(g)


def test_forcing_one_short_of_the_half_is_caught(monkeypatch):
    # forcing v at deg(v) - s >= half - 1 drops the balanced sets of size
    # 9 and 10 here, where the unpruned search finds one of size 9
    monkeypatch.setattr(
        exact,
        "min_balanced_separator",
        _mutant("min_balanced_separator", "if d - size >= half)", "if d - size >= half - 1)"),
    )
    g = random_graph(13, 0.7, seed=25)
    sep = exact.min_balanced_separator(g)
    assert (sep.size, sep.witness, sep.component_sizes) != reference_separator(g)
    assert reference_separator(g)[0] == 9 < sep.size


@given(g=graphs(max_n=12), data=st.data())
def test_balanced_matches_the_component_predicate(g, data):
    ymask = data.draw(st.integers(0, (1 << g.n) - 1))
    for y in (ymask, 0, ymask & -ymask):
        assert exact._balanced(g.adjacency, y, y.bit_count()) == reference_balanced(g, y)


def test_treewidth_node_limit_is_one_node_per_nonempty_subset(monkeypatch):
    class Allocated(Exception):
        pass

    def allocate(n):
        raise Allocated(n)

    g = random_graph(9, 0.4, seed=5)
    full = 2**g.n - 1
    assert treewidth_exact(g, SolveBudget(node_limit=full)) == treewidth_exact(g)
    # priced before it runs: one node short is refused before any table
    # is made, and the DP keeps no clock to tick
    monkeypatch.setattr(exact, "_subset_tables", allocate)
    monkeypatch.setattr(exact, "_BudgetClock", None)
    with pytest.raises(BudgetExceededError) as info:
        treewidth_exact(g, SolveBudget(node_limit=full - 1))
    assert str(info.value) == (
        "search-node limit 510 is below the subset DP's 511 nodes, one per nonempty subset: "
        "refused before solving"
    )
    with pytest.raises(Allocated):
        treewidth_exact(g, SolveBudget(node_limit=full))


class ReadLog(bytearray):
    """A width table that records, for each subset written, the subsets
    read since the previous write."""

    def __init__(self, size):
        super().__init__(size)
        self.pending = []
        self.reads = {}

    def __getitem__(self, i):
        self.pending.append(i)
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.reads[i], self.pending = self.pending, []
        super().__setitem__(i, value)


@pytest.mark.parametrize("seed", range(4))
def test_treewidth_reads_one_component_split_or_a_scan_up_to_d(monkeypatch, seed):
    tables = exact._subset_tables
    logs = []

    def logged(n):
        best, *masks = tables(n)
        logs.append(ReadLog(len(best)))
        return (logs[-1], *masks)

    monkeypatch.setattr(exact, "_subset_tables", logged)
    g = random_graph(8, 0.3 + 0.1 * seed, seed)
    treewidth_exact(g)
    widths = bytes(logs[0])
    adj = g.adjacency
    for s in range(1, 2**g.n):
        top = component(adj, 1 << s.bit_length() - 1, s)[0]
        if top != s:
            # the highest vertex's component and the rest
            expected = [top, s ^ top]
        elif s & (s - 1):
            # TW(S - v) in ascending v up to the first one within d
            reach = 0
            for v in iter_bits(s):
                reach |= adj[v]
            d = (reach & ~s).bit_count()
            expected = []
            for v in iter_bits(s):
                expected.append(s ^ 1 << v)
                if widths[s ^ 1 << v] <= d:
                    break
        else:
            expected = []
        assert logs[0].reads[s] == expected, s


HIGH_TABLE_GRAPHS = {
    "edgeless": Graph(12),
    "path": path_graph(12),
    "matching": Graph.from_edges(12, [(v, v + 1) for v in range(0, 12, 2)]),
    "star": Graph.from_edges(12, [(0, v) for v in range(1, 12)]),
    "star-centred-on-top": Graph.from_edges(12, [(11, v) for v in range(11)]),
    "complete": complete_graph(12),
} | {
    f"gnp-{n}-{p}": random_graph(n, p, seed)
    for seed, (n, p) in enumerate([(9, 0.2), (10, 0.3), (11, 0.15), (12, 0.25), (12, 0.5)])
}


@pytest.mark.parametrize("g", HIGH_TABLE_GRAPHS.values(), ids=HIGH_TABLE_GRAPHS.keys())
def test_high_table_is_the_highest_vertex_component(monkeypatch, g):
    tables = exact._subset_tables
    kept = []

    def logged(n):
        kept.append(tables(n))
        return kept[-1]

    monkeypatch.setattr(exact, "_subset_tables", logged)
    assert treewidth_exact(g) == reference_treewidth(g)
    _, high, _ = kept[0]
    for s in range(1, 2**g.n):
        assert high[s] == component(g.adjacency, 1 << s.bit_length() - 1, s)[0], s


def test_separator_node_limit_is_one_node_per_candidate():
    # one node per candidate tested: the sizes the degrees rule out cost
    # none (sizes 0-3 here), and the forced vertices are never branched on
    g = random_graph(10, 0.5, seed=8)
    sep = min_balanced_separator(g)
    assert sep.size > 0
    at_witness = list(separator_candidates(g)).index(sep.witness) + 1
    order = [p for size in range(g.n + 1) for p in combinations(range(g.n), size)]
    assert at_witness <= order.index(sep.witness) + 1
    assert min_balanced_separator(g, SolveBudget(node_limit=at_witness)) == sep
    with pytest.raises(BudgetExceededError, match="search-node limit"):
        min_balanced_separator(g, SolveBudget(node_limit=at_witness - 1))


@pytest.mark.parametrize("field", ["max_vertices", "node_limit"])
def test_negative_limits_are_refused(field):
    with pytest.raises(ValueError, match=f"{field} must not be negative"):
        SolveBudget(**{field: -1})
    assert getattr(SolveBudget(**{field: 0}), field) == 0


# -- the decision path -----------------------------------------------------------


def reference_min_degree_width(g):
    """Min-degree elimination by a scan over the live vertices per step."""
    adj = list(g.adjacency)
    alive = (1 << g.n) - 1
    width = 0
    while alive:
        v = min(iter_bits(alive), key=lambda u: (adj[u] & alive).bit_count())
        nb = adj[v] & alive & ~(1 << v)
        width = max(width, nb.bit_count())
        for u in iter_bits(nb):
            adj[u] |= nb & ~(1 << u)
        alive ^= 1 << v
    return width


@given(g=graphs(max_n=12))
def test_min_degree_width_matches_the_scan_and_bounds_the_treewidth(g):
    assert min_degree_width(g) == reference_min_degree_width(g) >= treewidth_exact(g)[0]


def assert_decision_matches_the_subset_dp(g, every_width=True):
    """The decision path against ``treewidth_exact``: the width, the
    decomposition (so the .td bytes) and, optionally, every decision."""
    tw, td = treewidth_exact(g)
    assert exact.treewidth_by_decision(g) == (tw, td)
    if every_width:
        for w in range(-1, g.n + 1):
            assert exact.treewidth_at_most(g, w) == (tw <= w), w


@pytest.mark.parametrize("g", NAMED_GRAPHS, ids=lambda g: f"n{g.n}-m{g.edge_count}")
def test_decision_path_matches_the_subset_dp_on_named_graphs(g):
    assert_decision_matches_the_subset_dp(g)


@given(g=graphs(max_n=10))
def test_decision_path_matches_the_subset_dp(g):
    assert_decision_matches_the_subset_dp(g)


@given(a=graphs(max_n=6), b=graphs(max_n=6))
def test_decision_path_matches_the_subset_dp_on_disjoint_unions(a, b):
    assert_decision_matches_the_subset_dp(disjoint_union(a, b))


DECISION_GNP = [
    (n, p, seed)
    for n in (8, 11, 13, 16)
    for p in (0.2, 0.35, 0.5, 0.65, 0.8, 0.9)
    for seed in (0, 1)
]


@pytest.mark.parametrize("n, p, seed", DECISION_GNP)
def test_decision_order_is_the_subset_dp_order(n, p, seed):
    assert_decision_matches_the_subset_dp(random_graph(n, p, seed), every_width=False)


def _mutant(name, old, new):
    """``exact.<name>`` rebuilt from its source with ``old`` replaced once
    by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(exact, name)))
    assert source.count(old) == 1, old
    namespace = dict(vars(exact))
    exec(source.replace(old, new), namespace)
    return namespace[name]


MUTATIONS = {
    "fill-degree-plus-one": ("_width_levels", ".bit_count() <= w:", ".bit_count() <= w + 1:"),
    "fill-degree-minus-one": ("_width_levels", ".bit_count() <= w:", ".bit_count() < w:"),
    "levels-cut-one-short": ("_width_levels", "range(1, size - w)", "range(1, size - w - 1)"),
    "top-level-one-short": (
        "treewidth_by_decision", "top = part.bit_count() - w - 1", "top = part.bit_count() - w - 2"
    ),
    "component-not-merged": ("_width_levels", "components(adj, t)", "components(adj, t)[1:]"),
    "recovery-keeps-the-parent-width": (
        "treewidth_by_decision", "while w and within(s, w - 1):", "while False:"
    ),
}


@pytest.mark.parametrize("name, old, new", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_each_mutation_of_the_decision_path_is_caught(monkeypatch, name, old, new):
    monkeypatch.setattr(exact, name, _mutant(name, old, new))
    with pytest.raises(AssertionError):
        for g in NAMED_GRAPHS:
            assert_decision_matches_the_subset_dp(g)
        for n, p, seed in DECISION_GNP:
            assert_decision_matches_the_subset_dp(random_graph(n, p, seed), every_width=False)


def _families(monkeypatch):
    """Patch ``_width_levels`` to keep every level family it builds."""
    levels_of = exact._width_levels
    built = []

    def logged(adj, part, w, clock):
        built.append(levels_of(adj, part, w, clock))
        return built[-1]

    monkeypatch.setattr(exact, "_width_levels", logged)
    return built


def _family_nodes(monkeypatch):
    """Patch ``_width_levels`` to log each family's width and the nodes it
    ticked."""
    levels_of = exact._width_levels
    log = []

    def logged(adj, part, w, clock):
        start = clock.nodes
        levels = levels_of(adj, part, w, clock)
        log.append((w, clock.nodes - start))
        return levels

    monkeypatch.setattr(exact, "_width_levels", logged)
    return log


def _expanded(families):
    """Sets expanded: every level of a family but the last, the top or an
    empty one."""
    return sum(len(level) for levels in families for level in levels[:-1])


def _searches(monkeypatch):
    """Patch ``_search`` to log each query's memos and answer."""
    search = exact._search
    log = []

    def logged(adj, x, w, memos, stop, clock):
        log.append((memos, search(adj, x, w, memos, stop, clock)))
        return log[-1][1]

    monkeypatch.setattr(exact, "_search", logged)
    return log


def _memos(log):
    """The search's memos of each width, of every run logged."""
    return [memo for memos in {id(m): m for m, _ in log}.values() for memo in memos.values()]


def _search_passes(monkeypatch):
    """Patch the search's splits and the refutations to log the vertices
    each goes over."""
    log = []
    split, touches = exact.components, exact._touches

    def logged_split(adj, mask):
        if sys._getframe(1).f_code.co_name == "_search":
            log.append(mask.bit_count())
        return split(adj, mask)

    def logged_touches(adj, start, within, target, tick):
        return touches(adj, start, within, target, lambda cost: tick(log.append(cost) or cost))

    monkeypatch.setattr(exact, "components", logged_split)
    monkeypatch.setattr(exact, "_touches", logged_touches)
    return log


def test_decision_node_limit_counts_the_vertices_of_each_pass(monkeypatch):
    g = random_graph(14, 0.6, seed=4)
    assert len(components(g.adjacency, (1 << g.n) - 1)) == 1
    families = _families(monkeypatch)
    passes = _search_passes(monkeypatch)
    result = treewidth_by_decision(g)
    # each set a family expands costs the n vertices of the one component
    nodes = g.n * _expanded(families) + sum(passes)
    assert len(families) >= 2 and _expanded(families) > 10 and len(passes) > 10
    assert treewidth_by_decision(g, SolveBudget(node_limit=nodes)) == result
    with pytest.raises(BudgetExceededError, match=f"search-node limit {nodes - 1} exceeded"):
        treewidth_by_decision(g, SolveBudget(node_limit=nodes - 1))
    families.clear()
    assert treewidth_at_most(g, result[0]) and len(families) == 1
    nodes = g.n * _expanded(families)
    assert treewidth_at_most(g, result[0], SolveBudget(node_limit=nodes))
    with pytest.raises(BudgetExceededError, match=f"search-node limit {nodes - 1} exceeded"):
        treewidth_at_most(g, result[0], SolveBudget(node_limit=nodes - 1))


def test_treewidth_at_most_ticks_what_the_decision_path_ticks_for_its_family(monkeypatch):
    # the family just below the treewidth, which the width search builds
    g = random_graph(14, 0.6, seed=4)
    ticked = _family_nodes(monkeypatch)
    below = treewidth_by_decision(g)[0] - 1
    nodes = dict(ticked)[below]
    assert nodes > g.n
    ticked.clear()
    assert not treewidth_at_most(g, below, SolveBudget(node_limit=nodes))
    assert ticked == [(below, nodes)]
    with pytest.raises(BudgetExceededError, match=f"search-node limit {nodes - 1} exceeded"):
        treewidth_at_most(g, below, SolveBudget(node_limit=nodes - 1))


def test_decision_path_takes_the_vertex_cap_but_no_table_cap():
    g = random_graph(24, 0.5, seed=24)
    with pytest.raises(BudgetExceededError, match="24 vertices exceeds the budget of 18"):
        treewidth_by_decision(g)
    with pytest.raises(BudgetExceededError, match="24 vertices exceeds the budget of 23"):
        treewidth_at_most(g, 20, SolveBudget(max_vertices=23))
    tw, td = treewidth_by_decision(g, SolveBudget(max_vertices=24))
    assert validate_td(g, td).passed and td.width() == tw
    assert not treewidth_at_most(g, tw - 1, SolveBudget(max_vertices=24))


def test_decision_path_decides_each_component_apart():
    # as one vertex set, the width-10 levels would hold every mix of
    # clique and isolated vertices: 263,950 sets expanded, 20 nodes each
    g = disjoint_union(complete_graph(11), Graph(9))
    assert treewidth_by_decision(g, SolveBudget(max_vertices=20, node_limit=200)) == (
        treewidth_exact(g, SolveBudget(max_vertices=20))
    )
    # at width 9 the clique's family expands one set of 11 vertices
    assert not treewidth_at_most(g, 9, SolveBudget(max_vertices=20, node_limit=11))
    with pytest.raises(BudgetExceededError, match="search-node limit 10 exceeded"):
        treewidth_at_most(g, 9, SolveBudget(max_vertices=20, node_limit=10))


@pytest.mark.parametrize(
    "g, held",
    [
        (random_graph(14, 0.4, seed=2), "decision"),
        (random_graph(14, 0.6, seed=4), "search"),
        (path_graph(40), "search"),
    ],
    ids=["level", "memo", "path"],
)
def test_level_budget_is_the_largest_level(monkeypatch, g, held):
    # the budget bounds each level and each width's search memo, and the
    # larger of the two trips first
    families = _families(monkeypatch)
    searches = _searches(monkeypatch)
    budget = SolveBudget(max_vertices=40)
    result = treewidth_by_decision(g, budget)
    # no query gave up: the memos hold every set met
    assert None not in (found for _, found in searches)
    largest = max(len(s) for s in [*(lv for levels in families for lv in levels), *_memos(searches)])
    monkeypatch.setattr(exact, "TREEWIDTH_LEVEL_BUDGET", largest)
    assert treewidth_by_decision(g, budget) == result
    monkeypatch.setattr(exact, "TREEWIDTH_LEVEL_BUDGET", largest - 1)
    with pytest.raises(BudgetExceededError, match=f"{held} holds more than {largest - 1} sets"):
        treewidth_by_decision(g, budget)


def star_graph(n):
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def grid_graph(rows, cols):
    return Graph.from_edges(
        rows * cols,
        [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)],
    )


def random_tree(n, seed):
    """A random recursive tree with its labels shuffled."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[v], label[rng.randrange(v)]) for v in range(1, n)])


def clique_with_path(k, m):
    """K_k with a path of m more vertices hanging from its last vertex."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return Graph.from_edges(k + m, edges + [(v, v + 1) for v in range(k - 1, k + m - 1)])


@pytest.mark.parametrize(
    "g",
    [
        star_graph(16),
        cycle_graph(16),
        path_graph(16),
        grid_graph(4, 4),
        random_tree(16, seed=16),
        clique_with_path(8, 8),
    ],
    ids=["star", "cycle", "path", "grid", "tree", "clique-path"],
)
def test_decision_path_matches_the_subset_dp_on_sparse_families(g):
    assert_decision_matches_the_subset_dp(g, every_width=False)


def test_decision_path_matches_the_subset_dp_on_300_seeded_graphs():
    for seed in range(300):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 14), rng.random(), seed)
        assert treewidth_by_decision(g) == treewidth_exact(g), seed


@pytest.mark.parametrize("g", [star_graph(18), cycle_graph(18)], ids=["star", "cycle"])
def test_the_search_answers_sparse_graphs_in_a_few_nodes(g):
    # the level family at the treewidth, which the search replaces, held
    # 2^17 sets of the star and most sets of the cycle, 18 nodes each
    assert treewidth_by_decision(g, SolveBudget(node_limit=g.n**2)) == treewidth_exact(g)


def reference_subset_widths(g):
    """TW(S) for every subset S, by the subset DP with one reachability
    search per (subset, vertex)."""
    best = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        best[s] = min(
            max(best[s ^ (1 << v)], _reach_degree(g.adjacency, s ^ (1 << v), v))
            for v in iter_bits(s)
        )
    return best


def assert_search_matches_the_subset_dp(g):
    """Every query TW(X) <= w, over all subsets X and widths w in a seeded
    order, against the reference, all on one set of memos."""
    best = reference_subset_widths(g)
    queries = [(x, w) for x in range(1 << g.n) for w in range(g.n)]
    random.Random(g.n).shuffle(queries)
    memos = {}
    clock = exact._BudgetClock(SolveBudget())
    for x, w in queries:
        found = exact._search(g.adjacency, x, w, memos, 1 << 40, clock)
        assert found == (best[x] <= w), (x, w)


SEARCH_GRAPHS = [
    path_graph(8),
    cycle_graph(9),
    star_graph(8),
    complete_graph(6),
    grid_graph(3, 3),
    disjoint_union(complete_graph(4), cycle_graph(5)),
    disjoint_union(path_graph(5), Graph(3)),
    *(random_graph(9, p, seed=9) for p in (0.2, 0.35, 0.5, 0.7)),
]


@pytest.mark.parametrize("g", SEARCH_GRAPHS, ids=lambda g: f"n{g.n}-m{g.edge_count}")
def test_search_matches_the_subset_dp_at_every_width(g):
    assert_search_matches_the_subset_dp(g)


@given(g=graphs(max_n=7))
def test_search_matches_the_subset_dp_on_hypothesis_graphs(g):
    assert_search_matches_the_subset_dp(g)


def test_search_gives_up_past_its_limit_and_keeps_only_answers():
    g = grid_graph(3, 3)
    best = reference_subset_widths(g)
    memos = {}
    clock = exact._BudgetClock(SolveBudget())
    x = (1 << g.n) - 1
    assert exact._search(g.adjacency, x, 2, memos, 200, clock) is None
    assert clock.nodes > 200 and memos[2]
    assert all(found == (best[k] <= 2) for k, found in memos[2].items())
    assert exact._search(g.adjacency, x, 2, memos, 1 << 40, clock) is False
    assert exact._search(g.adjacency, x, 3, memos, 1 << 40, clock) is True


SEARCH_MUTATIONS = {
    "outside-neighbours-off-by-one": ("_search", "if d > w:", "if d > w + 1:"),
    "disconnected-set-as-one": (
        "_search",
        "stack = [[0, 0, 0, 0, 0, components(adj, x)]]",
        "stack = [[0, 0, 0, 0, 0, [component(adj, x, x)]]]",
    ),
    "memo-keyed-without-w": (
        "_search", "memo = memos.setdefault(w, {})", "memo = memos.setdefault(0, {})"
    ),
    "refuted-below-the-width": (
        "_refuters", "if not out or out.bit_count() != w:", "if not out or out.bit_count() > w:"
    ),
}


@pytest.mark.parametrize(
    "name, old, new", SEARCH_MUTATIONS.values(), ids=SEARCH_MUTATIONS.keys()
)
def test_each_mutation_of_the_search_is_caught(monkeypatch, name, old, new):
    monkeypatch.setattr(exact, name, _mutant(name, old, new))
    with pytest.raises(AssertionError):
        for g in SEARCH_GRAPHS:
            assert_search_matches_the_subset_dp(g)


def _give_up(adj, x, w, memos, stop, clock):
    return None


def test_a_search_that_gives_up_hands_its_width_to_the_family(monkeypatch):
    monkeypatch.setattr(exact, "_search", _give_up)
    for g in NAMED_GRAPHS:
        assert_decision_matches_the_subset_dp(g, every_width=False)
    for n, p, seed in DECISION_GNP:
        assert_decision_matches_the_subset_dp(random_graph(n, p, seed), every_width=False)


def test_a_give_up_that_builds_the_wrong_family_is_caught(monkeypatch):
    monkeypatch.setattr(exact, "_search", _give_up)
    monkeypatch.setattr(
        exact,
        "treewidth_by_decision",
        _mutant("treewidth_by_decision", "found = within(x, width)", "found = within(x, width - 1)"),
    )
    with pytest.raises(AssertionError):
        for g in NAMED_GRAPHS:
            assert_decision_matches_the_subset_dp(g, every_width=False)
        for n, p, seed in DECISION_GNP:
            assert_decision_matches_the_subset_dp(random_graph(n, p, seed), every_width=False)


def test_search_budget_names_the_search_and_the_width(monkeypatch):
    monkeypatch.setattr(exact, "TREEWIDTH_LEVEL_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as info:
        treewidth_by_decision(path_graph(30), SolveBudget(max_vertices=30))
    assert str(info.value) == "the width-1 search holds more than 5 sets"


def reference_decomposition_from_order(g, order):
    """The bag-attachment construction by recursion, each clique under the
    first bag made that holds it."""
    n = g.n
    adj = list(g.adjacency)
    alive = (1 << n) - 1
    cliques = []
    for v in order:
        nb = adj[v] & alive & ~(1 << v)
        cliques.append((v, nb))
        for u in iter_bits(nb):
            adj[u] |= nb
        alive ^= 1 << v
    bags, edges = [], []

    def build(i):
        if i == n - 1:
            bags.append({order[i]})
            return
        v, nb = cliques[i]
        build(i + 1)
        clique = set(iter_bits(nb))
        target = next(t for t, bag in enumerate(bags) if clique <= bag)
        bags.append(clique | {v})
        edges.append((target, len(bags) - 1))

    build(0)
    return TreeDecomposition(tuple(tuple(sorted(b)) for b in bags), tuple(edges))


def test_decomposition_from_order_matches_the_recursive_construction():
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 12), rng.random(), seed)
        order = list(range(g.n))
        rng.shuffle(order)
        assert exact._decomposition_from_order(g, order) == (
            reference_decomposition_from_order(g, order)
        ), seed


def test_decomposition_from_order_takes_thousands_of_vertices():
    g = path_graph(2000)
    order = list(range(0, 2000, 2)) + list(range(1, 2000, 2))
    td = exact._decomposition_from_order(g, order)
    assert validate_td(g, td).passed and td.width() == 2


def test_decision_path_refuses_past_its_vertex_limit():
    g = path_graph(exact._DECISION_MAX_VERTICES + 1)
    with pytest.raises(BudgetExceededError, match="2049 vertices exceed the 2048 of the decision path"):
        treewidth_by_decision(g, SolveBudget(max_vertices=5000))


def test_treewidth_at_most_refuses_past_the_decision_path_vertex_limit():
    g = path_graph(exact._DECISION_MAX_VERTICES + 1)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="2049 vertices exceed the 2048 of the decision path"):
        treewidth_at_most(g, 1, SolveBudget(max_vertices=5000))
    assert time.monotonic() - start < 1
