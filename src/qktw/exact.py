"""Small-instance exact solvers used as ground truth.

Maximum independent set (branch and bound on the complement's clique
problem with a greedy coloring bound), exact treewidth (dynamic
programming over vertex subsets, with the component of each subset's
highest vertex kept in a table and the elimination order recovered along
one path of subsets), minimum balanced separator (exhaustive over subsets
by increasing size), and the all-orderings treewidth oracle (depth-first
over elimination orderings with the width cut) that ``verify-all`` checks
the subset DP against.  The slower brute-force oracles live in the tests.

All solvers are deterministic: fixed vertex order, lowest-index
tie-breaking.  Exceeded budgets raise, they never return a wrong answer.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError
from .graph import Graph, component, components, iter_bits
from .treedec import TreeDecomposition

MIS_VERTEX_CAP = 200
TREEWIDTH_VERTEX_CAP = 18
# The subset DP keeps 9 bytes per subset past 16 vertices (a one-byte
# width and two four-byte masks): 72 MiB at 23 vertices, within the
# 128 MiB memory budget of graph.GRAPH_MAX_VERTICES, and 144 MiB at 24.
# No budget admits more.
TREEWIDTH_TABLE_MAX_VERTICES = 23
# tw-exact refuses, before solving, a graph whose subset DP would tick more
# nodes (one per nonempty subset) than this: G(22, 1/2) takes about 12 s
# and 52 MiB peak RSS.
TREEWIDTH_NODE_BUDGET = 2**22 - 1
SEPARATOR_VERTEX_CAP = 20


@dataclass(frozen=True)
class SolveBudget:
    """Limits for the exact solvers; None fields take per-solver defaults."""

    max_vertices: int | None = None
    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        for name in ("max_vertices", "time_limit", "node_limit"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must not be negative, got {value}")


class _BudgetClock:
    """Node counter plus an occasionally-polled wall clock."""

    def __init__(self, budget: SolveBudget):
        self.node_limit = budget.node_limit
        self.time_limit = budget.time_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit is not None else None
        )
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            self._exceeded(f"search-node limit {self.node_limit}")
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                self._exceeded(f"time limit of {self.time_limit} s")

    def _exceeded(self, limit: str) -> None:
        # the node being ticked is not explored
        raise BudgetExceededError(
            f"{limit} exceeded after {self.nodes - 1} search nodes explored"
        )


def _check_vertex_cap(g: Graph, budget: SolveBudget | None, default_cap: int) -> SolveBudget:
    budget = budget or SolveBudget()
    cap = budget.max_vertices if budget.max_vertices is not None else default_cap
    if g.n > cap:
        raise BudgetExceededError(f"{g.n} vertices exceeds the budget of {cap}")
    return budget


# -- maximum independent set -----------------------------------------------------


def mis_exact(g: Graph, budget: SolveBudget | None = None) -> tuple[int, tuple[int, ...]]:
    """Maximum independent set size with a witness.

    Runs Tomita-style branch and bound for a maximum clique of the
    complement graph: candidates are greedily colored and pruned when the
    color bound cannot beat the incumbent.  As in San Segundo,
    Rodriguez-Losada and Jimenez's BBMC, only the colors that could beat
    the incumbent on entry are queued for branching.
    """
    budget = _check_vertex_cap(g, budget, MIS_VERTEX_CAP)
    clock = _BudgetClock(budget)
    comp = g.complement().adjacency
    best_size = 0
    best_mask = 0

    def expand(rmask: int, rsize: int, cand: int) -> None:
        nonlocal best_size, best_mask
        clock.tick()
        if not cand:
            if rsize > best_size:
                best_size, best_mask = rsize, rmask
            return
        # a vertex of color <= kmin cannot beat the incumbent, which only
        # grows: its class is colored, since the later classes depend on
        # it, but not queued, as the loop below would return at it
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
        order: list[tuple[int, int]] = []
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
    witness = tuple(iter_bits(best_mask))
    for v in witness:
        if g.adjacency_mask(v) & best_mask:
            raise AssertionError("witness is not independent")
    return best_size, witness


# -- exact treewidth ---------------------------------------------------------------


def _decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Fill-in simulation along an elimination order, then the standard
    bag-attachment construction."""
    n = g.n
    adj = list(g.adjacency)
    alive = (1 << n) - 1
    cliques: list[tuple[int, int]] = []
    for v in order:
        nb = adj[v] & alive & ~(1 << v)
        cliques.append((v, nb))
        for u in iter_bits(nb):
            adj[u] |= nb
        alive ^= 1 << v

    bags: list[set[int]] = []
    edges: list[tuple[int, int]] = []

    def build(i: int) -> None:
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


def _subset_tables(n: int) -> tuple[bytearray, array, array]:
    """The subset DP's tables, zeroed: one byte per subset for the width,
    and one mask per subset for high and nb."""
    size = 1 << n
    zeros = array("H" if n <= 16 else "I", [0])
    return bytearray(size), zeros * size, zeros * size


def treewidth_exact(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with an optimal decomposition.

    Dynamic programming over subsets S of already-eliminated vertices
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos): the best width of
    eliminating S first is TW(S) = min over v in S of max(TW(S - v), the
    fill degree of v after S - v).  That fill degree counts the vertices
    outside S reached from v through S - v, which are exactly N(K) - S
    for v's component K in G[S].  Hence a disconnected S takes the larger
    TW of its highest vertex's component C and of S - C, and a connected S
    takes max(|N(S) - S|, min over v of TW(S - v)).

    Per subset, from smaller subsets: nb[S] = N(S), and high[S], the
    component of S's highest vertex h in G[S].  That is h joined with the
    components of G[S - h] that h touches; they are peeled off S - h from
    the top through high, and the peel stops once every neighbour of h in
    S - h is covered.

    The order is recovered along one path of n subsets, taking at each
    the lowest v with max(TW(S - v), |N(K) - S|) = TW(S), the choice of a
    plain ascending scan that keeps only strict improvements; it is
    turned into a valid decomposition whose width equals the optimum.
    One budget node per nonempty subset.
    """
    budget = _check_vertex_cap(g, budget, TREEWIDTH_VERTEX_CAP)
    if g.n > TREEWIDTH_TABLE_MAX_VERTICES:
        raise BudgetExceededError(
            f"{g.n} vertices need 2^{g.n} subsets of 9 table bytes each; "
            f"they are limited to {TREEWIDTH_TABLE_MAX_VERTICES} vertices (128 MiB)"
        )
    tick = _BudgetClock(budget).tick
    n = g.n
    adj = g.adjacency
    best, high, nb = _subset_tables(n)
    for h in range(n):
        # the subsets whose highest vertex is h, in increasing order
        hb = 1 << h
        ah = adj[h]
        tick()
        high[hb] = hb
        nb[hb] = ah
        best[hb] = ah.bit_count()
        for s in range(hb + 1, hb << 1):
            tick()
            x = s ^ hb
            ns = nb[x] | ah
            nb[s] = ns
            # peel the components of G[S - h] from the top, merging those
            # that h touches, until all of h's neighbours there are covered
            c = hb
            need = ah & x
            while need:
                k = high[x]
                x ^= k
                if k & need:
                    c |= k
                    need &= ~k
            high[s] = c
            if c != s:
                a = best[c]
                b = best[s ^ c]
                best[s] = a if a > b else b
                continue
            # no candidate is below d, so the first TW(S - v) <= d settles it
            d = (ns & ~s).bit_count()
            m = 255
            rest = s
            while rest:
                bit = rest & -rest
                rest ^= bit
                prev = best[s ^ bit]
                if prev <= d:
                    m = d
                    break
                if prev < m:
                    m = prev
            best[s] = m

    s = (1 << n) - 1
    width = best[s]
    order = [0] * n
    for pos in range(n - 1, -1, -1):
        w = best[s]
        for v in iter_bits(s):
            bit = 1 << v
            if best[s ^ bit] <= w and (nb[component(adj, bit, s)] & ~s).bit_count() <= w:
                break
        order[pos] = v
        s ^= bit
    td = _decomposition_from_order(g, order)
    if td.width() != width:
        raise AssertionError("reconstructed decomposition does not match the optimum")
    return width, td


def treewidth_all_orderings(g: Graph) -> int:
    """Treewidth as the minimum over every elimination ordering of its
    largest fill degree (oracle for :func:`treewidth_exact`).

    Orderings are enumerated depth first: each prefix's fill-in is
    simulated once and shared by all its extensions.  A prefix whose width
    already reaches the best complete ordering is dropped with its whole
    subtree; width never falls as a prefix grows, so no dropped ordering
    could have won.  No subset memo and no component argument, so the
    oracle shares nothing with the subset DP it checks.  Seeded random
    graphs take milliseconds up to 12 vertices and up to a few seconds at
    13 or 14 (sparse ones are the slowest); the worst case is still n!.
    """
    n = g.n
    best = n - 1

    def extend(adj: list[int], alive: int, width: int) -> None:
        nonlocal best
        if not alive:
            best = min(best, width)
            return
        for v in iter_bits(alive):
            nb = adj[v] & alive & ~(1 << v)
            w = max(width, nb.bit_count())
            if w >= best:
                continue
            filled = list(adj)
            for u in iter_bits(nb):
                filled[u] |= nb
            extend(filled, alive ^ (1 << v), w)

    extend(list(g.adjacency), (1 << n) - 1, 0)
    return best


# -- minimum balanced separator --------------------------------------------------


@dataclass(frozen=True)
class SeparatorSearchResult:
    size: int
    witness: tuple[int, ...]
    component_sizes: tuple[int, ...]

    @property
    def implied_treewidth_lower(self) -> int:
        """Some balanced separator always fits in a bag of an optimal
        decomposition, so the treewidth is at least size - 1."""
        return self.size - 1


def _balanced(adj: list[int], ymask: int, ycount: int) -> bool:
    """Whether every component of the graph induced on ``ymask`` (which has
    ``ycount`` vertices) has at most ycount / 2 vertices.

    Stops growing a component once it passes the half, and stops looking
    once the unexplored rest is no larger than the half."""
    half = ycount // 2
    rest = ymask
    # inline, not graph.component: the early exit inside a component's growth
    # keeps the benchmark's separator graphs at 0.25 s, against 0.61 s
    while rest.bit_count() > half:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                nxt |= adj[bit.bit_length() - 1]
            frontier = nxt & ymask & ~comp
            comp |= frontier
            if comp.bit_count() > half:
                return False
        rest &= ~comp
    return True


def min_balanced_separator(
    g: Graph, budget: SolveBudget | None = None
) -> SeparatorSearchResult:
    """Smallest P such that every component of G - P has at most |V - P| / 2
    vertices.

    Exhaustive over subsets by increasing size; the first hit in
    lexicographic order is returned.  Each candidate costs one budget node
    and one early-exit balance test (`_balanced`); the components of
    G - P are listed only for the returned witness."""
    budget = _check_vertex_cap(g, budget, SEPARATOR_VERTEX_CAP)
    clock = _BudgetClock(budget)
    full = (1 << g.n) - 1
    adj = g.adjacency
    # the bits 1 << v come in ascending v, so the combinations of the bits
    # come in the same lexicographic order as those of the vertices
    bits = [1 << v for v in range(g.n)]
    for size in range(g.n + 1):
        for p in combinations(bits, size):
            clock.tick()
            ymask = full ^ sum(p)
            if _balanced(adj, ymask, g.n - size):
                sizes = [c.bit_count() for c in components(adj, ymask)]
                return SeparatorSearchResult(
                    size=size,
                    witness=tuple(b.bit_length() - 1 for b in p),
                    component_sizes=tuple(sorted(sizes, reverse=True)),
                )
    raise AssertionError("unreachable: P = V is always balanced")
