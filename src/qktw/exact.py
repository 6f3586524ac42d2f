"""Small-instance exact solvers used as ground truth.

Maximum independent set (branch and bound on the complement's clique
problem with a greedy coloring bound), exact treewidth (dynamic
programming over vertex subsets, with the component of each subset's
highest vertex kept in a table and the elimination order recovered along
one path of subsets), its decision form (the sets of at most n - w - 1
vertices that can be eliminated first within width w, built level by
level), which gives the same treewidth and decomposition where the width
is high, minimum balanced separator (exhaustive over subsets by
increasing size), and the all-orderings treewidth oracle (depth-first
over elimination orderings with the width cut) that ``verify-all`` checks
the subset DP against.  The slower brute-force oracles live in the tests.

All solvers are deterministic: fixed vertex order, lowest-index
tie-breaking.  Exceeded budgets raise, they never return a wrong answer.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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
# and 52 MiB peak RSS.  Its decision path, whose node count (one per set
# expanded) is known only as it runs, takes this as its node limit.
TREEWIDTH_NODE_BUDGET = 2**22 - 1
# The decision path holds each level as a set of masks, about 64 bytes a
# set: 16 MiB at this many sets, past which a level is refused.
TREEWIDTH_LEVEL_BUDGET = 2**18
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


def min_degree_width(g: Graph) -> int:
    """Width of the min-degree elimination order, the lowest vertex first
    on ties: an upper bound on the treewidth.

    A heap of (degree, vertex) entries, one pushed whenever a degree
    changes and stale ones skipped, keeps it near linear on sparse graphs
    of thousands of vertices."""
    adj = list(g.adjacency)
    degree = [m.bit_count() for m in adj]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapify(heap)
    alive = (1 << g.n) - 1
    width = 0
    while heap:
        d, v = heappop(heap)
        if not alive >> v & 1 or d != degree[v]:
            continue
        alive ^= 1 << v
        nb = adj[v] & alive
        width = max(width, d)
        for u in iter_bits(nb):
            adj[u] = (adj[u] | nb) & ~(1 << u)
            degree[u] = (adj[u] & alive).bit_count()
            heappush(heap, (degree[u], u))
    return width


def _neighbourhood(adj: list[int], mask: int) -> int:
    """N(mask): the vertices adjacent to some vertex of ``mask``."""
    out = 0
    for u in iter_bits(mask):
        out |= adj[u]
    return out


def _width_levels(adj: list[int], part: int, w: int, tick) -> list[set[int]]:
    """Levels 0..|part|-w-1 of the sets T inside ``part``, a component of
    the graph, with TW(T) <= w, as masks; the list ends early at the first
    empty level.

    Level j + 1 is every T + v, T in level j and v in part - T, whose fill
    set Q(T, v) = (N(v) | N(components of G[T] that v touches)) - T - v
    has at most w vertices: each component K of G[T] adds N(K) - T to the
    fill set of every vertex of N(K) - T, which are the vertices that
    touch it.  One ``tick`` per set expanded; a level that grows past
    TREEWIDTH_LEVEL_BUDGET sets is refused as it grows."""
    levels = [{0}]
    for j in range(1, part.bit_count() - w):
        grown = set()
        for t in levels[-1]:
            tick()
            out = part ^ t
            fill = list(adj)
            for k in components(adj, t):
                reach = _neighbourhood(adj, k) & out
                rest = reach
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    fill[bit.bit_length() - 1] |= reach
            rest = out
            while rest:
                bit = rest & -rest
                rest ^= bit
                if (fill[bit.bit_length() - 1] & (out ^ bit)).bit_count() <= w:
                    grown.add(t | bit)
            if len(grown) > TREEWIDTH_LEVEL_BUDGET:
                raise BudgetExceededError(
                    f"level {j} of the width-{w} decision holds more than "
                    f"{TREEWIDTH_LEVEL_BUDGET} sets"
                )
        levels.append(grown)
        if not grown:
            break
    return levels


def treewidth_at_most(g: Graph, w: int, budget: SolveBudget | None = None) -> bool:
    """Whether the treewidth is at most ``w``, by the decision form of the
    subset DP (Bodlaender, Fomin, Koster, Kratsch and Thilikos).

    A fill set stays inside one component C of the graph, and a vertex of
    C eliminated after j others of C reaches at most |C| - j - 1 vertices.
    So tw <= w iff in each C some set of |C| - w - 1 vertices can be
    eliminated first with every fill degree at most w: iff level
    |C| - w - 1 of :func:`_width_levels` is not empty.  One budget node
    per set expanded."""
    budget = _check_vertex_cap(g, budget, TREEWIDTH_VERTEX_CAP)
    tick = _BudgetClock(budget).tick
    adj = g.adjacency
    return all(
        _width_levels(adj, part, w, tick)[-1] for part in components(adj, (1 << g.n) - 1)
    )


def treewidth_by_decision(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with an optimal decomposition, equal to
    :func:`treewidth_exact`'s, ``.td`` bytes included, from level
    families of :func:`_width_levels` instead of a table over all 2^n
    subsets: faster where the width is high, as on dense graphs.

    TW(X) is the largest TW(X & C) over the components C of the graph,
    and TW(X & C) <= w iff X & C lies in level |X & C| when that is at
    most |C| - w - 1, and else iff X & C holds a set of the top level
    |C| - w - 1: every later fill degree is at most w by itself.  The
    treewidth is the least w at which V is decided, searched down from
    :func:`min_degree_width`.  The order is recovered as the subset DP
    recovers it, from V down: w is lowered to TW(S) while S is still
    decided at w - 1, then the lowest v with TW(S - v) <= w and
    |N(K) - S| <= w is eliminated last, K its component in G[S].  One
    level family is kept per component and width; one budget node per
    set expanded, and no table cap.
    """
    budget = _check_vertex_cap(g, budget, TREEWIDTH_VERTEX_CAP)
    tick = _BudgetClock(budget).tick
    n = g.n
    adj = g.adjacency
    parts = components(adj, (1 << n) - 1)
    families: dict[tuple[int, int], list[set[int]]] = {}

    def within(s: int, w: int) -> bool:
        """TW(s) <= w."""
        for part in parts:
            top = part.bit_count() - w - 1
            if top <= 0:
                continue
            if (part, w) not in families:
                families[part, w] = _width_levels(adj, part, w, tick)
            levels = families[part, w]
            x = s & part
            size = x.bit_count()
            if size <= top:
                if size >= len(levels) or x not in levels[size]:
                    return False
            elif top >= len(levels) or all(t & ~x for t in levels[top]):
                return False
        return True

    s = (1 << n) - 1
    width = min_degree_width(g)
    while width and within(s, width - 1):
        width -= 1
    order = [0] * n
    w = width
    for pos in range(n - 1, -1, -1):
        while w and within(s, w - 1):
            w -= 1
        for v in iter_bits(s):
            bit = 1 << v
            if within(s ^ bit, w) and (
                _neighbourhood(adj, component(adj, bit, s)) & ~s
            ).bit_count() <= w:
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
