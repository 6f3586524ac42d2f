"""Small-instance exact solvers used as ground truth.

Maximum independent set (branch and bound on the complement's clique
problem with a greedy coloring bound), exact treewidth (dynamic
programming over vertex subsets with decomposition reconstruction),
minimum balanced separator (exhaustive over subsets by increasing size),
and the all-orderings treewidth oracle (depth-first over elimination
orderings with the width cut) that ``verify-all`` checks the subset DP
against.  The slower brute-force oracles live in the tests.

All solvers are deterministic: fixed vertex order, lowest-index
tie-breaking.  Exceeded budgets raise, they never return a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError
from .graph import Graph, components, iter_bits
from .treedec import TreeDecomposition

MIS_VERTEX_CAP = 200
TREEWIDTH_VERTEX_CAP = 18
# The subset DP keeps two one-byte tables of 2^n entries: 128 MiB at 26
# vertices, the memory budget of graph.GRAPH_MAX_VERTICES.  No budget
# admits more.
TREEWIDTH_TABLE_MAX_VERTICES = 26
# tw-exact refuses, before solving, a graph whose subset DP would tick more
# nodes (one per nonempty subset) than this: G(22, 1/2) takes about 21 s.
TREEWIDTH_NODE_BUDGET = 2**22 - 1
SEPARATOR_VERTEX_CAP = 20


@dataclass(frozen=True)
class SolveBudget:
    """Limits for the exact solvers; None fields take per-solver defaults."""

    max_vertices: int | None = None
    time_limit: float | None = None
    node_limit: int | None = None


class _BudgetClock:
    """Node counter plus an occasionally-polled wall clock."""

    def __init__(self, budget: SolveBudget):
        self.node_limit = budget.node_limit
        self.time_limit = budget.time_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit else None
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
    color bound cannot beat the incumbent.
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
        order: list[tuple[int, int]] = []
        rest = cand
        color = 0
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


def treewidth_exact(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with an optimal decomposition.

    Dynamic programming over subsets S of already-eliminated vertices
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos): the best width of
    eliminating S first is min over v in S of max(best(S - v), the fill
    degree of v after S - v).  That fill degree counts the vertices
    outside S reached from v through S - v, which are exactly the outside
    neighbours of v's component K in G[S]; so one component pass per
    subset gives |N(K) - S| for every v in K at once.  The stored choice
    is the lowest v reaching the minimum, as in a plain ascending scan
    that keeps only strict improvements.  One byte per subset per table;
    the elimination order is recovered from the stored choices and turned
    into a valid decomposition whose width equals the optimum.  One
    budget node per nonempty subset.
    """
    budget = _check_vertex_cap(g, budget, TREEWIDTH_VERTEX_CAP)
    if g.n > TREEWIDTH_TABLE_MAX_VERTICES:
        raise BudgetExceededError(
            f"{g.n} vertices need two subset tables of 2^{g.n} bytes; "
            f"they are limited to {TREEWIDTH_TABLE_MAX_VERTICES} vertices (128 MiB)"
        )
    clock = _BudgetClock(budget)
    n = g.n
    adj = g.adjacency
    size = 1 << n
    best = bytearray(size)
    choice = bytearray(size)
    for s in range(1, size):
        clock.tick()
        best_width = 255
        best_v = n
        rest = s
        while rest:
            # grow the component K of rest's lowest vertex inside S; inline,
            # since graph.component's call per component made the benchmark's
            # exact-solvers wall_s 6% slower (medians 1.27 -> 1.34 s)
            comp = frontier = rest & -rest
            reach = 0
            while frontier:
                nxt = 0
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    nxt |= adj[bit.bit_length() - 1]
                reach |= nxt
                frontier = nxt & s & ~comp
                comp |= frontier
            rest &= ~comp
            d = (reach & ~s).bit_count()
            if d > best_width:
                continue
            # K's candidates in ascending order; none is below d, so the
            # first v with best(S - v) <= d is K's best
            while comp:
                bit = comp & -comp
                comp ^= bit
                prev = best[s ^ bit]
                cand = prev if prev > d else d
                if cand <= best_width:
                    v = bit.bit_length() - 1
                    if cand < best_width or v < best_v:
                        best_width, best_v = cand, v
                if prev <= d:
                    break
        best[s] = best_width
        choice[s] = best_v

    width = best[size - 1]
    order = [0] * n
    s = size - 1
    for pos in range(n - 1, -1, -1):
        v = choice[s]
        order[pos] = v
        s ^= 1 << v
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
    for size in range(g.n + 1):
        for p in combinations(range(g.n), size):
            clock.tick()
            pmask = 0
            for v in p:
                pmask |= 1 << v
            ymask = full & ~pmask
            if _balanced(adj, ymask, g.n - size):
                sizes = [c.bit_count() for c in components(adj, ymask)]
                return SeparatorSearchResult(
                    size=size,
                    witness=p,
                    component_sizes=tuple(sorted(sizes, reverse=True)),
                )
    raise AssertionError("unreachable: P = V is always balanced")
