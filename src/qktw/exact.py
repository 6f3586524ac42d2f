"""Small-instance exact solvers used as ground truth.

Maximum independent set (branch and bound on the complement's clique
problem with a greedy coloring bound, each vertex's complement-neighbours
cleared by one precomputed mask), exact treewidth (dynamic
programming over vertex subsets, with the component of each subset's
highest vertex kept in a table and the elimination order recovered along
one path of subsets), its decision form (the sets of at most n - w - 1
vertices that can be eliminated first within width w, built level by
level, and a memoized search from a set down), which gives the same
treewidth and decomposition, minimum balanced separator (by increasing
size, over the subsets that hold every vertex whose degree alone would
leave too large a component), and the all-orderings treewidth oracle
(depth-first over elimination orderings with the width cut) that
``verify-all`` checks the decision path against.  The slower brute-force
oracles live in the tests.

All solvers are deterministic: fixed vertex order, lowest-index
tie-breaking.  Exceeded budgets raise, they never return a wrong answer.
"""

from __future__ import annotations

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
# tw-exact's node limit.  Its decision path's node count (the vertices
# each of its passes goes over) is known only as it runs; the subset DP,
# its fallback, costs one node per nonempty subset and is refused before
# solving past it: G(22, 1/2) takes about 12 s and 52 MiB peak RSS there.
TREEWIDTH_NODE_BUDGET = 2**22 - 1
# The decision path holds each level, and each width's search memo, as
# masks, about 64 bytes a set: 16 MiB at this many sets, past which a
# level or a memo is refused.
TREEWIDTH_LEVEL_BUDGET = 2**18
# Its masks take n bits: past this many vertices a level or a memo of
# TREEWIDTH_LEVEL_BUDGET sets would hold more than 64 MiB of them, so
# larger graphs are refused.  The node budget bounds its time: at this
# size a path is solved in 2.1 million nodes, 1.9 s, and a ladder with
# shuffled labels trips the budget after 2.1 s (2 vCPU, in process).
_DECISION_MAX_VERTICES = 2048
SEPARATOR_VERTEX_CAP = 20


@dataclass(frozen=True)
class SolveBudget:
    """Limits for the exact solvers: a vertex cap, None for the solver's
    default, and a limit on search nodes, None for no limit."""

    max_vertices: int | None = None
    node_limit: int | None = None

    def __post_init__(self):
        for name in ("max_vertices", "node_limit"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must not be negative, got {value}")


class _BudgetClock:
    """A solver's search-node counter, held to the budget's node limit."""

    def __init__(self, budget: SolveBudget):
        self.node_limit = budget.node_limit
        self.nodes = 0

    def tick(self, cost: int = 1) -> None:
        """Count ``cost`` nodes: one for a node of most solvers, and for
        the decision path the vertices a pass goes over."""
        explored = self.nodes
        self.nodes += cost
        if self.node_limit is not None and self.nodes > self.node_limit:
            # the nodes being ticked are not explored
            raise BudgetExceededError(
                f"search-node limit {self.node_limit} exceeded after {explored} "
                "search nodes explored"
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
    the incumbent on entry are queued for branching.  ``keep[v]``, built
    once per call, is every vertex but v and its complement-neighbours, so
    coloring v takes one ``&=`` on the open class; the classes, the branch
    order and so the search tree are those of the unmasked coloring.
    """
    budget = _check_vertex_cap(g, budget, MIS_VERTEX_CAP)
    clock = _BudgetClock(budget)
    comp = g.complement().adjacency
    keep = [~(nb | 1 << v) for v, nb in enumerate(comp)]
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
                avail &= keep[bit.bit_length() - 1]
                rest ^= bit
        order: list[tuple[int, int]] = []
        while rest:
            color += 1
            avail = rest
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                avail &= keep[v]
                rest ^= bit
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

    # each clique goes under the first bag made that holds it: that of its
    # first-eliminated vertex, which the bags made earlier, of vertices
    # eliminated later, miss (an empty clique goes under the first bag).
    # A loop, not a recursion: orders of thousands of vertices are taken.
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    bags = [{order[-1]}]
    edges = []
    for v, nb in reversed(cliques[:-1]):
        clique = set(iter_bits(nb))
        target = n - 1 - min(position[u] for u in clique) if clique else 0
        edges.append((target, len(bags)))
        bags.append(clique | {v})
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
    It costs one budget node per nonempty subset, 2^n - 1 on every graph,
    so a node limit below that is refused before the tables are made.
    """
    budget = _check_vertex_cap(g, budget, TREEWIDTH_VERTEX_CAP)
    if g.n > TREEWIDTH_TABLE_MAX_VERTICES:
        raise BudgetExceededError(
            f"{g.n} vertices need 2^{g.n} subsets of 9 table bytes each; "
            f"they are limited to {TREEWIDTH_TABLE_MAX_VERTICES} vertices (128 MiB)"
        )
    n = g.n
    if budget.node_limit is not None and (1 << n) - 1 > budget.node_limit:
        raise BudgetExceededError(
            f"search-node limit {budget.node_limit} is below the subset DP's "
            f"{(1 << n) - 1} nodes, one per nonempty subset: refused before solving"
        )
    adj = g.adjacency
    best, high, nb = _subset_tables(n)
    for h in range(n):
        # the subsets whose highest vertex is h, in increasing order
        hb = 1 << h
        ah = adj[h]
        high[hb] = hb
        nb[hb] = ah
        best[hb] = ah.bit_count()
        for s in range(hb + 1, hb << 1):
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
            if best[s ^ bit] <= w and (component(adj, bit, s)[1] & ~s).bit_count() <= w:
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


def _width_levels(adj: list[int], part: int, w: int, clock) -> list[set[int]]:
    """Levels 0..|part|-w-1 of the sets T inside ``part``, a component of
    the graph, with TW(T) <= w, as masks; the list ends early at the first
    empty level.

    Level j + 1 is every T + v, T in level j and v in part - T, whose fill
    set Q(T, v) = (N(v) | N(components of G[T] that v touches)) - T - v
    has at most w vertices: each component K of G[T] adds N(K) - T to the
    fill set of every vertex of N(K) - T, which are the vertices that
    touch it.  Each set expanded costs ``clock`` the |part| vertices its
    pass goes over; a level that grows past TREEWIDTH_LEVEL_BUDGET sets is
    refused as it grows."""
    size = part.bit_count()
    levels = [{0}]
    for j in range(1, size - w):
        grown = set()
        for t in levels[-1]:
            clock.tick(size)
            out = part ^ t
            fill = list(adj)
            for k, reach in components(adj, t):
                reach &= out
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


def _decision_clock(g: Graph, budget: SolveBudget | None) -> _BudgetClock:
    """The decision path's admission, the vertex cap and then the
    _DECISION_MAX_VERTICES of its n-bit sets, and the budget's clock."""
    budget = _check_vertex_cap(g, budget, TREEWIDTH_VERTEX_CAP)
    if g.n > _DECISION_MAX_VERTICES:
        raise BudgetExceededError(
            f"{g.n} vertices exceed the {_DECISION_MAX_VERTICES} of the decision path"
        )
    return _BudgetClock(budget)


def treewidth_at_most(g: Graph, w: int, budget: SolveBudget | None = None) -> bool:
    """Whether the treewidth is at most ``w``, by the decision form of the
    subset DP (Bodlaender, Fomin, Koster, Kratsch and Thilikos).

    A fill set stays inside one component C of the graph, and a vertex of
    C eliminated after j others of C reaches at most |C| - j - 1 vertices.
    So tw <= w iff in each C some set of |C| - w - 1 vertices can be
    eliminated first with every fill degree at most w: iff level
    |C| - w - 1 of :func:`_width_levels` is not empty.  Its budget is
    :func:`treewidth_by_decision`'s: the same vertex caps, and the same
    |C| nodes for each set a family expands."""
    clock = _decision_clock(g, budget)
    adj = g.adjacency
    return all(
        _width_levels(adj, part, w, clock)[-1] for part, _ in components(adj, (1 << g.n) - 1)
    )


def _search(adj: list[int], x: int, w: int, memos: dict, stop: int, clock) -> bool | None:
    """Whether TW(x) <= w, by a memoized search from x down; None once
    ``clock`` has passed ``stop`` nodes.

    A disconnected set is within w iff each of its components is.  A
    connected C needs |N(C) - C| <= w, as the last vertex of C to go
    reaches all of N(C) - C, and then holds at once if |N(C) - C| + |C| - 1
    <= w, as no vertex of C can reach more; else it needs some v, tried
    lowest first, whose components of C - v are all within w.  Each of
    those touches v, so where |N(C) - C| = w, one that touches all of
    N(C) - C refutes v before C - v is split (:func:`_refuters`).
    ``memos[w]`` keeps each connected set's answer at width w for later
    queries.  Each pass, the split of x, a refutation and the split of
    C - v, ticks the vertices it goes over, and a width at which the memo
    and the open sets would pass TREEWIDTH_LEVEL_BUDGET is refused.  The
    open sets are frames of an explicit stack, not Python recursion, so a
    chain of thousands of sets is taken."""
    memo = memos.setdefault(w, {})
    known = memo.get(x)
    if known is not None:
        return known
    tick = clock.tick
    tick(x.bit_count())
    # a frame: the set c, its untried candidates, the attachments that
    # refute and the sole attachments (see _refuters), N(c) - c, and the
    # components of c - v, each with its neighbourhood, still to be
    # decided for the candidate v in hand (None before the first); the
    # bottom frame, c = 0, holds x's components and no candidate
    stack = [[0, 0, 0, 0, 0, components(adj, x)]]
    while True:
        frame = stack[-1]
        c, untried, attached, sole, out, pending = frame
        if pending:
            k, reach = pending[-1]
            known = memo.get(k)
            if known:
                pending.pop()
                continue
            if known is None:
                if len(memo) + len(stack) > TREEWIDTH_LEVEL_BUDGET:
                    raise BudgetExceededError(
                        f"the width-{w} search holds more than {TREEWIDTH_LEVEL_BUDGET} sets"
                    )
                out = reach & ~k
                d = out.bit_count()
                if d > w:
                    memo[k] = False
                elif d + k.bit_count() <= w + 1:
                    memo[k] = True
                else:
                    stack.append([k, k, *_refuters(adj, k, out, w), out, None])
                continue
            # a component of c - v is not within w
        elif pending is not None:
            # every component of c - v is within w
            if not c:
                return True
            memo[c] = True
            stack.pop()
            continue
        if clock.nodes > stop:
            return None
        # the next candidate not refuted at once
        while untried:
            bit = untried & -untried
            untried ^= bit
            rest = c ^ bit
            start = attached & rest
            if bit & sole or not (start and _touches(adj, start & -start, rest, out, tick)):
                frame[1] = untried
                tick(rest.bit_count())
                frame[5] = components(adj, rest)
                break
        else:
            if not c:
                return False
            memo[c] = False
            stack.pop()


def _refuters(adj: list[int], c: int, out: int, w: int) -> tuple[int, int]:
    """For a connected c with N(c) - c = ``out``: the attachments in c of
    out's lowest vertex if |out| = w, else none, and the vertices of c
    that are some vertex of out's only attachment.  Removing such a vertex
    leaves no component touching all of out, so it is not refuted."""
    if not out or out.bit_count() != w:
        return 0, 0
    sole = 0
    for o in iter_bits(out):
        a = adj[o] & c
        if a & (a - 1) == 0:
            sole |= a
    return adj[(out & -out).bit_length() - 1] & c, sole


def _touches(adj: list[int], start: int, within: int, target: int, tick) -> bool:
    """Whether the component of the one-bit mask ``start`` in the graph
    induced on ``within`` has all of ``target`` among its neighbours.

    The breadth-first search of ``graph.component``, stopped as soon as
    the answer is yes: a refutation then costs the few vertices between
    an attachment and the rest of the target, not a whole component.  It
    ticks the vertices it reached."""
    grown = frontier = start
    rest = within & ~start
    while frontier:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= adj[bit.bit_length() - 1]
        target &= ~nxt
        if not target:
            break
        frontier = nxt & rest
        rest ^= frontier
        grown |= frontier
    tick(grown.bit_count())
    return not target


def treewidth_by_decision(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with an optimal decomposition, equal to
    :func:`treewidth_exact`'s, ``.td`` bytes included, from decisions
    TW(X) <= w instead of a table over all 2^n subsets.

    The level families of :func:`_width_levels` decide: TW(X) is the
    largest TW(X & C) over the components C of the graph, and
    TW(X & C) <= w iff X & C lies in level |X & C| when that is at most
    |C| - w - 1, and else iff X & C holds a set of the top level
    |C| - w - 1: every later fill degree is at most w by itself.  The
    treewidth is the least w at which V is decided, searched down from
    :func:`min_degree_width`.

    The order is recovered as the subset DP recovers it, from S = V down:
    w is lowered to TW(S) while S is still decided at w - 1, then the
    lowest v with TW(S - v) <= w goes last.  As TW(S) is the largest TW
    of its components, that v is the lowest, over the components K of
    G[S], of the lowest v of K with TW(K - v) <= w, and each K's is kept
    until K is split or w falls.  (The subset DP's second test,
    |N(K) - S| <= w, always holds here: it is at most TW(K).)  A
    candidate v is refuted first as in :func:`_search`.  Below the
    treewidth the level families, which refute, answer.  At the
    treewidth, whose family holds most sets and is asked mostly "yes",
    :func:`_search` answers first, unless the width search has built that
    family already; a query gives up once the run has ticked twice its
    nodes before the query plus 2n^2, and that width's family answers
    from then on.

    The budget counts the vertices each pass goes over: |C| for each set
    a family of component C expands, and the vertices of each split and
    refutation of the search and of the recovery's candidates (not the
    recovery's n splits of S, at most n^2 vertices in all).
    """
    clock = _decision_clock(g, budget)
    n = g.n
    adj = g.adjacency
    parts = components(adj, (1 << n) - 1)
    families: dict[tuple[int, int], list[set[int]]] = {}
    memos: dict[int, dict[int, bool]] = {}

    def within(s: int, w: int) -> bool:
        """TW(s) <= w, from the level families."""
        for part, _ in parts:
            top = part.bit_count() - w - 1
            if top <= 0:
                continue
            if (part, w) not in families:
                families[part, w] = _width_levels(adj, part, w, clock)
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
    upper = width = min_degree_width(g)
    while width and within(s, width - 1):
        width -= 1
    # the search answers at the treewidth until it gives up
    searching = width == upper

    def lowest(k: int, reach: int, w: int) -> int:
        """The lowest v of ``k``, a component of G[S] with N(k) = ``reach``,
        with TW(k - v) <= w."""
        nonlocal searching
        out = reach & ~k
        attached, sole = _refuters(adj, k, out, w)
        for v in iter_bits(k):
            x = k ^ (1 << v)
            start = attached & x
            if start and not sole >> v & 1 and _touches(adj, start & -start, x, out, clock.tick):
                continue
            if searching and w == width:
                # a query may at most double the run's nodes, plus 2n^2
                # (2n sets of n vertices): with the run's nodes counted
                # once, a seeded sweep at n = 14-18 took 1.2-1.7 times as
                # long, and n^2 or 4n^2 in place of 2n^2 moved neither it,
                # the benchmark's graphs nor dense G(n, 1/2) at n = 22-26
                # past noise (best of 3, in process)
                found = _search(adj, x, w, memos, 2 * clock.nodes + 2 * n * n, clock)
                if found is None:
                    # past the give-up point: the family answers from now on
                    searching = False
                    found = within(x, width)
            else:
                found = within(x, w)
            if found:
                return v
        raise AssertionError("no vertex of a component goes last within its width")

    order = [0] * n
    w = width
    # each component K of G[S], with the lowest v of K that goes last
    low = {k: lowest(k, reach, w) for k, reach in parts}
    for pos in range(n - 1, -1, -1):
        if w and within(s, w - 1):
            while w and within(s, w - 1):
                w -= 1
            low = {k: lowest(k, reach, w) for k, reach in components(adj, s)}
        k = min(low, key=low.__getitem__)
        v = low.pop(k)
        order[pos] = v
        s ^= 1 << v
        for piece, reach in components(adj, k ^ (1 << v)):
            low[piece] = lowest(piece, reach, w)
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


def _balanced(adj: list[int], ymask: int, ycount: int) -> bool:
    """Whether every component of the graph induced on ``ymask`` (which has
    ``ycount`` vertices) has at most ycount / 2 vertices.

    Stops growing a component once it passes the half, and stops looking
    once the unexplored rest is no larger than the half."""
    half = ycount // 2
    rest = ymask
    # inline, not graph.component: the early exit inside a component's growth
    # keeps the benchmark's 13 separator graphs (seed 1) at 24 ms, against
    # 61 ms with graph.components (2 vCPU, in process)
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

    Exhaustive over subsets by increasing size, apart from the subsets
    that degrees rule out; the first hit in lexicographic order is
    returned.  A vertex v outside P keeps at least deg(v) - |P| neighbours
    in Y = V - P, so its component passes |Y| / 2 once deg(v) - |P| >=
    floor(|Y| / 2): every balanced P of size s contains the forced set F_s
    of those v, a size with |F_s| > s is skipped, and only the sets F_s +
    R, R from the other vertices, are tried.  Among sets that contain
    F_s, the first difference of two sorted tuples is the least vertex of
    their symmetric difference, which lies outside F_s, so R's order is
    the sets' order and the first hit is the one of the whole search.
    Each candidate tried costs one budget node and one early-exit balance
    test (`_balanced`); the components of G - P are listed only for the
    returned witness."""
    budget = _check_vertex_cap(g, budget, SEPARATOR_VERTEX_CAP)
    clock = _BudgetClock(budget)
    full = (1 << g.n) - 1
    adj = g.adjacency
    degrees = g.degrees()
    for size in range(g.n + 1):
        half = (g.n - size) // 2
        forced = sum(1 << v for v, d in enumerate(degrees) if d - size >= half)
        if forced.bit_count() > size:
            continue
        # the bits 1 << v come in ascending v, so the combinations of the
        # bits come in the same lexicographic order as those of the vertices
        bits = [1 << v for v in iter_bits(full ^ forced)]
        for r in combinations(bits, size - forced.bit_count()):
            clock.tick()
            pmask = forced | sum(r)
            ymask = full ^ pmask
            if _balanced(adj, ymask, g.n - size):
                sizes = [c.bit_count() for c, _ in components(adj, ymask)]
                return SeparatorSearchResult(
                    size=size,
                    witness=tuple(iter_bits(pmask)),
                    component_sizes=tuple(sorted(sizes, reverse=True)),
                )
    raise AssertionError("unreachable: P = V is always balanced")
