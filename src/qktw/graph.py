"""Dense undirected graphs on integer vertices 0..n-1.

Adjacency is one Python int bitmask per vertex, which keeps the quadratic
pair censuses, component searches, and the exact solvers fast without any
dependencies.  Graphs are built once and then treated as immutable.
``component`` grows one connected component; ``components`` and the tree
checks of ``treedec.validate_td`` are built on it.  ``certify_maps`` is
the one symmetry certificate, on ``permute_mask`` and ``orbit``: a vertex
permutation is a collineation when it maps the lines onto lines, and a
set of them is transitive when the orbit of one vertex is every vertex.
The pair-count census and the quadric both rest on it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

# Budget for graphs built from subspaces or read from files: n masks of
# up to n bits each, n^2 / 8 bytes, 128 MiB at 2^15 vertices.
GRAPH_MAX_VERTICES = 2**15


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component(adj: Sequence[int], start: int, within: int) -> tuple[int, int]:
    """Component of ``start`` in the graph induced on ``within``, as a mask,
    with its neighbourhood N(component), the OR of its vertices' adjacency.

    ``start`` is a one-bit mask inside ``within``.  The one component
    search of the package, apart from two inline loops that stop early:
    ``exact._balanced``, which stops growing once a component passes half,
    and ``exact._touches``, which stops once a component touches a given
    set.  The search ORs every reached vertex's adjacency anyway, so the
    neighbourhood costs one OR a layer; callers that need only the mask
    drop it.
    """
    comp = frontier = start
    reach = 0
    rest = within & ~start
    while frontier:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= adj[bit.bit_length() - 1]
        reach |= nxt
        frontier = nxt & rest
        rest ^= frontier
        comp |= frontier
    return comp, reach


def components(adj: Sequence[int], subset_mask: int) -> list[tuple[int, int]]:
    """Connected components of the graph induced on ``subset_mask``, as
    masks, lowest vertex first, each with its neighbourhood (see
    ``component``)."""
    out = []
    rest = subset_mask
    while rest:
        found = component(adj, rest & -rest, rest)
        out.append(found)
        rest ^= found[0]
    return out


def mask_mismatches(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, on which two adjacency-mask lists disagree, sorted."""
    if len(a) != len(b):
        raise ValueError("mask lists must have equal length")
    return [
        (i, i + 1 + off)
        for i, (x, y) in enumerate(zip(a, b))
        for off in iter_bits((x ^ y) >> (i + 1))
    ]


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """Image of a vertex mask under the vertex permutation ``perm``: bit v
    goes to bit perm[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def orbit(start: int, perms: Sequence[Sequence[int]]) -> int:
    """Orbit of vertex ``start`` under the group the permutations generate,
    as a mask: breadth-first search along every permutation."""
    seen = 1 << start
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for perm in perms:
                w = perm[v]
                if not (seen >> w) & 1:
                    seen |= 1 << w
                    nxt.append(w)
        frontier = nxt
    return seen


def certify_maps(perms: Sequence[Sequence[int]], count: int, lines=()) -> None:
    """Raise ArithmeticError unless every map is a permutation of the
    ``count`` vertices that carries every line onto a line, and the maps
    together carry vertex 0 to every vertex.

    ``lines`` are vertex masks, each mapped by :func:`permute_mask`; a
    permutation maps the finite set of lines into itself injectively, so
    onto itself.  The orbit comes from :func:`orbit`.  No verdict is
    transferred along a map that fails.
    """
    for g, perm in enumerate(perms):
        if sorted(perm) != list(range(count)):
            raise ArithmeticError(f"map {g} is not a permutation of the {count} vertices")
    line_set = frozenset(lines)
    for g, perm in enumerate(perms):
        if any(permute_mask(line, perm) not in line_set for line in line_set):
            raise ArithmeticError(f"map {g} does not map the lines onto themselves")
    if orbit(0, perms) != (1 << count) - 1:
        raise ArithmeticError("the maps do not carry vertex 0 to every vertex")


def certify_collineations(perms, count: int, lines, blocks: Sequence[int]) -> list[list[int]]:
    """The maps that permutations of ``count`` points, certified by
    :func:`certify_maps` to map every line onto a line, induce on
    ``blocks``, point masks: block b goes to the block whose mask is the
    image of b's, else to -1, which :func:`certify_maps` refuses as no
    permutation.  The induced maps must carry block 0 to every block."""
    certify_maps(perms, count, lines)
    index = {mask: b for b, mask in enumerate(blocks)}
    induced = [[index.get(permute_mask(mask, perm), -1) for mask in blocks] for perm in perms]
    certify_maps(induced, len(blocks))
    return induced


class Graph:
    """Vertex-labeled undirected graph without loops."""

    __slots__ = ("n", "_adj", "labels")

    def __init__(self, n: int, labels: Sequence | None = None):
        if n <= 0:
            raise ValueError("graph must have at least one vertex")
        if labels is not None and len(labels) != n:
            raise ValueError("labels must match the vertex count")
        self.n = n
        self._adj = [0] * n
        self.labels = list(labels) if labels is not None else None

    @classmethod
    def from_masks(cls, masks: Sequence[int], labels=None) -> "Graph":
        """Graph whose vertex v has neighbour mask ``masks[v]``.

        The masks must be symmetric (bit u of v iff bit v of u); loops and
        bits past the last vertex are rejected.
        """
        g = cls(len(masks), labels)
        for v, m in enumerate(masks):
            if (m >> v) & 1 or m >> g.n:
                raise ValueError(f"mask of vertex {v} has a loop or an out-of-range bit")
        g._adj = list(masks)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("loops are not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u}, {v})")
        self._adj[u] |= 1 << v
        self._adj[v] |= 1 << u

    def adjacency_mask(self, v: int) -> int:
        return self._adj[v]

    @property
    def adjacency(self) -> list[int]:
        return self._adj

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self._adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            for off in iter_bits(rest):
                yield (u, u + 1 + off)

    @property
    def edge_count(self) -> int:
        return sum(self._adj[u].bit_count() for u in range(self.n)) // 2

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in range(self.n)]

    def complement(self) -> "Graph":
        g = Graph(self.n, self.labels)
        full = (1 << self.n) - 1
        for v in range(self.n):
            g._adj[v] = full & ~self._adj[v] & ~(1 << v)
        return g

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and other.n == self.n and other._adj == self._adj
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- small named graphs, used by tests and the solver suites ---------------


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)
