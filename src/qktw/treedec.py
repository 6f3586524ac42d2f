"""Tree decompositions: model, validation, star construction, PACE I/O.

A decomposition is a tree of bags.  Validity means: the tree is a tree,
every graph edge lies inside some bag, and the bags containing any fixed
vertex form a nonempty connected subtree.  Width is max bag size minus
one.  Validation works on masks: bags as vertex masks for edge coverage,
and tree nodes as node masks that ``graph.component`` searches for the
connectivity of the tree and of each vertex's bags.

File formats are the PACE 2017 conventions: ``.gr`` graphs ("p tw <n> <m>"
then one "u v" line per edge, 1-indexed) and ``.td`` decompositions
("s td <#bags> <max-bag-size> <n>", bag lines "b <id> <v...>", then tree
edges).  Writers are bit-exact: LF line endings, single spaces, bags and
edges in sorted order.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass
from functools import reduce
from itertools import compress, groupby, islice, repeat
from operator import lshift, or_
from typing import Iterable, Iterator

from .errors import (
    DegenerateInputError,
    EmptyTreeError,
    NotIndependentError,
    PaceParseError,
    SizeLimitError,
)
from .graph import GRAPH_MAX_VERTICES, Graph, component, components, iter_bits


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by tree node (0-based), plus the tree edges.

    Bags are normalized to sorted vertex tuples and edges to sorted
    (min, max) pairs, so structurally equal decompositions compare equal.
    """

    bags: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm_bags = tuple(tuple(sorted(set(b))) for b in self.bags)
        norm_edges = tuple(sorted((min(x, y), max(x, y)) for x, y in self.tree_edges))
        object.__setattr__(self, "bags", norm_bags)
        object.__setattr__(self, "tree_edges", norm_edges)

    @property
    def node_count(self) -> int:
        return len(self.bags)

    def width(self) -> int:
        if not self.bags:
            raise EmptyTreeError("decomposition has no nodes")
        return max(len(b) for b in self.bags) - 1


# -- validation ---------------------------------------------------------------


@dataclass
class TdValidationReport:
    node_count: int
    width: int | None
    is_tree: bool
    tree_problems: tuple[str, ...]
    foreign_vertices: tuple[tuple[int, int], ...]   # (node, vertex) outside V(G)
    uncovered_edges: tuple[tuple[int, int], ...]    # graph edges in no bag
    missing_vertices: tuple[int, ...]               # in no bag at all
    broken_vertices: tuple[int, ...]                # occurrence set not connected

    @property
    def passed(self) -> bool:
        return (
            self.is_tree
            and not self.foreign_vertices
            and not self.uncovered_edges
            and not self.missing_vertices
            and not self.broken_vertices
        )


def validate_td(g: Graph, td: TreeDecomposition) -> TdValidationReport:
    """Check tree-ness, edge coverage, and per-vertex connectivity.

    Edge coverage works on masks: cover[v] is the OR of the vertex masks
    of the bags holding v, and the uncovered edges at u are the
    neighbours of u outside cover[u].  That is Σ|bag| ORs plus one AND
    per vertex instead of one test per edge; edges are reported as
    (u, v), u < v, in ascending order, as ``g.edges()`` lists them.
    Bag entries outside V(G) are reported as foreign and cover nothing.

    The tree checks work on node masks: tree[x] is the OR of the
    in-range tree edges at node x.  The tree is connected iff the
    ``graph.component`` of node 0 is every node, and v's bags form a
    connected subtree iff the component of its lowest node inside its
    occurrence mask is the whole mask.  Node x's mask is as wide as its
    highest neighbour, so the masks take up to nb^2 / 8 bytes; like the
    graph's vertices, the nodes are limited to GRAPH_MAX_VERTICES, and
    SizeLimitError is raised past it.

    Violations are report content, never exceptions.
    """
    nb = td.node_count
    if nb > GRAPH_MAX_VERTICES:
        raise SizeLimitError(
            f"decomposition has {nb} nodes; at most {GRAPH_MAX_VERTICES} can be validated"
        )
    tree_problems: list[str] = []
    if nb == 0:
        return TdValidationReport(
            node_count=0, width=None, is_tree=False,
            tree_problems=("decomposition has no nodes",),
            foreign_vertices=(), uncovered_edges=(),
            missing_vertices=tuple(range(g.n)), broken_vertices=(),
        )
    tree = [0] * nb  # tree[x]: the nodes joined to x by an in-range edge
    for x, y in td.tree_edges:
        if x == y:
            tree_problems.append(f"self-loop at node {x}")
        if 0 <= x < nb and 0 <= y < nb:
            tree[x] |= 1 << y
            tree[y] |= 1 << x
        else:
            tree_problems.append(f"edge ({x}, {y}) references a missing node")
    if len(td.tree_edges) != nb - 1:
        tree_problems.append(
            f"{len(td.tree_edges)} edges on {nb} nodes (a tree needs {nb - 1})"
        )
    all_nodes = (1 << nb) - 1
    if component(tree, 1, all_nodes)[0] != all_nodes:
        tree_problems.append("tree is disconnected")
    is_tree = not tree_problems

    foreign = []
    occurrence = [0] * g.n
    cover = [0] * g.n  # cover[v]: the vertices sharing a bag with v
    for node, bag in enumerate(td.bags):
        inside = []
        bag_mask = 0
        for v in bag:
            if 0 <= v < g.n:
                occurrence[v] |= 1 << node
                inside.append(v)
                bag_mask |= 1 << v
            else:
                foreign.append((node, v))
        for v in inside:
            cover[v] |= bag_mask

    uncovered = [
        (u, u + 1 + off)
        for u, m in enumerate(g.adjacency)
        for off in iter_bits((m & ~cover[u]) >> (u + 1))
    ]

    missing = []
    broken = []
    for v in range(g.n):
        occ = occurrence[v]
        if not occ:
            missing.append(v)
        elif is_tree and component(tree, occ & -occ, occ)[0] != occ:
            broken.append(v)

    return TdValidationReport(
        node_count=nb,
        width=td.width(),
        is_tree=is_tree,
        tree_problems=tuple(tree_problems),
        foreign_vertices=tuple(foreign),
        uncovered_edges=tuple(uncovered),
        missing_vertices=tuple(missing),
        broken_vertices=tuple(broken),
    )


# -- constructions -------------------------------------------------------------


def star_decomposition(g: Graph, independent: Iterable[int]) -> TreeDecomposition:
    """Star of bags realizing width max(|V| - |A| - 1, max deg over A).

    Center bag V \\ A at node 0; one leaf bag {a} ∪ N(a) per element of the
    independent set A, in ascending vertex order.  With A a maximum
    independent set (and degrees below |V| - alpha - 1, as holds for the
    Kneser graphs here) the width is exactly |V| - alpha - 1.
    """
    a = sorted(set(independent))
    if not a or len(a) >= g.n:
        raise DegenerateInputError(
            "independent set must be nonempty and a proper subset of the vertices"
        )
    if a[0] < 0 or a[-1] >= g.n:
        raise ValueError("independent set references vertices outside the graph")
    amask = 0
    for v in a:
        amask |= 1 << v
    for v in a:
        if g.adjacency_mask(v) & amask:
            raise NotIndependentError(f"vertex {v} has a neighbor inside the set")
    center = tuple(v for v in range(g.n) if not (amask >> v) & 1)
    bags = [center] + [tuple(sorted({v, *g.neighbors(v)})) for v in a]
    edges = tuple((0, i) for i in range(1, len(bags)))
    return TreeDecomposition(tuple(bags), edges)


# -- balanced separators ---------------------------------------------------------


@dataclass
class SeparatorReport:
    separator_size: int
    remainder_size: int
    component_sizes: tuple[int, ...]
    balanced: bool


def balanced_separator_check(g: Graph, p_set: Iterable[int]) -> SeparatorReport:
    """Components of G - P and whether each has at most half of |V - P|."""
    p = sorted(set(p_set))
    if p and (p[0] < 0 or p[-1] >= g.n):
        raise ValueError("separator references vertices outside the graph")
    pmask = 0
    for v in p:
        pmask |= 1 << v
    ymask = ((1 << g.n) - 1) & ~pmask
    ycount = g.n - len(p)
    sizes = sorted((c.bit_count() for c, _ in components(g.adjacency, ymask)), reverse=True)
    balanced = all(2 * s <= ycount for s in sizes)
    return SeparatorReport(
        separator_size=len(p),
        remainder_size=ycount,
        component_sizes=tuple(sizes),
        balanced=balanced,
    )


# -- PACE 2017 file formats -------------------------------------------------------


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# bin(mask) digits to the bytes 0 and 1, for itertools.compress
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def pace_write_gr(g: Graph, path) -> None:
    """Write ``g`` as a PACE .gr file: problem line, then edges.

    Edges come as "u v" lines, 1-indexed, u < v, in ascending order.  The
    file is streamed one chunk per vertex u: the names of the neighbours
    above u are picked from the bits of ``adj[u] >> (u + 1)`` by
    ``compress`` over the reversed binary digits, so no Python loop runs
    per edge.  The bytes equal those of one line per ``g.edges()`` pair.
    """
    names = [str(i + 1) for i in range(g.n)]
    with open(path, "w", newline="\n") as fh:
        fh.write(f"p tw {g.n} {g.edge_count}\n")
        for u, m in enumerate(g.adjacency):
            rest = m >> (u + 1)
            if rest:
                pre = names[u] + " "
                picked = compress(
                    names[u + 1:], bin(rest)[:1:-1].encode().translate(_BIT_BYTES)
                )
                fh.write(pre + ("\n" + pre).join(picked) + "\n")


def write_labels(g: Graph, path) -> None:
    """Write ``g``'s vertex labels as a ``.labels`` file, "<id> <label>"
    lines with the 1-indexed ids of the ``.gr`` file.

    A label with a ``text()`` method (a Kneser vertex's ``Subspace``) is
    written as its text, any other (a quadric point's coordinates) as its
    comma-joined entries.
    """
    texts = (
        lab.text() if hasattr(lab, "text") else ",".join(str(x) for x in lab)
        for lab in g.labels
    )
    _write_text(path, "".join(f"{i} {text}\n" for i, text in enumerate(texts, start=1)))


def _nat(token: str) -> int:
    """Value of an ASCII ``[0-9]+`` token; ValueError for anything else.

    ``int()`` alone would also take signs, underscores, surrounding
    whitespace and non-ASCII digits.
    """
    if token.isascii() and token.isdigit():
        return int(token)
    raise ValueError(f"not a decimal number: {token!r}")


class _GrLines:
    """The line-by-line .gr parser: the problem line, its counts, the masks."""

    def __init__(self):
        self.n = self.m = None
        self.header_line = 0
        self.adj: list[int] = []

    def feed(self, text: str, lineno: int) -> None:
        """Parse the lines of ``text``, the first of which is line ``lineno``."""
        n, adj = self.n, self.adj
        for lineno, raw in enumerate(text.split("\n"), start=lineno):
            parts = raw.split()
            if not parts or parts[0].startswith("c"):
                continue
            if parts[0] == "p":
                if n is not None:
                    raise PaceParseError("duplicate problem line", lineno)
                if len(parts) != 4 or parts[1] != "tw":
                    raise PaceParseError("problem line must read 'p tw <n> <m>'", lineno)
                try:
                    n, m = _nat(parts[2]), _nat(parts[3])
                except ValueError:
                    raise PaceParseError("non-integer counts in problem line", lineno)
                if not 1 <= n <= GRAPH_MAX_VERTICES:
                    raise PaceParseError(
                        f"vertex count must be in 1..{GRAPH_MAX_VERTICES}", lineno
                    )
                adj = [0] * n
                self.n, self.m, self.header_line, self.adj = n, m, lineno, adj
                continue
            if n is None:
                raise PaceParseError("edge data before the problem line", lineno)
            if len(parts) != 2:
                raise PaceParseError("edge lines must have exactly two endpoints", lineno)
            a, b = parts
            try:  # _nat inlined: this loop runs once per edge
                if not (a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
                    raise ValueError
                u, v = int(a) - 1, int(b) - 1
            except ValueError:
                raise PaceParseError("non-integer vertex id", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise PaceParseError(f"vertex out of range 1..{n}", lineno)
            if u == v:
                raise PaceParseError("loops are not allowed", lineno)
            adj[u] |= 1 << v
            adj[v] |= 1 << u


# Bytes per read of a PACE file, and so about the characters per block of
# lines that the .gr reader tries on the bulk path.  Reads took about the
# same time with blocks of 4 to 64 KiB, but a block's names take about 15
# bytes per character: the traced peak of reading the 1.9 MB quadric
# q = 5 file is 364 KiB with 8 KiB blocks and 895 KiB with 32 KiB.
_GR_CHUNK = 1 << 13


def _text_blocks(path) -> Iterator[str]:
    """The UTF-8 text of ``path`` in line-aligned blocks.

    The file is read ``_GR_CHUNK`` bytes at a time through an incremental
    decoder, so no copy of the whole file is held.  Every block but the
    last ends with a newline, and together they are the file's text.  An
    undecodable byte raises PaceParseError at its line: the decoder holds
    back only the lead bytes of an unfinished character, never a newline,
    so the newlines read before, plus those in the failing input up to the
    byte, count the lines above it.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    newlines = 0
    pending: list[str] = []  # the text read since the last newline
    with open(path, "rb") as fh:
        while True:
            data = fh.read(_GR_CHUNK)
            try:
                text = decode(data, not data)
            except UnicodeDecodeError as exc:
                line = newlines + exc.object.count(b"\n", 0, exc.start) + 1
                raise PaceParseError(f"not UTF-8 text ({exc.reason})", line) from None
            if not data:
                break
            newlines += data.count(b"\n")
            end = text.rfind("\n") + 1
            if end:
                pending.append(text[:end])
                yield "".join(pending)
                pending = [text[end:]]
            else:
                pending.append(text)
    if rest := "".join(pending):
        yield rest


def _decoded_before_errors(parse, source: Iterator):
    """``parse(source)``, but an undecodable byte outranks a parse error.

    When ``parse`` fails, the rest of the source is still decoded, block
    by block, so a file with a bad byte anywhere reports that byte's line.
    """
    try:
        return parse(source)
    except PaceParseError:
        for _ in source:
            pass
        raise


_NO_DIGITS = str.maketrans("", "", "0123456789")
# A run of k bulk lines "u v" with equal u is scattered into a row of n
# digits when k * _RUN_SCATTER >= n, and ORed bit by bit below that.
# Parsing the row costs about 2 ns per vertex, and a shifted bit about
# 40 ns more than a scattered one (n = 806 to 8,000).
_RUN_SCATTER = 16
# Bulk blocks set only the u side once the bulk lines read reach n times
# the larger of _SYMMETRIZE_AT and the number of transposition blocks;
# ``_symmetrize`` then adds the v side of every edge at once.  It reads at
# most one column per vertex and block, each about as dear as one v-side
# OR, so it never costs much more than the per-edge ORs already done.  A
# constant alone would not do: at n = 32,768 (four rows per block) a file
# of 32n edges read in 4.2 s with the transposition and 1.3 s without.
# On the graph-build files reads were fastest with constants of 1 to 8.
_SYMMETRIZE_AT = 8
# Digits per block of the transposition (one row when n is larger).
_T_BLOCK = 1 << 17


def _transpose_rows(n: int) -> int:
    """Rows per block of ``_symmetrize`` on n vertices."""
    return max(1, _T_BLOCK // n)


def _gr_bulk(chunk: str, lines: int, index: dict[str, int], adj: list[int], directed: bool) -> bool:
    """OR the edges of ``chunk`` into ``adj`` if it has the writer's shape.

    The shape is ``lines`` lines "u v\\n" of two names from ``index`` (the
    vertex names "1".."n", so no "0", no leading zero, no other digits),
    u != v.  Any other chunk returns False, and the caller hands it to the
    line parser; it is left untouched unless it has a loop "u u", which
    the line parser then reports.  A chunk must end in a newline: the
    digits of an unterminated last line vanish from the shape test and
    could stand in for a missing name.

    The u names are looked up once per run of equal u, and each run gets
    its mask in one step: a long run scatters its v ids into a row of "0"
    digits that one ``int(row, 2)`` reads, a short one ORs its ``1 << v``
    bits.  The v side, one OR per edge, is set only when ``directed`` is
    false; otherwise ``_symmetrize`` adds it later.
    """
    if not chunk.endswith("\n") or chunk.translate(_NO_DIGITS) != " \n" * lines:
        return False
    names = chunk.split()
    if len(names) != 2 * lines:  # an empty name
        return False
    try:
        vs = list(map(index.__getitem__, names[1::2]))
        runs = [(index[u], len(list(run))) for u, run in groupby(names[0::2])]
    except KeyError:
        return False
    n = len(adj)
    rest = iter(vs)
    for u, k in runs:
        if k * _RUN_SCATTER >= n:
            row = bytearray(b"0") * n
            any(map(row.__setitem__, islice(rest, k), repeat(ord("1"))))  # any() drains the map
            mask = int(row[::-1], 2)
        else:
            mask = reduce(or_, map(lshift, repeat(1), islice(rest, k)))
        if mask >> u & 1:
            return False
        adj[u] |= mask
    if not directed:
        rest = iter(vs)
        for u, k in runs:
            bit = 1 << u
            for v in islice(rest, k):
                adj[v] |= bit
    return True


def _symmetrize(adj: list[int]) -> None:
    """``adj |= adjᵀ`` in place: bit j joins mask i wherever bit i is in mask j.

    The rows go in blocks of at most ``_T_BLOCK`` digits.  A block's rows
    j0..j1-1 are written highest first, n binary digits each, into one
    buffer; the digits of column i then sit at stride n from offset
    n - 1 - i, lowest row last, so ``int(buf[n - 1 - i::n], 2) << j0`` is
    the column's part in this block.  Only the columns set in some row of
    the block are read.  A mask widened by an earlier block adds only bits
    whose mirror is already set, so the result is the same.
    """
    n = len(adj)
    rows = _transpose_rows(n)
    digits = f"0{n}b"
    buf = bytearray(rows * n)
    for j0 in range(0, n, rows):
        block = adj[j0:j0 + rows]
        size = len(block) * n
        for k, m in enumerate(reversed(block)):
            buf[k * n:(k + 1) * n] = format(m, digits).encode()
        cols = format(reduce(or_, block), digits)
        p = cols.find("1")
        while p >= 0:
            adj[n - 1 - p] |= int(buf[p:size:n], 2) << j0
            p = cols.find("1", p + 1)


def _parse_gr(blocks: Iterator[str]) -> Graph:
    """The graph of the .gr text in ``blocks``; see ``pace_read_gr``."""
    parser = _GrLines()
    index: dict[str, int] = {}
    lineno = 1
    bulk_lines, transpose = 0, False
    for block in blocks:
        pos = 0
        while parser.n is None and pos < len(block):
            end = block.find("\n", pos) + 1 or len(block)
            parser.feed(block[pos:end], lineno)
            pos, lineno = end, lineno + 1
        if pos == len(block):
            continue
        if not index:
            n = parser.n
            index = {str(i + 1): i for i in range(n)}
            switch = n * max(_SYMMETRIZE_AT, -(-n // _transpose_rows(n)))
        chunk = block[pos:]
        lines = chunk.count("\n")
        directed = bulk_lines >= switch
        if _gr_bulk(chunk, lines, index, parser.adj, directed):
            bulk_lines += lines
            transpose |= directed
        else:
            parser.feed(chunk, lineno)
        lineno += lines
    if parser.n is None:
        raise PaceParseError("missing problem line", 1)
    if transpose:
        _symmetrize(parser.adj)
    g = Graph.from_masks(parser.adj)
    if g.edge_count != parser.m:
        raise PaceParseError(
            f"problem line declares {parser.m} edges but {g.edge_count} distinct edges found",
            parser.header_line,
        )
    return g


def pace_read_gr(path) -> Graph:
    """Read a .gr file; every number must be an ASCII ``[0-9]+`` token.

    The problem line may declare at most GRAPH_MAX_VERTICES vertices, the
    budget of the bitmask adjacency.

    The file is decoded as a stream of line-aligned blocks of about 8 KiB
    (``_text_blocks``).  The lines up to the problem line are parsed one by
    one.  A later block made only of "u v" lines with canonical names 1..n,
    u != v, as ``pace_write_gr`` writes them, is converted in bulk
    (``_gr_bulk``): one ``split``, one dict lookup per v and per run of
    equal u, one mask per run.  Any other block (comments, blank lines, CR or tab,
    leading zeros, a last line without a newline, every error) goes
    through the line parser, so every error has the message and line
    number of a line-by-line read, and an undecodable byte anywhere in the
    file is reported before it.

    The v side of each bulk edge is one OR per edge until the bulk lines
    read reach n times the larger of ``_SYMMETRIZE_AT`` and the number of
    transposition blocks; later blocks set the u side only, and one
    blocked transposition (``_symmetrize``) completes the masks.  The
    count is of lines read, not the declared m, so a header cannot start
    the n² pass on a sparse file.
    """
    return _decoded_before_errors(_parse_gr, _text_blocks(path))


def pace_write_td(td: TreeDecomposition, n_vertices: int, path) -> None:
    max_bag = max((len(b) for b in td.bags), default=0)
    lines = [f"s td {td.node_count} {max_bag} {n_vertices}"]
    for i, bag in enumerate(td.bags, start=1):
        lines.append(" ".join(["b", str(i), *[str(v + 1) for v in bag]]))
    lines.extend(f"{x + 1} {y + 1}" for x, y in td.tree_edges)
    _write_text(path, "\n".join(lines) + "\n")


def pace_read_td(path) -> tuple[TreeDecomposition, int]:
    """Read a .td file; returns (decomposition, declared vertex count).

    Every number must be an ASCII ``[0-9]+`` token, and the solution line
    may declare at most GRAPH_MAX_VERTICES bags, the node budget of
    ``validate_td``; a larger count is refused before any bag is read.
    The file is decoded as a stream of line-aligned blocks
    (``_text_blocks``) and parsed line by line; an undecodable byte
    anywhere in it is reported before any parse error.
    """
    return _decoded_before_errors(_parse_td, _text_lines(path))


def _text_lines(path) -> Iterator[str]:
    """The lines of ``path``'s text, split at "\\n" only, as they are decoded."""
    for block in _text_blocks(path):
        yield from block.removesuffix("\n").split("\n")


def _parse_td(lines: Iterator[str]) -> tuple[TreeDecomposition, int]:
    """The decomposition and vertex count of the .td text in ``lines``."""
    header = None
    header_line = 0
    bags: dict[int, tuple[int, ...]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "s":
            if header is not None:
                raise PaceParseError("duplicate solution line", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise PaceParseError(
                    "solution line must read 's td <#bags> <max-bag-size> <n>'", lineno
                )
            try:
                header = (_nat(parts[2]), _nat(parts[3]), _nat(parts[4]))
            except ValueError:
                raise PaceParseError("non-integer counts in solution line", lineno)
            if header[0] > GRAPH_MAX_VERTICES:
                raise PaceParseError(f"bag count must be in 0..{GRAPH_MAX_VERTICES}", lineno)
            header_line = lineno
            continue
        if header is None:
            raise PaceParseError("data before the solution line", lineno)
        nb, max_bag, n = header
        if parts[0] == "b":
            if len(parts) < 2:
                raise PaceParseError("bag line needs an id", lineno)
            try:
                bag_id = _nat(parts[1])
                verts = [_nat(x) for x in parts[2:]]
            except ValueError:
                raise PaceParseError("non-integer value in bag line", lineno)
            if not 1 <= bag_id <= nb:
                raise PaceParseError(f"bag id out of range 1..{nb}", lineno)
            if bag_id in bags:
                raise PaceParseError(f"duplicate bag id {bag_id}", lineno)
            for v in verts:
                if not 1 <= v <= n:
                    raise PaceParseError(f"bag vertex out of range 1..{n}", lineno)
            bags[bag_id] = tuple(v - 1 for v in verts)
            continue
        if len(parts) != 2:
            raise PaceParseError("tree edge lines must have exactly two bag ids", lineno)
        try:
            x, y = _nat(parts[0]), _nat(parts[1])
        except ValueError:
            raise PaceParseError("non-integer bag id in tree edge", lineno)
        if not (1 <= x <= nb and 1 <= y <= nb):
            raise PaceParseError(f"tree edge bag id out of range 1..{nb}", lineno)
        edges.append((x - 1, y - 1))
    if header is None:
        raise PaceParseError("missing solution line", 1)
    nb, max_bag, n = header
    if len(bags) != nb:
        raise PaceParseError(
            f"solution line declares {nb} bags but {len(bags)} were defined", header_line
        )
    ordered = tuple(bags[i] for i in range(1, nb + 1))
    actual_max = max((len(b) for b in ordered), default=0)
    if actual_max != max_bag:
        raise PaceParseError(
            f"declared max bag size {max_bag} but the largest bag has {actual_max}",
            header_line,
        )
    return TreeDecomposition(ordered, tuple(edges)), n
