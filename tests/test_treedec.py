import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qktw import treedec
from qktw.errors import BudgetExceededError, PaceParseError
from qktw.exact import _decomposition_from_order
from qktw.graph import (
    GRAPH_MAX_VERTICES,
    Graph,
    complete_graph,
    path_graph,
    petersen_graph,
)
from qktw.kneser import KneserParams, build_kneser_graph, star_independent_set
from qktw.quadric import build_quadric_graph
from qktw.treedec import (
    TdValidationReport,
    TreeDecomposition,
    _nat,
    balanced_separator_check,
    pace_read_gr,
    pace_read_td,
    pace_write_gr,
    pace_write_td,
    star_decomposition,
    validate_td,
)


def test_trivial_decomposition_is_valid():
    g = path_graph(4)
    td = TreeDecomposition(((0, 1, 2, 3),), ())
    rep = validate_td(g, td)
    assert rep.passed
    assert td.width() == 3


def test_path_decomposition_of_a_path():
    g = path_graph(3)
    td = TreeDecomposition(((0, 1), (1, 2)), ((0, 1),))
    rep = validate_td(g, td)
    assert rep.passed and td.width() == 1


def test_uncovered_edge_is_reported():
    g = path_graph(3)
    td = TreeDecomposition(((0, 1), (2,)), ((0, 1),))
    rep = validate_td(g, td)
    assert not rep.passed
    assert rep.uncovered_edges == ((1, 2),)


def test_broken_vertex_occurrence_is_reported():
    g = path_graph(3)
    td = TreeDecomposition(((0, 1), (1, 2), (0, 2)), ((0, 1), (1, 2)))
    rep = validate_td(g, td)
    assert 0 in rep.broken_vertices or 2 in rep.broken_vertices
    assert not rep.passed


def _coverage_reference(g, td):
    """(foreign, uncovered, missing) by the per-edge loop: an edge is
    covered when some bag holds both of its ends."""
    foreign = []
    occurrence = [0] * g.n
    for node, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < g.n:
                occurrence[v] |= 1 << node
            else:
                foreign.append((node, v))
    uncovered = tuple((u, v) for u, v in g.edges() if not occurrence[u] & occurrence[v])
    missing = tuple(v for v in range(g.n) if not occurrence[v])
    return tuple(foreign), uncovered, missing


def _assert_coverage_matches_the_reference(g, td):
    rep = validate_td(g, td)
    assert (rep.foreign_vertices, rep.uncovered_edges, rep.missing_vertices) == (
        _coverage_reference(g, td)
    )
    return rep


def _damaged(td, n, damage, rng):
    bags = [list(b) for b in td.bags]
    if "truncate" in damage:
        bags = [b[: rng.randint(0, len(b))] for b in bags]
    if "foreign" in damage:
        for v in (-1, n, n + 5, 10**6):
            rng.choice(bags).append(v)
    if "duplicate" in damage:
        bags = [b + b[:2] for b in bags]
        rng.choice(bags).extend(rng.sample(range(n), min(n, 3)))
    if "drop" in damage:
        gone = rng.randrange(n)
        bags = [[v for v in b if v != gone] for b in bags]
    return TreeDecomposition(tuple(tuple(b) for b in bags), td.tree_edges)


@given(
    n=st.integers(1, 40),
    density=st.floats(0, 1),
    seed=st.integers(0, 10_000),
    damage=st.sets(st.sampled_from(["truncate", "foreign", "duplicate", "drop"])),
)
def test_validate_td_coverage_matches_the_per_edge_loop(n, density, seed, damage):
    import random

    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    g = Graph.from_edges(n, edges)
    order = list(range(n))
    rng.shuffle(order)
    td = _decomposition_from_order(g, order)
    rep = _assert_coverage_matches_the_reference(g, _damaged(td, n, damage, rng))
    if not damage:
        assert rep.passed


@pytest.mark.parametrize("damage", [(), ("truncate",), ("foreign", "drop"), ("duplicate",)])
def test_validate_td_coverage_on_a_kneser_star(damage):
    import random

    p = KneserParams(2, 5, 2, 1)
    g = build_kneser_graph(p)
    index = {s: i for i, s in enumerate(g.labels)}
    td = star_decomposition(g, [index[s] for s in star_independent_set(p)])
    rep = _assert_coverage_matches_the_reference(g, _damaged(td, g.n, damage, random.Random(5)))
    assert rep.passed == (not damage) or damage == ("duplicate",)
    assert bool(rep.uncovered_edges) == ("truncate" in damage or "drop" in damage)


def _reached(adj, start, allowed):
    """Nodes reached from ``start`` through ``allowed`` nodes, by a stack."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _validate_reference(g, td):
    """validate_td's report from node adjacency lists: a search from node 0
    for the tree, one inside each vertex's set of bags for its subtree,
    and the per-edge coverage loop."""
    nb = td.node_count
    if nb == 0:
        return TdValidationReport(
            node_count=0, width=None, is_tree=False,
            tree_problems=("decomposition has no nodes",),
            foreign_vertices=(), uncovered_edges=(),
            missing_vertices=tuple(range(g.n)), broken_vertices=(),
        )
    problems = []
    adj = [[] for _ in range(nb)]
    for x, y in td.tree_edges:
        if x == y:
            problems.append(f"self-loop at node {x}")
        if 0 <= x < nb and 0 <= y < nb:
            adj[x].append(y)
            adj[y].append(x)
        else:
            problems.append(f"edge ({x}, {y}) references a missing node")
    if len(td.tree_edges) != nb - 1:
        problems.append(f"{len(td.tree_edges)} edges on {nb} nodes (a tree needs {nb - 1})")
    if len(_reached(adj, 0, range(nb))) != nb:
        problems.append("tree is disconnected")
    foreign, uncovered, missing = _coverage_reference(g, td)
    holders = [{x for x, bag in enumerate(td.bags) if v in bag} for v in range(g.n)]
    broken = () if problems else tuple(
        v for v, held in enumerate(holders) if held and _reached(adj, min(held), held) != held
    )
    return TdValidationReport(
        node_count=nb, width=td.width(), is_tree=not problems,
        tree_problems=tuple(problems), foreign_vertices=foreign,
        uncovered_edges=uncovered, missing_vertices=missing, broken_vertices=broken,
    )


_TREE_DAMAGE = [
    "self-loop", "missing-node", "duplicate-edge", "cycle", "forest", "empty-bag", "foreign",
]


def _malformed(rng, damage):
    """A random graph with a decomposition (from an elimination order, or
    random bags on a random tree) that has each kind of ``damage``."""
    n = rng.randint(1, 10)
    g = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    )
    if rng.random() < 0.5:
        order = list(range(n))
        rng.shuffle(order)
        td = _decomposition_from_order(g, order)
        bags, edges = [list(b) for b in td.bags], list(td.tree_edges)
    else:
        nb = rng.randint(1, 8)
        bags = [rng.sample(range(n), rng.randint(0, n)) for _ in range(nb)]
        edges = [(rng.randrange(i), i) for i in range(1, nb)]
    nb = len(bags)
    if "self-loop" in damage:
        x = rng.choice([rng.randrange(nb), nb, -1])
        edges.append((x, x))
    if "missing-node" in damage:
        edges.append((rng.randrange(nb), rng.choice([nb, nb + 3, -1])))
    if "duplicate-edge" in damage and edges:
        edges.append(rng.choice(edges))
    if "cycle" in damage and nb >= 3:
        edges.append(tuple(rng.sample(range(nb), 2)))
    if "forest" in damage and edges:
        edges.remove(rng.choice(edges))
    if "empty-bag" in damage:
        bags[rng.randrange(nb)] = []
    if "foreign" in damage:
        rng.choice(bags).append(rng.choice([-1, n, n + 7]))
    return g, TreeDecomposition(tuple(tuple(b) for b in bags), tuple(edges))


@pytest.mark.parametrize(
    "damage",
    [(), *((kind,) for kind in _TREE_DAMAGE), _TREE_DAMAGE],
    ids=["none", *_TREE_DAMAGE, "all"],
)
def test_validate_td_matches_the_list_based_checks(damage):
    rng = random.Random(" ".join(damage))
    for _ in range(250):
        g, td = _malformed(rng, damage)
        assert validate_td(g, td) == _validate_reference(g, td)
    empty = TreeDecomposition((), ())
    assert validate_td(g, empty) == _validate_reference(g, empty)


def test_non_tree_structures_are_reported():
    g = path_graph(3)
    cyclic = TreeDecomposition(
        ((0, 1), (1, 2), (0, 2)), ((0, 1), (1, 2), (0, 2))
    )
    assert not validate_td(g, cyclic).is_tree
    disconnected = TreeDecomposition(((0, 1), (1, 2), (2,)), ((0, 1),))
    assert not validate_td(g, disconnected).is_tree
    missing = TreeDecomposition(((0, 1),), ())
    assert validate_td(g, missing).missing_vertices == (2,)


def test_width_rules():
    assert TreeDecomposition(((0,), (1,)), ((0, 1),)).width() == 0
    with pytest.raises(ValueError, match="^decomposition has no nodes$"):
        TreeDecomposition((), ()).width()


def test_star_decomposition_on_a_path():
    g = path_graph(3)
    td = star_decomposition(g, [0, 2])
    assert td.bags == ((1,), (0, 1), (1, 2))
    assert td.width() == 1
    assert validate_td(g, td).passed


def test_star_decomposition_errors():
    g = path_graph(3)
    with pytest.raises(ValueError, match="^vertex 0 has a neighbor inside the set$"):
        star_decomposition(g, [0, 1])
    degenerate = "^independent set must be nonempty and a proper subset of the vertices$"
    with pytest.raises(ValueError, match=degenerate):
        star_decomposition(g, [])
    with pytest.raises(ValueError, match=degenerate):
        star_decomposition(g, [0, 1, 2])


def test_balanced_separator_check_examples():
    g = path_graph(3)
    rep = balanced_separator_check(g, [1])
    assert rep.balanced and rep.component_sizes == (1, 1)
    rep = balanced_separator_check(g, [])
    assert not rep.balanced and rep.component_sizes == (3,)
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert balanced_separator_check(two_triangles, []).balanced


def _prepend_comments(path, comments):
    """Put one PACE ``c`` line per comment before the file's contents."""
    path.write_bytes("".join(f"c {c}\n" for c in comments).encode() + path.read_bytes())


def test_pace_gr_roundtrip(tmp_path):
    g = petersen_graph()
    p1 = tmp_path / "a.gr"
    p2 = tmp_path / "b.gr"
    pace_write_gr(g, p1)
    _prepend_comments(p1, ("made for a round-trip check",))
    g2 = pace_read_gr(p1)
    assert g2 == g
    pace_write_gr(g2, p2)
    _prepend_comments(p2, ("made for a round-trip check",))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[1] == "p tw 10 15"


def _write_gr_reference(g, path, comments=()):
    """The per-edge writer: one formatted line per ``g.edges()`` pair."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p tw {g.n} {g.edge_count}")
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _assert_gr_bytes_match_the_reference(g, tmp_path, comments=()):
    fast, slow = tmp_path / "fast.gr", tmp_path / "slow.gr"
    pace_write_gr(g, fast)
    _prepend_comments(fast, comments)
    _write_gr_reference(g, slow, comments)
    assert fast.read_bytes() == slow.read_bytes()
    assert pace_read_gr(fast) == g


_NAMED_GRAPHS = {
    "edgeless": lambda: Graph(7),
    "n1": lambda: Graph(1),
    "K12": lambda: complete_graph(12),
    "petersen": petersen_graph,
    "path130": lambda: path_graph(130),
    "K2(5,2,1)": lambda: build_kneser_graph(KneserParams(2, 5, 2, 1)),
    "K3(4,2,1)": lambda: build_kneser_graph(KneserParams(3, 4, 2, 1)),
    "quadric3": lambda: build_quadric_graph(3),
}


@pytest.mark.parametrize("name", _NAMED_GRAPHS)
@pytest.mark.parametrize("comments", [(), ("made by a test", "", "two  spaces")])
def test_pace_write_gr_matches_the_per_edge_writer(tmp_path, name, comments):
    _assert_gr_bytes_match_the_reference(_NAMED_GRAPHS[name](), tmp_path, comments)


@given(n=st.integers(1, 80), density=st.floats(0, 1), seed=st.integers(0, 10_000))
def test_pace_write_gr_matches_the_per_edge_writer_on_random_graphs(
    tmp_path_factory, n, density, seed
):
    import random

    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    g = Graph.from_edges(n, edges)
    _assert_gr_bytes_match_the_reference(g, tmp_path_factory.mktemp("gr"))


def test_pace_gr_errors(tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("p twx 3 1\n1 2\n")
    with pytest.raises(PaceParseError) as err:
        pace_read_gr(bad)
    assert err.value.line == 1
    bad.write_text("1 2\np tw 3 1\n")
    with pytest.raises(PaceParseError):
        pace_read_gr(bad)
    bad.write_text("p tw 3 1\n1 4\n")
    with pytest.raises(PaceParseError):
        pace_read_gr(bad)
    bad.write_text("p tw 3 2\n1 2\n")
    with pytest.raises(PaceParseError):
        pace_read_gr(bad)


def _read_text(path) -> str:
    """The whole file decoded at once; an undecodable byte reports its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise PaceParseError(f"not UTF-8 text ({exc.reason})", line) from None


def _read_gr_reference(path) -> Graph:
    """The line-by-line .gr reader, the oracle for ``pace_read_gr``."""
    text = _read_text(path)
    n = m = None
    header_line = 0
    adj: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
            header_line = lineno
            if not 1 <= n <= GRAPH_MAX_VERTICES:
                raise PaceParseError(
                    f"vertex count must be in 1..{GRAPH_MAX_VERTICES}", lineno
                )
            adj = [0] * n
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
    if n is None:
        raise PaceParseError("missing problem line", 1)
    g = Graph.from_masks(adj)
    if g.edge_count != m:
        raise PaceParseError(
            f"problem line declares {m} edges but {g.edge_count} distinct edges found",
            header_line,
        )
    return g


def _gr_outcome(reader, path):
    """The graph read, or the (message, line) of the parse error."""
    try:
        return reader(path)
    except PaceParseError as exc:
        return str(exc), exc.line


# chunk sizes for the bulk reader: the default, and sizes that put chunk
# borders inside runs and errors into later chunks
_CHUNKS = [None, 1, 7, 64]


# reader constants besides the chunk size: the defaults; the transposition
# after n bulk lines (one block holds every row up to n = 362), every run
# scattered; blocks of a few rows, so a later switch, every run shifted
_READER_SETTINGS = [
    {},
    {"_SYMMETRIZE_AT": 0, "_RUN_SCATTER": 1 << 20},
    {"_SYMMETRIZE_AT": 0, "_RUN_SCATTER": 0, "_T_BLOCK": 100},
]


def _assert_reader_matches_the_reference(path, chunk):
    want = _gr_outcome(_read_gr_reference, path)
    for settings in _READER_SETTINGS:
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(treedec, "_GR_CHUNK", chunk)
            for name, value in settings.items():
                mp.setattr(treedec, name, value)
            assert _gr_outcome(pace_read_gr, path) == want, settings
    return want


# edits applied at random offsets of a .gr file: tokens the bulk path must
# refuse, whitespace of every kind the line parser splits on, whole lines
_GR_EDITS = [
    b"0", b"00", b"01", b"007", b"-1", b"+1", b"1_0", "\u0663".encode(), "\uff11".encode(),
    b"1" * 6000, b"9" * 20, b"\xff", b" ", b"  ", b"\t", b"\r", b"\r\n", b"\n", b"\n\n",
    b"\x0b", b"\x0c", b"\x1c", "\x85".encode(), "\u2028".encode(), "\u3000".encode(),
    b"c a comment\n", b"c\n", b"p tw 3 1\n", b"2 2\n", b"1 2 3\n", b"4\n",
]


@st.composite
def _gr_files(draw):
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 10**6)))
    density = draw(st.floats(0, 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    order = draw(st.sampled_from(["canonical", "shuffled", "reversed"]))
    if order == "shuffled":
        rng.shuffle(edges)
    elif order == "reversed":
        edges.reverse()
    if draw(st.booleans()):  # flip some lines to "v u"
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    if edges and draw(st.booleans()):  # repeat some lines
        edges += rng.choices(edges, k=rng.randint(1, len(edges)))
        rng.shuffle(edges)
    m = len(set(map(frozenset, edges))) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    comments = draw(st.lists(st.sampled_from(["c x", "c", "", "c 1 2"]), max_size=2))
    lines = comments + [f"p tw {n} {m}"] + [f"{u + 1} {v + 1}" for u, v in edges]
    data = ("\n".join(lines) + "\n").encode()
    for kind, at, edit in draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "replace", "delete", "truncate"]),
                st.integers(0, 10**6),
                st.sampled_from(_GR_EDITS),
            ),
            max_size=3,
        )
    ):
        i = at % (len(data) + 1)
        if kind == "insert":
            data = data[:i] + edit + data[i:]
        elif kind == "replace":
            data = data[:i] + edit + data[i + 1:]
        elif kind == "delete":
            data = data[:i] + data[i + 1:]
        else:
            data = data[:i]
    return data


@pytest.mark.parametrize("chunk", _CHUNKS)
@given(data=_gr_files())
def test_pace_read_gr_matches_the_line_reader(tmp_path_factory, chunk, data):
    path = tmp_path_factory.mktemp("gr") / "input.gr"
    path.write_bytes(data)
    _assert_reader_matches_the_reference(path, chunk)


@pytest.mark.parametrize("chunk", _CHUNKS)
@pytest.mark.parametrize(
    "text",
    [
        "p tw 5 3\n1 2\n2 3\n3 4\n",
        "p tw 5 3\n1 2\n2 3\n3 4",  # no newline at the end
        "c x\n\np tw 5 3\n1 2\r\n2\t3\n  3 4  \n\n",
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n2 1\n3 1\n",
        "p tw 5 2\n1 2\n1 3\n1 4\n1 5\n",  # wrong edge count
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n5 6\n",
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n01 2\n",
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n0 3\n",
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n3 3\n",
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\np tw 5 4\n",
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n1 2 3\n4\n",  # two names per line on average
        "p tw 5 4\n1 2\n1 3\n 4\n1 5\n2",  # unterminated last name fills a short line
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n\u0663 1\n",
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n" + "1" * 6000 + " 2\n",
        "p tw 5 4\n1 2\n1 3\n1 4\n1 5\n2 3\n",
        "1 2\np tw 5 1\n",
    ],
)
def test_pace_read_gr_matches_the_line_reader_on_edge_cases(tmp_path, chunk, text):
    path = tmp_path / "input.gr"
    path.write_text(text, encoding="utf-8")
    _assert_reader_matches_the_reference(path, chunk)


@pytest.mark.parametrize("chunk", _CHUNKS)
@pytest.mark.parametrize("name", ["K2(5,2,1)", "K3(4,2,1)", "quadric3", "petersen"])
def test_pace_read_gr_reads_the_writer_output(tmp_path, chunk, name):
    g = _NAMED_GRAPHS[name]()
    path = tmp_path / "input.gr"
    pace_write_gr(g, path)
    _prepend_comments(path, ("before the problem line",))
    assert _assert_reader_matches_the_reference(path, chunk) == g


@given(n=st.integers(1, 40), density=st.floats(0, 1), seed=st.integers(0, 10**6),
       block=st.integers(1, 1700))
def test_symmetrize_matches_the_bitwise_transpose(n, density, seed, block):
    rng = random.Random(seed)
    adj = [
        sum(1 << v for v in range(n) if v != u and rng.random() < density) for u in range(n)
    ]
    want = [
        m | sum(1 << j for j in range(n) if adj[j] >> i & 1) for i, m in enumerate(adj)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treedec, "_T_BLOCK", block)
        treedec._symmetrize(adj)
    assert adj == want


def _write_lines(path, header, edges):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n" + "".join(f"{u} {v}\n" for u, v in edges))


@pytest.mark.parametrize("lines, transposed", [(100, False), (1000, True)])
def test_pace_read_gr_symmetrizes_by_the_lines_read_not_the_header(tmp_path, lines, transposed):
    assert 100 < 50 * treedec._SYMMETRIZE_AT < 900  # the switch lies between the cases
    path = tmp_path / "star.gr"
    edges = [(1, 2 + i % 49) for i in range(lines)]  # repeats: 49 distinct edges
    _write_lines(path, f"p tw 50 {10**6}", edges)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treedec, "_GR_CHUNK", 16)
        mp.setattr(treedec, "_symmetrize", calls.append)
        with pytest.raises(PaceParseError, match="declares 1000000 edges but 49"):
            pace_read_gr(path)
    assert len(calls) == transposed


def test_pace_read_gr_sparse_paths_take_no_quadratic_pass(tmp_path):
    n = GRAPH_MAX_VERTICES
    path = tmp_path / "path.gr"
    for m in (n - 1, 2_000_000):
        _write_lines(path, f"p tw {n} {m}", ((i, i + 1) for i in range(1, n)))
        start = time.perf_counter()
        got = _gr_outcome(pace_read_gr, path)
        assert time.perf_counter() - start < 1.0
        if m == n - 1:  # a second path graph would hold another 69 MiB of masks
            assert got.edge_count == n - 1 and got.neighbors(n - 2) == [n - 3, n - 1]
        else:
            message = f"line 1: problem line declares {m} edges but {n - 1} distinct edges found"
            assert got == (message, 1)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reference_lines(path) -> list[str]:
    """The line reader's whole-text stage, which holds nearly all of its peak."""
    return _read_text(path).split("\n")


def test_pace_read_gr_peak_memory_is_below_half_the_line_reader(tmp_path):
    rng = random.Random(7)
    n = 600
    g = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.9]
    )
    path = tmp_path / "dense.gr"
    pace_write_gr(g, path)
    assert path.stat().st_size >= 10**6
    assert pace_read_gr(path) == g
    # A lower bound on the peak of _read_gr_reference, which starts with this
    # stage: 11.68 of its 11.75 MB here.
    assert 2 * _traced_peak(pace_read_gr, path) < _traced_peak(_reference_lines, path)


def test_pace_read_gr_peak_memory_is_below_a_quarter_of_the_file(tmp_path):
    g = build_quadric_graph(5)
    path = tmp_path / "quadric5.gr"
    pace_write_gr(g, path)
    assert pace_read_gr(path) == g
    assert 4 * _traced_peak(pace_read_gr, path) < path.stat().st_size


def test_pace_td_roundtrip(tmp_path):
    td = TreeDecomposition(((0, 1), (1, 2), ()), ((0, 1), (1, 2)))
    p1 = tmp_path / "a.td"
    p2 = tmp_path / "b.td"
    pace_write_td(td, 3, p1)
    td2, n = pace_read_td(p1)
    assert n == 3 and td2 == td
    pace_write_td(td2, n, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "s td 3 2 3"


def test_pace_td_errors(tmp_path):
    bad = tmp_path / "bad.td"
    bad.write_text("s td x 2 3\n")
    with pytest.raises(PaceParseError) as err:
        pace_read_td(bad)
    assert err.value.line == 1
    bad.write_text("s td 2 2 3\nb 1 1 2\nb 1 2 3\n")
    with pytest.raises(PaceParseError):
        pace_read_td(bad)
    bad.write_text("s td 1 5 3\nb 1 1 2\n")
    with pytest.raises(PaceParseError):
        pace_read_td(bad)


@pytest.mark.parametrize(
    "header",
    ["p tw 1_0 0", "p tw \u0663 0", "p tw +3 0", "p tw 3 \uff10", "p tw 0x3 0"],
)
def test_pace_gr_rejects_non_ascii_decimal_counts(tmp_path, header):
    bad = tmp_path / "bad.gr"
    bad.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(PaceParseError) as err:
        pace_read_gr(bad)
    assert err.value.line == 1


@pytest.mark.parametrize("edge", ["1 2_0", "\u0661 2", "+1 2", "1 \u00b2", "1" * 5000 + " 2"])
def test_pace_gr_rejects_non_ascii_decimal_vertex_ids(tmp_path, edge):
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw 30 1\n" + edge + "\n", encoding="utf-8")
    with pytest.raises(PaceParseError) as err:
        pace_read_gr(bad)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text",
    ["s td 1_0 1 2\n", "s td 1 1 \u0663\n", "s td 1 1 2\nb +1 1\n",
     "s td 1 1 2\nb 1 \u0661\n", "s td 2 1 2\nb 1 1\nb 2 2\n1 2_0\n"],
)
def test_pace_td_rejects_non_ascii_decimal_numbers(tmp_path, text):
    bad = tmp_path / "bad.td"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(PaceParseError):
        pace_read_td(bad)


def test_pace_readers_reject_undecodable_bytes(tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_bytes(b"p tw 3 1\n1 2\n\xff\n")
    with pytest.raises(PaceParseError) as err:
        pace_read_gr(bad)
    assert err.value.line == 3
    bad.write_bytes(b"c \xff\ns td 1 1 1\nb 1 1\n")
    with pytest.raises(PaceParseError) as err:
        pace_read_td(bad)
    assert err.value.line == 1


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_pace_read_td_reports_a_later_undecodable_byte_before_a_parse_error(tmp_path, chunk):
    bad = tmp_path / "bad.td"
    bad.write_bytes(b"s td 1 1 1\nb x\nb 1 1\nc\nc \xe2\x82\n")
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(treedec, "_GR_CHUNK", chunk)
        with pytest.raises(PaceParseError) as err:
            pace_read_td(bad)
    assert str(err.value) == "line 5: not UTF-8 text (invalid continuation byte)"
    bad.write_bytes(b"s td 1 1 1\nb x\nb 1 1\n")
    with pytest.raises(PaceParseError) as err:
        pace_read_td(bad)
    assert err.value.line == 2


def test_pace_gr_vertex_budget(tmp_path):
    ok = tmp_path / "ok.gr"
    ok.write_text(f"p tw {GRAPH_MAX_VERTICES} 1\n1 {GRAPH_MAX_VERTICES}\n")
    start = time.perf_counter()
    g = pace_read_gr(ok)
    assert time.perf_counter() - start < 0.5
    assert g.n == GRAPH_MAX_VERTICES and g.adjacency[0] >> (GRAPH_MAX_VERTICES - 1) & 1
    assert _traced_peak(pace_read_gr, ok) < 16 * 2**20  # no n-sized table of big ints
    bad = tmp_path / "bad.gr"
    bad.write_text(f"p tw {GRAPH_MAX_VERTICES + 1} 0\n")
    with pytest.raises(PaceParseError):
        pace_read_gr(bad)


def _write_path_td(path, nb):
    """A .td of nb bags, each holding vertex 1, joined in a path: the
    node masks of such a tree take about nb^2 / 16 bytes."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"s td {nb} 1 1\n")
        fh.writelines(f"b {i} 1\n" for i in range(1, nb + 1))
        fh.writelines(f"{i} {i + 1}\n" for i in range(1, nb))


def test_pace_td_bag_budget(tmp_path):
    g = Graph(1)
    bad = tmp_path / "long.td"
    _write_path_td(bad, 200_000)  # about 2.6 MB; its node masks would take 2.5 GB
    message = f"line 1: bag count must be in 0..{GRAPH_MAX_VERTICES}"
    assert _gr_outcome(pace_read_td, bad) == (message, 1)
    assert _traced_peak(_gr_outcome, pace_read_td, bad) < 2**20
    wide = TreeDecomposition(((0,),) * (GRAPH_MAX_VERTICES + 1), ())
    with pytest.raises(
        BudgetExceededError,
        match=f"^decomposition has {GRAPH_MAX_VERTICES + 1} nodes; "
        f"at most {GRAPH_MAX_VERTICES} can be validated$",
    ):
        validate_td(g, wide)
    ok = tmp_path / "path.td"
    _write_path_td(ok, GRAPH_MAX_VERTICES)
    td, n = pace_read_td(ok)
    assert n == 1 and td.node_count == GRAPH_MAX_VERTICES
    start = time.perf_counter()
    assert validate_td(g, td).passed
    assert time.perf_counter() - start < 5.0
    # the masks stay within nb^2 / 8 bytes (128 MiB at the bound); traced
    # on a quarter of the path, since tracing makes each allocation dear
    quarter = GRAPH_MAX_VERTICES // 4
    part = TreeDecomposition(td.bags[:quarter], td.tree_edges[:quarter - 1])
    assert _traced_peak(validate_td, g, part) < quarter**2 // 8


_PACE_TOKENS = st.sampled_from(
    ["p", "tw", "s", "td", "b", "c", "0", "1", "2", "3", "7", "01", "40000",
     "99999999999999999999", "-1", "+1", "1_0", "0x3", "\u0663", "\u00b2", "\uff11", ""]
)
_PACE_LINES = st.lists(st.lists(_PACE_TOKENS, max_size=5).map(" ".join), max_size=8)
_PACE_BYTES = st.one_of(
    st.binary(max_size=200),
    _PACE_LINES.map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.tuples(_PACE_LINES, st.binary(max_size=4)).map(
        lambda t: "\n".join(t[0]).encode("utf-8") + t[1]
    ),
)


@given(_PACE_BYTES)
def test_pace_readers_fuzz_only_parse_errors_escape(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    for reader in (pace_read_gr, pace_read_td):
        try:
            reader(path)
        except PaceParseError:
            pass
