import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qktw.graph import (
    Graph,
    certify_collineations,
    certify_maps,
    complete_graph,
    component,
    components,
    iter_bits,
    mask_mismatches,
    path_graph,
    petersen_graph,
)

from graph_helpers import cycle_graph


def test_iter_bits():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert list(iter_bits(0)) == []


# the Fano plane: lines {i, i + 1, i + 3} mod 7, as point masks
FANO_LINES = [(1 << i) | (1 << (i + 1) % 7) | (1 << (i + 3) % 7) for i in range(7)]


def test_certify_maps_checks_lines_onto_lines():
    shift = [(x + 1) % 7 for x in range(7)]
    double = [2 * x % 7 for x in range(7)]  # keeps the difference set {0, 1, 3}
    certify_maps([shift, double], 7, FANO_LINES)
    swap = [1, 0, 2, 3, 4, 5, 6]
    with pytest.raises(ArithmeticError, match="map 2 does not map the lines onto themselves"):
        certify_maps([shift, double, swap], 7, FANO_LINES)


def test_certify_collineations_induces_the_maps_on_blocks():
    shift = [(x + 1) % 7 for x in range(7)]
    assert certify_collineations([shift], 7, FANO_LINES, FANO_LINES) == [[1, 2, 3, 4, 5, 6, 0]]
    # an image that is no block leaves the induced map no permutation
    with pytest.raises(ArithmeticError, match="map 0 is not a permutation of the 6 vertices"):
        certify_collineations([shift], 7, FANO_LINES, FANO_LINES[:-1])
    # the lines and their complements are two orbits of blocks
    blocks = FANO_LINES + [0b1111111 ^ line for line in FANO_LINES]
    with pytest.raises(ArithmeticError, match="every vertex"):
        certify_collineations([shift], 7, FANO_LINES, blocks)


def test_basic_construction():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.adjacency[0] >> 1 & 1 and g.adjacency[1] >> 0 & 1
    assert not g.adjacency[0] >> 2 & 1
    assert g.degree(1) == 2
    assert g.neighbors(1) == [0, 2]
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.edge_count == 2


def test_construction_errors():
    with pytest.raises(ValueError):
        Graph(0)
    g = Graph(3)
    with pytest.raises(ValueError):
        g.add_edge(0, 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)


def test_named_graphs():
    assert complete_graph(5).edge_count == 10
    assert path_graph(4).edge_count == 3
    assert cycle_graph(5).edge_count == 5
    pet = petersen_graph()
    assert pet.n == 10 and pet.edge_count == 15
    assert pet.degrees() == [3] * 10


def test_complement():
    g = path_graph(3)
    c = g.complement()
    assert c.adjacency[0] >> 2 & 1 and not c.adjacency[0] >> 1 & 1
    assert g.edge_count + c.edge_count == 3


def test_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    comps = components(g.adjacency, (1 << 5) - 1)
    assert comps == [(0b00011, 0b00011), (0b01100, 0b01100), (0b10000, 0)]
    # restricted to a subset mask; N(K) reaches outside it
    comps = components(g.adjacency, 0b01011)
    assert comps == [(0b00011, 0b00011), (0b01000, 0b00100)]


def _bits(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def _search(g, v, inside):
    """Component of v in G[inside], by a breadth-first search over vertex sets."""
    comp = {v}
    queue = [v]
    for x in queue:
        for y in range(g.n):
            if g.adjacency[x] >> y & 1 and y in inside and y not in comp:
                comp.add(y)
                queue.append(y)
    return comp


@given(n=st.integers(1, 30), density=st.floats(0, 1), seed=st.integers(0, 10**6))
def test_component_and_components_match_a_set_based_search(n, density, seed):
    rng = random.Random(seed)
    g = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    )
    within = rng.getrandbits(n)
    inside = _bits(within)
    for v in inside:
        comp, reach = component(g.adjacency, 1 << v, within)
        assert _bits(comp) == _search(g, v, inside)
        assert _bits(reach) == {u for x in _bits(comp) for u in range(n) if g.adjacency[x] >> u & 1}
    want = []
    left = set(inside)
    while left:
        comp = _search(g, min(left), inside)
        want.append(comp)
        left -= comp
    assert [_bits(c) for c, _ in components(g.adjacency, within)] == want


def test_from_masks():
    pet = petersen_graph()
    g = Graph.from_masks(pet.adjacency, labels=list("abcdefghij"))
    assert g == pet and g.labels[3] == "d"
    with pytest.raises(ValueError):
        Graph.from_masks([0b10, 0b11])  # loop at vertex 1
    with pytest.raises(ValueError):
        Graph.from_masks([0b100, 0])  # neighbour 2 of a 2-vertex graph
    with pytest.raises(ValueError):
        Graph.from_masks([])


def _flip(masks, pairs):
    out = list(masks)
    for i, j in pairs:
        out[i] ^= 1 << j
        out[j] ^= 1 << i
    return out


def test_mask_mismatches_returns_exactly_the_changed_pairs():
    base = petersen_graph().adjacency
    assert mask_mismatches(base, base) == []
    changed = [(7, 9), (0, 5), (3, 4), (0, 2), (8, 9)]  # edges and non-edges
    assert mask_mismatches(base, _flip(base, changed)) == sorted(changed)
    assert mask_mismatches(_flip(base, changed), base) == sorted(changed)
    # a diagonal difference is not a pair
    assert mask_mismatches([0b1, 0], [0, 0]) == []
    with pytest.raises(ValueError):
        mask_mismatches(base, base[:-1])
