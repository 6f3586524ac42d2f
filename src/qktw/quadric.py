"""The hyperbolic-quadric model of K_q(4,2,1).

Lines of PG(3,q) map to points of the quadric Q+(5,q) = {x : x0x1 + x2x3 +
x4x5 = 0} via Plucker coordinates; skew lines correspond to
non-perpendicular points under the polarization b(x,y) = x0y1 + x1y0 +
x2y3 + x3y2 + x4y5 + x5y4.  The coordinate order (p01, p23, p02, p31,
p03, p12) is fixed once so that the Plucker relation lands exactly on the
form above; the choice is validated by the isomorphism check rather than
trusted.

Besides the model itself, this module verifies the geometric facts the
K_q(4,2,1) treewidth argument rests on: the grid classification of large
collinearity-closed point sets in Q+(3,q), and a census of perpendicular
sections (conic planes, grid solids, two-line planes and their induced
graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .errors import BudgetExceededError, NotALineError, SizeLimitError
from .gf import FieldSpec, make_field
from .graph import Graph, iter_bits, mask_mismatches
from .kneser import KneserParams
from .subspace import (
    Subspace,
    enumerate_k_subspaces,
    meet_masks,
    nullspace_rows,
    rref_canonical,
)

ProjPoint = tuple[int, ...]

GRID_SEARCH_MAX_Q = 4
QUADRIC_GRAPH_MAX_Q = 5
CENSUS_MAX_Q = 3


def normalize_point(vec, f: FieldSpec) -> ProjPoint:
    """Scale so the first nonzero coordinate is 1; raises on the zero vector."""
    lead = next((j for j, x in enumerate(vec) if x), None)
    if lead is None:
        raise ValueError("the zero vector is not a projective point")
    c = f.inv(vec[lead])
    if c == 1:
        return tuple(vec)
    return tuple(f.mul(c, x) for x in vec)


def _proj_points_of_span(rows: tuple[tuple[int, ...], ...], f: FieldSpec) -> list[ProjPoint]:
    """Projective points of the row span, each exactly once (rows independent)."""
    d = len(rows)
    n = len(rows[0]) if rows else 0
    out = []
    for lead in range(d):
        for tail in product(range(f.q), repeat=d - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            vec = [0] * n
            for c, row in zip(coeffs, rows):
                if c:
                    vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
            out.append(normalize_point(vec, f))
    return out


class QuadricModel:
    """Points and polarity of Q+(5,q) under the form x0x1 + x2x3 + x4x5."""

    def __init__(self, q: int):
        self.q = q
        self.field = make_field(q)
        f = self.field
        pts = []
        for p in _proj_points_of_span(_identity_rows(6), f):
            if self.form_value(p) == 0:
                pts.append(p)
        self.points: tuple[ProjPoint, ...] = tuple(sorted(pts))
        self.index: dict[ProjPoint, int] = {p: i for i, p in enumerate(self.points)}
        expected = (q * q + 1) * (q * q + q + 1)
        if len(self.points) != expected:
            raise ArithmeticError(
                f"Q+(5,{q}) has {len(self.points)} points, expected {expected}"
            )

    def form_value(self, v: ProjPoint) -> int:
        f = self.field
        return f.add(
            f.add(f.mul(v[0], v[1]), f.mul(v[2], v[3])), f.mul(v[4], v[5])
        )

    def bilinear(self, x: ProjPoint, y: ProjPoint) -> int:
        f = self.field
        total = 0
        for a, b in ((0, 1), (2, 3), (4, 5)):
            total = f.add(total, f.add(f.mul(x[a], y[b]), f.mul(x[b], y[a])))
        return total

    @cached_property
    def perp_masks(self) -> tuple[int, ...]:
        """perp_masks[i] has bit j set iff point i is perpendicular to point j.
        Every point is self-perpendicular."""
        n = len(self.points)
        masks = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if self.bilinear(self.points[i], self.points[j]) == 0:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        full = (1 << len(self.points)) - 1
        return tuple(full & ~m for m in self.perp_masks)

    @cached_property
    def lines(self) -> tuple[frozenset[int], ...]:
        """All lines contained in the quadric, as point-index sets."""
        f = self.field
        found: set[frozenset[int]] = set()
        n = len(self.points)
        for i in range(n):
            mask = self.perp_masks[i] >> (i + 1)
            for off in iter_bits(mask):
                j = i + 1 + off
                span = _proj_points_of_span(
                    (self.points[i], self.points[j]), f
                )
                idx = frozenset(self.index[p] for p in span)
                if len(idx) != self.q + 1:
                    raise ArithmeticError("a quadric line must have q + 1 points")
                found.add(idx)
        return tuple(sorted(found, key=sorted))

    @cached_property
    def lines_through(self) -> tuple[tuple[int, ...], ...]:
        through: list[list[int]] = [[] for _ in self.points]
        for li, line in enumerate(self.lines):
            for p in line:
                through[p].append(li)
        return tuple(tuple(t) for t in through)

    def section(self, space: Subspace) -> list[int]:
        """Indices of quadric points inside a projective subspace."""
        if space.k == 0:
            return []
        out = []
        for p in _proj_points_of_span(space.rows, self.field):
            i = self.index.get(p)
            if i is not None:
                out.append(i)
        return sorted(out)

    def perp_space(self, point_indices) -> Subspace:
        """The polar subspace of the span of the given points."""
        f = self.field
        rows = [_polar_vector(self.points[i]) for i in point_indices]
        basis = nullspace_rows(rows, f, 6)
        return Subspace(f, 6, tuple(basis))


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def _polar_vector(p: ProjPoint) -> tuple[int, ...]:
    """b(p, y) = dot(_polar_vector(p), y): swap the paired coordinates."""
    return (p[1], p[0], p[3], p[2], p[5], p[4])


# -- the Klein map -------------------------------------------------------------


def klein_map(line: Subspace) -> ProjPoint:
    """Plucker coordinates (p01, p23, p02, p31, p03, p12) of a line of PG(3,q).

    The ordering and the sign of p31 put the Plucker relation exactly on
    the quadric form, so the image always lies on Q+(5,q).
    """
    if line.n != 4 or line.k != 2:
        raise NotALineError(
            f"expected a 2-dimensional subspace of F_q^4, got k={line.k}, n={line.n}"
        )
    f = line.field
    a, b = line.rows

    def minor(i: int, j: int) -> int:
        return f.sub(f.mul(a[i], b[j]), f.mul(a[j], b[i]))

    coords = (
        minor(0, 1),
        minor(2, 3),
        minor(0, 2),
        f.neg(minor(1, 3)),  # p31 = -p13
        minor(0, 3),
        minor(1, 2),
    )
    return normalize_point(coords, f)


def build_quadric_graph(q: int) -> Graph:
    """Non-perpendicularity graph on the points of Q+(5,q)."""
    if q > QUADRIC_GRAPH_MAX_Q:
        raise SizeLimitError(
            f"quadric graph limited to q <= {QUADRIC_GRAPH_MAX_Q}, got q={q}"
        )
    model = QuadricModel(q)
    return Graph.from_masks(model.adjacency_masks, labels=list(model.points))


@dataclass
class KleinReport:
    q: int
    line_count: int
    point_count: int
    bijective: bool
    pairs_checked: int
    mismatches: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return self.bijective and not self.mismatches


def verify_klein_isomorphism(q: int) -> KleinReport:
    """Exhaustively check that the Plucker map carries K_q(4,2,1) adjacency
    (skew lines) onto non-perpendicularity of quadric points.

    The skew masks of the lines come from :func:`meet_masks`; the model's
    adjacency masks are mapped into line order through the images, and the
    two mask lists are compared whole.
    """
    if q > QUADRIC_GRAPH_MAX_Q:
        raise BudgetExceededError(
            f"Klein verification limited to q <= {QUADRIC_GRAPH_MAX_Q}, got q={q}"
        )
    KneserParams(q, 4, 2, 1)  # validates q
    f = make_field(q)
    lines = enumerate_k_subspaces(4, 2, f)
    model = QuadricModel(q)
    images = [klein_map(line) for line in lines]
    bijective = len(set(images)) == len(lines) and set(images) == set(model.points)
    n = len(lines)
    full = (1 << n) - 1
    skew = [full & ~m for m in meet_masks(lines, 1)]
    at_point = [0] * len(model.points)  # the lines whose image is each point
    pos = [model.index.get(p) for p in images]
    for i, x in enumerate(pos):
        if x is not None:
            at_point[x] |= 1 << i
    nonperp = []
    for x in pos:
        mask = 0
        if x is not None:
            for y in iter_bits(model.adjacency_masks[x]):
                mask |= at_point[y]
        nonperp.append(mask)
    return KleinReport(
        q=q,
        line_count=n,
        point_count=len(model.points),
        bijective=bijective,
        pairs_checked=n * (n - 1) // 2,
        mismatches=tuple(mask_mismatches(skew, nonperp)),
    )


# -- the grid classification ----------------------------------------------------


@dataclass
class GridSearchReport:
    """Largest grid point sets with no three pairwise non-collinear points.

    The expected extrema are the unions of two rows or two columns (two
    disjoint grid lines), of size 2q + 2.
    """

    q: int
    max_size: int
    extremal_sets: tuple[tuple[tuple[int, int], ...], ...]
    expected_max: int
    classification_ok: bool

    @property
    def passed(self) -> bool:
        return self.max_size == self.expected_max and self.classification_ok


def grid_extremal_search(q: int) -> GridSearchReport:
    """Exhaustive search over the (q+1) x (q+1) grid with pruning.

    Points are (row, col); two points are collinear when they share a row
    or a column.  A depth-first include/exclude walk keeps only sets with
    no 3-element pattern of pairwise distinct rows and columns, pruning
    branches that cannot reach the incumbent size.
    """
    if q > GRID_SEARCH_MAX_Q:
        raise BudgetExceededError(
            f"grid search limited to q <= {GRID_SEARCH_MAX_Q}, got q={q}"
        )
    side = q + 1
    size = side * side
    coords = [(i, j) for i in range(side) for j in range(side)]
    nc = [0] * size
    for a in range(size):
        ra, ca = coords[a]
        for b in range(size):
            rb, cb = coords[b]
            if ra != rb and ca != cb:
                nc[a] |= 1 << b

    best = 0
    extremal: list[int] = []

    def dfs(idx: int, chosen: int, count: int) -> None:
        nonlocal best, extremal
        if idx == size:
            if count > best:
                best = count
                extremal = [chosen]
            elif count == best and count > 0:
                extremal.append(chosen)
            return
        if count + (size - idx) < best:
            return
        conflict_zone = chosen & nc[idx]
        ok = True
        probe = conflict_zone
        while probe:
            low = probe & -probe
            a = low.bit_length() - 1
            probe ^= low
            if conflict_zone & nc[a]:
                ok = False
                break
        if ok:
            dfs(idx + 1, chosen | (1 << idx), count + 1)
        dfs(idx + 1, chosen, count)

    dfs(0, 0, 0)

    expected_sets = set()
    for a, b in combinations(range(side), 2):
        row_pair = 0
        col_pair = 0
        for j in range(side):
            row_pair |= 1 << (a * side + j)
            row_pair |= 1 << (b * side + j)
            col_pair |= 1 << (j * side + a)
            col_pair |= 1 << (j * side + b)
        expected_sets.add(row_pair)
        expected_sets.add(col_pair)

    found = set(extremal)
    classification_ok = found == expected_sets
    as_coords = tuple(
        tuple(coords[i] for i in iter_bits(mask)) for mask in sorted(found)
    )
    return GridSearchReport(
        q=q,
        max_size=best,
        extremal_sets=as_coords,
        expected_max=2 * q + 2,
        classification_ok=classification_ok,
    )


# -- perpendicular-section census --------------------------------------------------


@dataclass
class ClaimResult:
    checked: int
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures


@dataclass
class CensusReport:
    q: int
    claims: dict[str, ClaimResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.claims.values())


def default_census_claims(q: int) -> tuple[str, ...]:
    return ("i", "ii", "iii", "iv") if q == 2 else ("ii", "iii")


def perp_section_census(q: int, claims: tuple[str, ...] | None = None) -> CensusReport:
    """Exhaustively verify the perpendicular-section facts on Q+(5,q).

    i.   For every triple of pairwise non-perpendicular points, the polar
         plane of their span meets the quadric in exactly q + 1 points.
    ii.  For every non-perpendicular pair, the polar solid of their secant
         line meets the quadric in a (q+1) x (q+1) grid.
    iii. For every plane meeting the quadric in two lines through a point
         z, the polar plane also meets it in two lines through the same z,
         and the two sections share only z (4q + 1 points in total).
    iv.  (q = 2) The graph induced on those 4q + 1 points is an isolated
         vertex plus two 4-cycles.
    """
    if q > CENSUS_MAX_Q:
        raise BudgetExceededError(f"census limited to q <= {CENSUS_MAX_Q}, got q={q}")
    wanted = tuple(claims) if claims is not None else default_census_claims(q)
    for c in wanted:
        if c not in ("i", "ii", "iii", "iv"):
            raise ValueError(f"unknown claim {c!r}")
        if c == "iv" and q != 2:
            raise ValueError("claim 'iv' is specific to q = 2")
    model = QuadricModel(q)
    results: dict[str, ClaimResult] = {}
    if "i" in wanted:
        results["i"] = _census_conic_planes(model)
    if "ii" in wanted:
        results["ii"] = _census_secant_grids(model)
    if "iii" in wanted or "iv" in wanted:
        three, four = _census_two_line_planes(model, want_cycles="iv" in wanted)
        if "iii" in wanted:
            results["iii"] = three
        if "iv" in wanted:
            results["iv"] = four
    ordered = {c: results[c] for c in ("i", "ii", "iii", "iv") if c in results}
    return CensusReport(q=q, claims=ordered)


def _census_conic_planes(model: QuadricModel) -> ClaimResult:
    q = model.q
    adj = model.adjacency_masks
    n = len(model.points)
    checked = 0
    failures = []
    for u in range(n):
        for v_off in iter_bits(adj[u] >> (u + 1)):
            v = u + 1 + v_off
            common = adj[u] & adj[v]
            for w_off in iter_bits((common >> (v + 1))):
                w = v + 1 + w_off
                checked += 1
                polar = model.perp_space((u, v, w))
                sect = model.section(polar)
                if len(sect) != q + 1:
                    failures.append((u, v, w, len(sect)))
    return ClaimResult(checked=checked, failures=tuple(failures))


def _grid_structure_ok(model: QuadricModel, section: list[int]) -> bool:
    """A (q+1)^2 section must carry 2(q+1) quadric lines in two parallel
    classes, every point on exactly one line of each class."""
    q = model.q
    pts = set(section)
    lines = {
        li
        for p in section
        for li in model.lines_through[p]
        if model.lines[li] <= pts
    }
    if len(lines) != 2 * (q + 1):
        return False
    per_point = {p: sum(1 for li in lines if p in model.lines[li]) for p in section}
    if set(per_point.values()) != {2}:
        return False
    line_sets = sorted((model.lines[li] for li in lines), key=sorted)
    first = line_sets[0]
    class_a = [l for l in line_sets if l == first or not l & first]
    class_b = [l for l in line_sets if l != first and l & first]
    if len(class_a) != q + 1 or len(class_b) != q + 1:
        return False
    for cls in (class_a, class_b):
        for x, y in combinations(cls, 2):
            if x & y:
                return False
    for x in class_a:
        for y in class_b:
            if len(x & y) != 1:
                return False
    return True


def _census_secant_grids(model: QuadricModel) -> ClaimResult:
    q = model.q
    adj = model.adjacency_masks
    n = len(model.points)
    checked = 0
    failures = []
    for u in range(n):
        for v_off in iter_bits(adj[u] >> (u + 1)):
            v = u + 1 + v_off
            checked += 1
            polar = model.perp_space((u, v))
            sect = model.section(polar)
            if len(sect) != (q + 1) ** 2 or not _grid_structure_ok(model, sect):
                failures.append((u, v, len(sect)))
    return ClaimResult(checked=checked, failures=tuple(failures))


def _two_line_split(model: QuadricModel, section: list[int]):
    """For a (2q+1)-point section: the vertex z perpendicular to the whole
    section plus its two lines, or None if the section is not of that shape."""
    pts = set(section)
    centers = [
        p
        for p in section
        if all(model.bilinear(model.points[p], model.points[x]) == 0 for x in section)
    ]
    if len(centers) != 1:
        return None
    z = centers[0]
    through = [li for li in model.lines_through[z] if model.lines[li] <= pts]
    if len(through) != 2:
        return None
    l1, l2 = (model.lines[li] for li in through)
    if l1 | l2 != pts or l1 & l2 != {z}:
        return None
    return z, l1, l2


def _census_two_line_planes(model: QuadricModel, want_cycles: bool):
    q = model.q
    f = model.field
    section_size = 2 * q + 1
    checked = 0
    failures_iii = []
    failures_iv = []
    for z in range(len(model.points)):
        zpt = model.points[z]
        for la, lb in combinations(model.lines_through[z], 2):
            p1 = min(model.lines[la] - {z})
            p2 = min(model.lines[lb] - {z})
            plane = rref_canonical(
                [zpt, model.points[p1], model.points[p2]], f
            )
            sect = model.section(plane)
            if len(sect) != section_size:
                continue  # the two lines span a plane fully on the quadric
            checked += 1
            split = _two_line_split(model, sect)
            polar = model.perp_space((z, p1, p2))
            sect2 = model.section(polar)
            split2 = _two_line_split(model, sect2) if len(sect2) == section_size else None
            union = set(sect) | set(sect2)
            ok = (
                split is not None
                and split2 is not None
                and split2[0] == z
                and set(sect) & set(sect2) == {z}
                and len(union) == 4 * q + 1
            )
            if not ok:
                failures_iii.append((z, p1, p2))
                continue
            if want_cycles and not _is_point_plus_two_cycles(model, z, union):
                failures_iv.append((z, p1, p2))
    three = ClaimResult(checked=checked, failures=tuple(failures_iii))
    four = ClaimResult(checked=checked, failures=tuple(failures_iv))
    return three, four


def _is_point_plus_two_cycles(model: QuadricModel, z: int, union: set[int]) -> bool:
    """Induced non-perpendicularity graph = singleton z plus two 4-cycles."""
    rest = sorted(union - {z})
    if len(rest) != 8:
        return False
    if any(
        model.bilinear(model.points[z], model.points[x]) != 0 for x in rest
    ):
        return False
    neigh = {
        x: [
            y
            for y in rest
            if y != x and model.bilinear(model.points[x], model.points[y]) != 0
        ]
        for x in rest
    }
    if any(len(v) != 2 for v in neigh.values()):
        return False
    seen: set[int] = set()
    cycles = 0
    for start in rest:
        if start in seen:
            continue
        cycles += 1
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in neigh[x]:
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        if len(comp) != 4:
            return False
        seen |= comp
    return cycles == 2
