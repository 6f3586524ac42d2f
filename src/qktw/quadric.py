"""The hyperbolic-quadric model of K_q(4,2,1).

Lines of PG(3,q) map to points of the quadric Q+(5,q) = {x : x0x1 + x2x3 +
x4x5 = 0} via Plucker coordinates; skew lines correspond to
non-perpendicular points under the polarization b(x,y) = x0y1 + x1y0 +
x2y3 + x3y2 + x4y5 + x5y4.  The coordinate order (p01, p23, p02, p31,
p03, p12) is fixed once so that the Plucker relation lands exactly on the
form above; the choice is validated by the isomorphism check rather than
trusted.

Projective points are 1-subspaces and have no code of their own: the
model's points are the 1-subspaces of F_q^6 from
:func:`subspace.enumerate_k_subspaces` that lie on the form, and a
Klein image is scaled to a leading 1 by :func:`subspace.rref_canonical`.
A quadric line is read off the perp masks alone, as the polar of the
polar of two perpendicular points.

Besides the model itself, this module verifies the geometric facts the
K_q(4,2,1) treewidth argument rests on: the grid classification of large
collinearity-closed point sets in Q+(3,q), and a census of perpendicular
sections (conic planes, grid solids, two-line planes and their induced
graphs).  The census is exhaustive at point 0 and transferred to every
point by :attr:`QuadricModel.automorphisms`: point permutations of
isometries of the form, each certified to map the lines onto lines, and
together to be transitive, before any verdict rests on them.  In a polar
space two singular points are perpendicular exactly when they are equal
or lie on a common totally singular line, which :attr:`QuadricModel.lines`
checks on every perp mask, so a map that keeps the lines keeps
perpendicularity too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import BudgetExceededError
from .gf import make_field, primitive_element
from .graph import (
    Graph,
    certify_maps,
    components,
    iter_bits,
    mask_mismatches,
)
from .kneser import KneserParams, gl_vertex_maps
from .subspace import (
    LinearMap,
    Subspace,
    enumerate_k_subspaces,
    meet_masks,
    rref_canonical,
)

ProjPoint = tuple[int, ...]

GRID_SEARCH_MAX_Q = 4
QUADRIC_GRAPH_MAX_Q = 5
CENSUS_MAX_Q = QUADRIC_GRAPH_MAX_Q


class QuadricModel:
    """Points and polarity of Q+(5,q) under the form x0x1 + x2x3 + x4x5."""

    def __init__(self, q: int):
        self.q = q
        self.field = make_field(q)
        # the 1-subspaces of F_q^6 come in lexicographic RREF order, so the
        # points are sorted and each is scaled to a leading 1
        self.points: tuple[ProjPoint, ...] = tuple(
            s.rows[0]
            for s in enumerate_k_subspaces(6, 1, self.field)
            if self.form_value(s.rows[0]) == 0
        )
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

    @cached_property
    def perp_masks(self) -> tuple[int, ...]:
        """perp_masks[i] has bit j set iff point i is perpendicular to point j.
        Every point is self-perpendicular.

        Built from coordinate masks, with no loop over point pairs:
        coord[j][a] holds the points whose coordinate j equals a.  For a
        point p, b(p, x) = sum of c_j x_j with c = _polar_vector(p) is
        linear in x, so the coordinates are folded in one at a time,
        keeping per partial-sum value s the mask of the points whose terms
        so far sum to s; after the last one, the mask at s = 0 is p's perp.
        That is at most q^2 ANDs per coordinate.  ``oracle_bilinear`` in
        the tests, one form evaluation per pair, is the oracle.
        """
        f = self.field
        coord = [[0] * self.q for _ in range(6)]
        for i, x in enumerate(self.points):
            for j, a in enumerate(x):
                coord[j][a] |= 1 << i
        full = (1 << len(self.points)) - 1
        masks = []
        for p in self.points:
            sums = {0: full}
            for c, by_value in zip(_polar_vector(p), coord):
                if not c:
                    continue
                nxt: dict[int, int] = {}
                for s, m in sums.items():
                    for a, points in enumerate(by_value):
                        hit = m & points
                        if hit:
                            key = f.add(s, f.mul(c, a))
                            nxt[key] = nxt.get(key, 0) | hit
                sums = nxt
            masks.append(sums.get(0, 0))
        return tuple(masks)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        full = (1 << len(self.points)) - 1
        return tuple(full & ~m for m in self.perp_masks)

    @cached_property
    def lines(self) -> tuple[int, ...]:
        """All lines contained in the quadric, as point masks.

        Two perpendicular points i and j span a totally singular line L.
        L^perp is a solid whose quadric points S = ``polar_section((i, j))``
        lie on two planes through L, and L^perp^perp = L.  A point a of S
        that some point of S is not perpendicular to lies off L, on one
        plane, and b, the lowest point of S not perpendicular to a, on the
        other; so i, j, a and b span L^perp, and L's points are
        ``polar_section((i, j, a, b))``, four ANDs.

        Raises ArithmeticError unless every point's perp mask is its own
        bit ORed with the lines through it: singular points are
        perpendicular exactly when they are equal or on a common line
        (Hirschfeld & Thas, *General Galois Geometries*, OUP 1991).  That
        is what lets the line check of :func:`graph.certify_maps` stand in
        for perpendicularity.
        """
        perp = self.perp_masks
        covered = [0] * len(self.points)  # per point: its lines found so far
        found = []
        for i, row in enumerate(perp):
            for off in iter_bits(row >> (i + 1)):
                j = i + 1 + off
                if (covered[i] >> j) & 1:
                    continue
                solid = self.polar_section((i, j))
                a = next((p for p in iter_bits(solid) if solid & ~perp[p]), None)
                if a is None:
                    raise ArithmeticError("the polar solid of a quadric line must hold two planes")
                other = solid & ~perp[a]
                b = (other & -other).bit_length() - 1
                mask = self.polar_section((i, j, a, b))
                if mask.bit_count() != self.q + 1:
                    raise ArithmeticError("a quadric line must have q + 1 points")
                for p in iter_bits(mask):
                    covered[p] |= mask
                found.append(mask)
        for i, row in enumerate(perp):
            if row != covered[i] | (1 << i):
                raise ArithmeticError(f"the perp mask of point {i} is not the lines through it")
        return tuple(sorted(found, key=lambda m: list(iter_bits(m))))

    @cached_property
    def line_set(self) -> frozenset[int]:
        """The line masks, for membership tests."""
        return frozenset(self.lines)

    @cached_property
    def lines_through(self) -> tuple[tuple[int, ...], ...]:
        through: list[list[int]] = [[] for _ in self.points]
        for li, line in enumerate(self.lines):
            for p in iter_bits(line):
                through[p].append(li)
        return tuple(tuple(t) for t in through)

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Point permutations induced by the isometries of
        :func:`_isometry_generators`, mapped by :func:`kneser.gl_vertex_maps`
        with the points as 1-subspaces, and certified by
        :func:`graph.certify_maps` when first asked for: each maps the
        lines onto lines, and so, by the check in :attr:`lines`, the perp
        masks onto themselves, and together they carry point 0 to every
        point.  A failed check raises ArithmeticError: a verdict is never
        transferred along an uncertified map."""
        points = [Subspace(self.field, 6, (p,)) for p in self.points]
        perms = gl_vertex_maps(points, _isometry_generators(self.field))
        certify_maps(perms, len(self.points), self.line_set)
        return tuple(tuple(perm) for perm in perms)

    def polar_section(self, point_indices) -> int:
        """Mask of the quadric points in the polar of the span of the given
        points: the AND of their perp masks, exact by bilinearity."""
        mask = (1 << len(self.points)) - 1
        for i in point_indices:
            mask &= self.perp_masks[i]
        return mask


def _polar_vector(p: ProjPoint) -> tuple[int, ...]:
    """b(p, y) = dot(_polar_vector(p), y): swap the paired coordinates."""
    return (p[1], p[0], p[3], p[2], p[5], p[4])


# -- certified automorphisms ---------------------------------------------------


def _isometry_generators(f) -> list[LinearMap]:
    """Isometries of x0x1 + x2x3 + x4x5 on row vectors, as matrix rows (row
    i is the image of e_i): the swap x0 <-> x1, the rotation of the three
    coordinate pairs, the Siegel map x0 -> x0 - x3, x2 -> x2 + x1, and for
    q > 2 diag(w, 1/w, 1, 1, 1, 1) with w primitive.  Nothing here is
    trusted: the certificate checks what they do to the points."""
    eye = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    gens = [
        (eye[1], eye[0]) + eye[2:],
        eye[4:] + eye[:4],
        (eye[0], (0, 1, 1, 0, 0, 0), eye[2], (f.neg(1), 0, 0, 1, 0, 0)) + eye[4:],
    ]
    if f.q > 2:
        w = primitive_element(f)
        gens.append(((w, 0, 0, 0, 0, 0), (0, f.inv(w), 0, 0, 0, 0)) + eye[2:])
    return gens


# -- the Klein map -------------------------------------------------------------


def klein_map(line: Subspace) -> ProjPoint:
    """Plucker coordinates (p01, p23, p02, p31, p03, p12) of a line of
    PG(3,q), scaled to a leading 1.

    The ordering and the sign of p31 put the Plucker relation exactly on
    the quadric form, so the image always lies on Q+(5,q).
    """
    if line.n != 4 or line.k != 2:
        raise ValueError(
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
    return rref_canonical((coords,), f).rows[0]


def build_quadric_graph(q: int) -> Graph:
    """Non-perpendicularity graph on the points of Q+(5,q)."""
    if q > QUADRIC_GRAPH_MAX_Q:
        raise BudgetExceededError(
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
    or a column.  A depth-first include/exclude walk, in cell order, keeps
    only sets with no 3-element pattern of pairwise distinct rows and
    columns.  It carries ``banned``, the cells non-collinear with both
    points of some non-collinear chosen pair: a cell may be included
    exactly when it is not banned.  Including a cell bans the cells
    non-collinear with it and with one of its non-collinear chosen points.
    ``banned`` only grows, so a branch can add at most the unbanned cells
    from the current one on, and it is pruned only when even those fall
    strictly short of the incumbent size: every maximum set is reached.
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

    def dfs(idx: int, chosen: int, banned: int, count: int) -> None:
        nonlocal best, extremal
        if idx == size:
            if count > best:
                best = count
                extremal = [chosen]
            elif count == best and count > 0:
                extremal.append(chosen)
            return
        if count + (size - idx) - (banned >> idx).bit_count() < best:
            return
        if not banned >> idx & 1:
            near = nc[idx]
            partners = chosen & near
            reach = 0
            while partners:
                low = partners & -partners
                reach |= nc[low.bit_length() - 1]
                partners ^= low
            dfs(idx + 1, chosen | (1 << idx), banned | (near & reach), count + 1)
        dfs(idx + 1, chosen, banned, count)

    dfs(0, 0, 0, 0)

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
    """``checked`` counts the sections of the claim over all points,
    ``examined`` those examined at the representative point; the failures
    are among those."""

    checked: int
    examined: int
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
    """Verify the perpendicular-section facts on Q+(5,q), q <= 5.

    i.   For every triple of pairwise non-perpendicular points, the polar
         plane of their span meets the quadric in exactly q + 1 points.
    ii.  For every non-perpendicular pair, the polar solid of their secant
         line meets the quadric in a (q+1) x (q+1) grid.
    iii. For every plane meeting the quadric in two lines through a point
         z, the polar plane also meets it in two lines through the same z,
         and the two sections share only z (4q + 1 points in total).
    iv.  (q = 2) The graph induced on those 4q + 1 points is an isolated
         vertex plus two 4-cycles.

    The census is exhaustive at one representative, point 0: every triple
    and pair through it, every two lines through it.  The verdicts are
    transferred to every point by the model's certified automorphisms
    (:attr:`QuadricModel.automorphisms`), which map the lines onto lines,
    hence perpendicularity, every section and every verdict onto
    themselves, and carry point 0 to every point; a failed certificate
    raises ArithmeticError.  ``checked`` stays the count over all points,
    as exact integers: N c / 3 for claim i (each triple has three points),
    the edge count for claim ii and N c for claims iii and iv, with c the
    count at point 0.

    Every section is a point mask: the quadric points of the polar of a
    point set are the AND of those points' perp masks
    (:meth:`QuadricModel.polar_section`), and a plane is the polar of its
    polar.  No section enumerates the points of a subspace.
    """
    if q > CENSUS_MAX_Q:
        raise BudgetExceededError(f"census limited to q <= {CENSUS_MAX_Q}, got q={q}")
    wanted = tuple(claims) if claims is not None else default_census_claims(q)
    for c in wanted:
        if c not in ("i", "ii", "iii", "iv"):
            raise ValueError(f"unknown claim {c!r}")
        if c == "iv" and q != 2:
            raise ValueError("claim 'iv' is specific to q = 2")
    return _census(QuadricModel(q), wanted)


def _census(model: QuadricModel, wanted: tuple[str, ...]) -> CensusReport:
    """The claims of ``wanted`` at point 0, transferred under the certified
    automorphisms, which are built first."""
    n = len(model.points)
    model.automorphisms  # certified before a verdict at point 0 stands for all
    results: dict[str, ClaimResult] = {}
    if "i" in wanted:
        examined, failures = _census_conic_planes(model, 0)
        results["i"] = ClaimResult(_exact_quotient(n * examined, 3), examined, failures)
    if "ii" in wanted:
        examined, failures = _census_secant_grids(model, 0)
        edges = _exact_quotient(sum(m.bit_count() for m in model.adjacency_masks), 2)
        results["ii"] = ClaimResult(edges, examined, failures)
    if "iii" in wanted or "iv" in wanted:
        examined, failures_iii, failures_iv = _census_two_line_planes(
            model, 0, want_cycles="iv" in wanted
        )
        if "iii" in wanted:
            results["iii"] = ClaimResult(n * examined, examined, failures_iii)
        if "iv" in wanted:
            results["iv"] = ClaimResult(n * examined, examined, failures_iv)
    ordered = {c: results[c] for c in ("i", "ii", "iii", "iv") if c in results}
    return CensusReport(q=model.q, claims=ordered)


def _exact_quotient(total: int, parts: int) -> int:
    """total / parts, which must be an integer."""
    count, rest = divmod(total, parts)
    if rest:
        raise ArithmeticError(f"{total} does not split into {parts} equal shares")
    return count


def _low(mask: int) -> int:
    """Index of the lowest set bit (-1 for 0)."""
    return (mask & -mask).bit_length() - 1


def _census_conic_planes(model: QuadricModel, u: int):
    """(examined, failures) over the triples of pairwise non-perpendicular
    points through u."""
    q = model.q
    adj = model.adjacency_masks
    examined = 0
    failures = []
    for v in iter_bits(adj[u]):
        for w in iter_bits(adj[u] & adj[v] & ~((2 << v) - 1)):
            examined += 1
            size = model.polar_section((u, v, w)).bit_count()
            if size != q + 1:
                failures.append((u, v, w, size))
    return examined, tuple(failures)


def _grid_structure_ok(model: QuadricModel, section: int) -> bool:
    """A (q+1)^2 section must carry 2(q+1) quadric lines in two parallel
    classes, every point on exactly one line of each class.

    ``section`` is the quadric part of a subspace, so the points of it
    perpendicular to a point x are the lines of the section through x.
    The lowest point must lie on exactly two lines a and b.  Through each
    point x of b must run exactly one more line, (perp[x] & section)
    minus b, and these q + 1 lines must be disjoint, so they partition
    the (q+1)^2 points; the same from a.  Any other line of the section
    would meet b in some x and be a second extra line through it, so the
    two classes hold every line.  A line of one class is not one of the
    other, so it meets each of those in at most one point, and by the
    partition in exactly one.

    The lowest point is only where the check starts: the verdict is a
    property of the section and its lines, so it is invariant under the
    certified automorphisms, which map sections, perp masks and lines onto
    sections, perp masks and lines.
    """
    perp = model.perp_masks
    lines = model.line_set
    p0 = _low(section)
    star = perp[p0] & section
    if star == 1 << p0:
        return False
    a = perp[_low(star & ~(1 << p0))] & star
    b = (star & ~a) | (1 << p0)
    if a not in lines or b not in lines:
        return False
    for transversal in (b, a):
        cover = 0
        for x in iter_bits(transversal):
            line = (perp[x] & section & ~transversal) | (1 << x)
            if line not in lines or cover & line:
                return False
            cover |= line
    return True


def _census_secant_grids(model: QuadricModel, u: int):
    """(examined, failures) over the non-perpendicular pairs through u."""
    q = model.q
    examined = 0
    failures = []
    for v in iter_bits(model.adjacency_masks[u]):
        examined += 1
        sect = model.polar_section((u, v))
        size = sect.bit_count()
        if size != (q + 1) ** 2 or not _grid_structure_ok(model, sect):
            failures.append((u, v, size))
    return examined, tuple(failures)


def _two_line_split(model: QuadricModel, section: int):
    """For a (2q+1)-point section mask: the point z perpendicular to the
    whole section plus the masks of its two lines, or None if the section
    is not of that shape.

    In that shape the points of the section perpendicular to a point x
    other than z are the line zx, and the rest plus z is the other line;
    both must be lines of the model.

    Which line comes first follows the lowest point, but whether the split
    exists, its centre and its pair of lines are properties of the section:
    a certified automorphism maps them to those of the image section.
    """
    if section.bit_count() != 2 * model.q + 1:
        return None
    centre = section & model.polar_section(iter_bits(section))
    if centre.bit_count() != 1:
        return None
    z = _low(centre)
    l1 = model.perp_masks[_low(section & ~(1 << z))] & section
    l2 = (section & ~l1) | (1 << z)
    if l1 not in model.line_set or l2 not in model.line_set:
        return None
    return z, l1, l2


def _two_line_planes(model: QuadricModel, z: int):
    """(z, p1, p2) for every two lines through the point z, with p1 and p2
    the lowest other points of the two lines."""
    rest = [model.lines[li] & ~(1 << z) for li in model.lines_through[z]]
    for m1, m2 in combinations(rest, 2):
        yield z, _low(m1), _low(m2)


def _plane_section(model: QuadricModel, polar_split) -> int:
    """The section of a plane pi from the two-line split of its polar.

    The centre and one more point on each polar line span pi^perp, and
    pi = (pi^perp)^perp, so the section is the AND of three perp masks.
    """
    z, l1, l2 = polar_split
    others = ~(1 << z)
    return model.polar_section((z, _low(l1 & others), _low(l2 & others)))


def _census_two_line_planes(model: QuadricModel, z: int, want_cycles: bool):
    """(examined, failures of iii, failures of iv) over the planes through
    two lines through z."""
    perp = model.perp_masks
    examined = 0
    failures_iii = []
    failures_iv = []
    for _, p1, p2 in _two_line_planes(model, z):
        if (perp[p1] >> p2) & 1:
            # z, p1, p2 pairwise perpendicular and singular: the plane lies
            # on the quadric, its section is never two lines
            continue
        examined += 1
        polar = model.polar_section((z, p1, p2))
        polar_split = _two_line_split(model, polar)
        ok = polar_split is not None and polar_split[0] == z
        if ok:
            plane = _plane_section(model, polar_split)
            ok = _two_line_split(model, plane) is not None and plane & polar == 1 << z
        if not ok:
            failures_iii.append((z, p1, p2))
            continue
        if want_cycles and not _is_point_plus_two_cycles(model, z, plane | polar):
            failures_iv.append((z, p1, p2))
    return examined, tuple(failures_iii), tuple(failures_iv)


def _is_point_plus_two_cycles(model: QuadricModel, z: int, union: int) -> bool:
    """Induced non-perpendicularity graph = singleton z plus two 4-cycles."""
    rest = union & ~(1 << z)
    if rest.bit_count() != 8 or rest & ~model.perp_masks[z]:
        return False
    adj = model.adjacency_masks
    if any((adj[x] & rest).bit_count() != 2 for x in iter_bits(rest)):
        return False
    comps = [c for c, _ in components(adj, rest)]
    return len(comps) == 2 and all(c.bit_count() == 4 for c in comps)
