"""Generalized q-Kneser graphs K_q(n,k,t).

Vertices are the k-dimensional subspaces of F_q^n; two vertices are
adjacent when their intersection has dimension below t.  This module
builds the graphs, evaluates independence numbers, intersection
profiles, the duality isomorphism K_q(n,k,t) ~ K_q(n,n-k,n-2k+t), the
counting inequality behind the treewidth lower bound, and the verdict
that says which certified range (if any) pins an instance's treewidth.
It also maps subspaces under a few generators of GL(n,q): their maps of
the points, certified by :func:`graph.certify_collineations`, let a
census at vertex 0 stand for every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import OutOfCertifiedRangeError, SizeLimitError
from .gf import FieldSpec, make_field, primitive_element, prime_power, prime_powers_up_to
from .graph import GRAPH_MAX_VERTICES, Graph, mask_mismatches
from .qbinom import gauss_binom, range_slack_for
from .report import exact_str
from .subspace import (
    LinearMap,
    Subspace,
    enumerate_k_subspaces,
    linear_image,
    meet_masks,
    orthogonal_complement,
    subspaces_of,
)
from .treedec import TreeDecomposition, star_decomposition


@dataclass(frozen=True)
class KneserParams:
    """Parameters (q, n, k, t) with k > t >= 1 and n > 2k - t (non-empty graph)."""

    q: int
    n: int
    k: int
    t: int

    def __post_init__(self):
        prime_power(self.q)
        if not (self.k > self.t >= 1):
            raise ValueError(f"need k > t >= 1, got k={self.k}, t={self.t}")
        if not self.n > 2 * self.k - self.t:
            raise ValueError(
                f"need n > 2k - t for a non-empty graph, got n={self.n}, k={self.k}, t={self.t}"
            )

    @property
    def is_reduced(self) -> bool:
        """True when n >= 2k, the side of the duality the analysis works on."""
        return self.n >= 2 * self.k

    @property
    def dual(self) -> "KneserParams":
        """(q, n, n - k, n - 2k + t); n > 2k - t makes its t at least 1."""
        return KneserParams(self.q, self.n, self.n - self.k, self.n - 2 * self.k + self.t)

    def as_dict(self) -> dict[str, int]:
        return {"q": self.q, "n": self.n, "k": self.k, "t": self.t}


class ResultTag(str, Enum):
    """Certified ranges in which the treewidth equals the formula value."""

    SMALL_T_RANGE = "SMALL_T_RANGE"      # t <= slack(q) and n > 3k - 2t + slack(q)
    SQRT_RANGE = "SQRT_RANGE"            # t > slack(q) and n > 3k - t + 1 - 2*sqrt(t - slack(q))
    UNIFORM_RANGE = "UNIFORM_RANGE"      # n >= 3k - t + 9, any prime power
    ALL_N_RANGE = "ALL_N_RANGE"          # q >= 9 and t > k + 3 - 2*sqrt(k+2): every n >= 2k
    PRIOR_RANGE = "PRIOR_RANGE"          # n >= 2t(k - t + 1) + k + 1
    K421 = "K421"                        # (n, k, t) = (4, 2, 1), any prime power
    UPPER_BOUND_ONLY = "UPPER_BOUND_ONLY"


# -- intersection profiles --------------------------------------------------


def intersection_counts(q: int, n: int, k: int) -> dict[int, int]:
    """m_j = number of k-subspaces of F_q^n meeting a fixed k-subspace in
    dimension exactly j, for j = 0..k.

    Closed form [k,j]_q [n-k,k-j]_q q^((k-j)^2); the values always sum to
    [n,k]_q, which is re-checked here on every call.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out: dict[int, int] = {}
    for j in range(k + 1):
        if k - j > n - k:
            out[j] = 0
        else:
            out[j] = (
                gauss_binom(k, j, q)
                * gauss_binom(n - k, k - j, q)
                * q ** ((k - j) ** 2)
            )
    total = gauss_binom(n, k, q)
    if sum(out.values()) != total:
        raise ArithmeticError(
            f"intersection counts for (q={q}, n={n}, k={k}) do not sum to [n,k]_q"
        )
    return out


# -- graph construction ------------------------------------------------------


def _check_graph_size(p: KneserParams) -> None:
    """SizeLimitError when [n,k]_q passes GRAPH_MAX_VERTICES."""
    total = gauss_binom(p.n, p.k, p.q)
    if total > GRAPH_MAX_VERTICES:
        raise SizeLimitError(
            f"K_{p.q}({p.n},{p.k},{p.t}) has {total} vertices; its adjacency "
            f"masks are limited to {GRAPH_MAX_VERTICES} vertices"
        )


def build_kneser_graph(p: KneserParams) -> Graph:
    """Materialize K_q(n,k,t) with subspace labels.

    Vertices follow the lexicographic RREF order.  Non-adjacency is
    "shares a t-subspace", so a vertex's neighbours are the complement of
    its :func:`meet_masks` mask; no pair of vertices is compared.  The
    constant degree is cross-checked against the closed-form intersection
    profile.  Graphs past GRAPH_MAX_VERTICES raise SizeLimitError before
    anything is enumerated.
    """
    _check_graph_size(p)
    f = make_field(p.q)
    verts = enumerate_k_subspaces(p.n, p.k, f)
    full = (1 << len(verts)) - 1
    g = Graph.from_masks([full & ~m for m in meet_masks(verts, p.t)], labels=verts)
    expected = sum(m for j, m in intersection_counts(p.q, p.n, p.k).items() if j < p.t)
    degrees = set(g.degrees())
    if degrees != {expected}:
        raise ArithmeticError(
            f"degrees {sorted(degrees)} disagree with the profile value {expected} for {p}"
        )
    return g


# -- GL(n,q) vertex maps -------------------------------------------------------


def gl_generators(n: int, f: FieldSpec) -> list[LinearMap]:
    """Generators of GL(n,q) on row vectors, as matrix rows (row i is the
    image of e_i): the n-cycle of the coordinates, the swap of coordinates
    0 and 1, the transvection x1 += x0 and, for q > 2, diag(w, 1, ..., 1)
    with w primitive.  Nothing here is trusted:
    :func:`graph.certify_collineations` checks what they do."""
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    cycle, swap = eye[1:] + eye[:1], (eye[1], eye[0]) + eye[2:]
    gens = [cycle, swap, ((1, 1) + eye[0][2:],) + eye[1:]]
    if f.q > 2:
        gens.append(((primitive_element(f),) + eye[0][1:],) + eye[1:])
    return gens


def gl_vertex_maps(verts: Sequence[Subspace], generators: Sequence[LinearMap]) -> list[list[int]]:
    """Per linear map, the map taking a to the index of rref(a.rows · M).
    An image that is not in ``verts``, such as one of lower dimension
    under a singular map, raises ArithmeticError.  The census and the
    quadric map points with it; the tests map the k-subspaces."""
    f = verts[0].field
    index = {v: i for i, v in enumerate(verts)}
    try:
        return [[index[linear_image(m, a.rows, f)] for a in verts] for m in generators]
    except KeyError as exc:
        raise ArithmeticError(f"a map takes a vertex off the vertices, to {exc.args[0]}") from None


# -- independence ------------------------------------------------------------


def alpha_value(p: KneserParams) -> int:
    """Independence number: max([n-t,k-t]_q, [2k-t,k-t]_q).

    For j >= 1, [m,j]_q strictly increases in m, and k - t >= 1, so the
    larger side is [max(n,2k)-t, k-t]_q; only that one is computed.
    """
    return gauss_binom(max(p.n, 2 * p.k) - p.t, p.k - p.t, p.q)


def star_independent_set(p: KneserParams) -> list[Subspace]:
    """The canonical maximum independent set.

    For n >= 2k: every k-subspace containing the fixed t-subspace
    span{e_1..e_t}.  Otherwise: every k-subspace inside the fixed
    (2k-t)-subspace span{e_1..e_{2k-t}}.  Either family is independent,
    has size alpha_value(p) and comes sorted lexicographically by RREF.
    """
    f = make_field(p.q)

    def coordinate_rows(m: int) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(1 if j == i else 0 for j in range(p.n)) for i in range(m))

    if p.n < 2 * p.k:
        span = Subspace(f, p.n, coordinate_rows(2 * p.k - p.t))
        return [Subspace(f, p.n, w) for w in subspaces_of(span, p.k)]
    # e_1..e_t over a (k-t)-subspace of the other coordinates is RREF, and
    # the subspaces come in the order of those (k-t)-subspaces
    head = coordinate_rows(p.t)
    return [
        Subspace(f, p.n, head + tuple((0,) * p.t + row for row in w.rows))
        for w in enumerate_k_subspaces(p.n - p.t, p.k - p.t, f)
    ]


def kneser_star_decomposition(p: KneserParams) -> tuple[Graph, TreeDecomposition]:
    """K_q(n,k,t) together with its star decomposition on the canonical
    maximum independent set, the construction behind the upper bound."""
    g = build_kneser_graph(p)
    index = {s: i for i, s in enumerate(g.labels)}
    return g, star_decomposition(g, [index[s] for s in star_independent_set(p)])


# -- duality ------------------------------------------------------------------


@dataclass
class DualityReport:
    params: KneserParams
    dual_params: KneserParams
    vertex_count: int
    pairs_checked: int
    bijective: bool
    mismatches: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return self.bijective and not self.mismatches


def duality_isomorphism(p: KneserParams) -> DualityReport:
    """Check exhaustively that orthogonal complementation is an isomorphism
    from K_q(n,k,t) onto K_q(n,n-k,n-2k+t).

    The meet masks of the vertices (threshold t) and of their complements
    (threshold n-2k+t) are both in source order, so their XOR marks
    exactly the pairs whose adjacency the map fails to preserve.
    """
    d = p.dual
    _check_graph_size(p)
    f = make_field(p.q)
    verts = enumerate_k_subspaces(p.n, p.k, f)
    dual_verts = enumerate_k_subspaces(p.n, d.k, f)
    images = [orthogonal_complement(u) for u in verts]
    bijective = len(set(images)) == len(verts) and set(images) == set(dual_verts)
    mismatches = mask_mismatches(meet_masks(verts, p.t), meet_masks(images, d.t))
    n = len(verts)
    return DualityReport(
        params=p,
        dual_params=d,
        vertex_count=n,
        pairs_checked=n * (n - 1) // 2,
        bijective=bijective,
        mismatches=tuple(mismatches),
    )


# -- counting inequality ------------------------------------------------------


@dataclass(frozen=True)
class CountingCase:
    s: int
    lhs: int
    rhs: Fraction
    passed: bool


@dataclass
class CountingReport:
    params: KneserParams
    cases: tuple[CountingCase, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _main_range_tags(q: int, n: int, k: int, t: int) -> set[ResultTag]:
    eps = range_slack_for(q)
    tags: set[ResultTag] = set()
    if t <= eps and n > 3 * k - 2 * t + eps:
        tags.add(ResultTag.SMALL_T_RANGE)
    if t > eps:
        # n > 3k - t + 1 - 2*sqrt(t - eps), decided by exact rearrangement
        d = 3 * k - t + 1 - n
        if d < 0 or d * d < 4 * (t - eps):
            tags.add(ResultTag.SQRT_RANGE)
    return tags


def counting_inequality_check(p: KneserParams) -> CountingReport:
    """For every feasible intersection dimension s of an adjacent pair,
    report the pair-counting sum against half the independence number.

    sum_{i=max(0,2t-k)}^{s} [s,i] [k-i,t-i]^2 [n-2t+i,k-2t+i]  <=  [n-t,k-t]/2

    In the certified ranges the right side strictly dominates for every s,
    which is what rules out a small balanced separator.  Failures are
    reported, not raised.  Instances with n < 2k are analysed through
    their dual; out-of-range parameters are rejected.
    """
    reduced = p if p.is_reduced else p.dual
    q, n, k, t = reduced.q, reduced.n, reduced.k, reduced.t
    if not _main_range_tags(q, n, k, t):
        raise OutOfCertifiedRangeError(
            f"{p} is outside the certified ranges; the counting bound may fail"
        )
    alpha = gauss_binom(n - t, k - t, q)
    rhs = Fraction(alpha, 2)
    i_lo = max(0, 2 * t - k)  # least dim(T1 ∩ T2) of two t-spaces in a k-space
    # the factor of each term that does not depend on s, once per i
    weights = [
        gauss_binom(k - i, t - i, q) ** 2 * gauss_binom(n - 2 * t + i, k - 2 * t + i, q)
        for i in range(i_lo, t)
    ]
    cases = []
    for s in range(max(0, 2 * k - n), t):
        total = sum(gauss_binom(s, i, q) * weights[i - i_lo] for i in range(i_lo, s + 1))
        cases.append(CountingCase(s=s, lhs=total, rhs=rhs, passed=2 * total <= alpha))
    return CountingReport(params=reduced, cases=tuple(cases))


def counting_sweep_params(count: int = 50) -> list[KneserParams]:
    """Deterministic sweep of in-range parameter tuples, smallest graphs first.

    The candidates are the (q, n, k, t) with q <= 32, 2 <= k <= 6, t < k and
    2k <= n <= 3k + 12 inside the certified ranges, ordered by vertex count
    [n,k]_q so the sweep stays at desk scale.  A ``count`` below 1 or above
    the number of candidates raises ValueError.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    candidates = []
    for q in prime_powers_up_to(32):
        for k in range(2, 7):
            for t in range(1, k):
                for n in range(2 * k, 3 * k + 13):
                    if _main_range_tags(q, n, k, t):
                        candidates.append((gauss_binom(n, k, q), q, n, k, t))
    if count > len(candidates):
        raise ValueError(f"need count <= {len(candidates)}, the sweep's tuples, got {count}")
    candidates.sort()
    return [KneserParams(q, n, k, t) for _, q, n, k, t in candidates[:count]]


# -- verdicts -----------------------------------------------------------------


@dataclass(frozen=True)
class TreewidthVerdict:
    """What is certified about the treewidth of one instance.

    ``formula_value`` is [n,k]_q - [n-t,k-t]_q - 1 for the analysed
    (duality-reduced) parameters.  It is the exact treewidth whenever any
    tag other than UPPER_BOUND_ONLY applies; otherwise only an upper bound.
    """

    params: KneserParams
    given_params: KneserParams
    formula_value: int
    alpha: int
    upper_bound: int
    applicable: frozenset[ResultTag]
    notes: tuple[str, ...]

    @property
    def reflected(self) -> bool:
        return self.params != self.given_params

    @property
    def treewidth_pinned(self) -> bool:
        return ResultTag.UPPER_BOUND_ONLY not in self.applicable

    def to_json(self) -> dict:
        out: dict = {"params": self.params.as_dict()}
        if self.reflected:
            out["given_params"] = self.given_params.as_dict()
        # reduced parameters have n >= 2k, where alpha is [n-t,k-t]_q and
        # upper_bound equals formula_value: its text is rendered once
        formula = out["formula_value"] = exact_str(self.formula_value)
        out["alpha"] = exact_str(self.alpha)
        out["upper_bound"] = (
            formula if self.upper_bound == self.formula_value else exact_str(self.upper_bound)
        )
        out["applicable"] = sorted(tag.value for tag in self.applicable)
        out["treewidth_pinned"] = self.treewidth_pinned
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def treewidth_verdict(p: KneserParams) -> TreewidthVerdict:
    """Decide which certified ranges apply to (q, n, k, t).

    Instances with n < 2k are reflected through the duality first and the
    verdict reports the reflected parameters.  Square-root thresholds are
    decided by exact integer rearrangement, never floating point.  When no
    range applies the verdict claims only the upper bound.
    """
    given = p
    notes: list[str] = []
    if not p.is_reduced:
        p = p.dual
        notes.append(
            f"parameters reflected through duality from (q={given.q}, n={given.n}, "
            f"k={given.k}, t={given.t})"
        )
    q, n, k, t = p.q, p.n, p.k, p.t
    tags = _main_range_tags(q, n, k, t)
    if n >= 3 * k - t + 9:
        tags.add(ResultTag.UNIFORM_RANGE)
    if q >= 9 and (k + 3 - t) ** 2 < 4 * (k + 2):
        # t > k + 3 - 2*sqrt(k+2); k + 3 - t >= 4 > 0, so squaring is valid
        tags.add(ResultTag.ALL_N_RANGE)
    if n >= 2 * t * (k - t + 1) + k + 1:
        tags.add(ResultTag.PRIOR_RANGE)
    if (n, k, t) == (4, 2, 1):
        tags.add(ResultTag.K421)
    if not tags:
        tags = {ResultTag.UPPER_BOUND_ONLY}
        notes.append("no certified range applies; formula_value is an upper bound only")
    total = gauss_binom(n, k, q)
    alpha = alpha_value(p)
    formula = total - gauss_binom(n - t, k - t, q) - 1
    return TreewidthVerdict(
        params=p,
        given_params=given,
        formula_value=formula,
        alpha=alpha,
        upper_bound=total - alpha - 1,
        applicable=frozenset(tags),
        notes=tuple(notes),
    )
