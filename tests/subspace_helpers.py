"""Pairwise incidence oracles that only the tests use: one elimination or
one form evaluation per pair, where ``src/`` answers whole relations with
point masks."""

from qktw import subspace
from qktw.subspace import Subspace, nullspace_rows


def oracle_intersect_dim(u, v):
    """dim(u ∩ v) = dim u + dim v - rank of the stacked bases, the rank by
    ``subspace._row_reduce``, which the tests check against the
    per-coordinate Gauss-Jordan."""
    return u.k + v.k - len(subspace._row_reduce(u.rows + v.rows, u.field))


def oracle_bilinear(f, x, y):
    """The polarization x0y1 + x1y0 + x2y3 + x3y2 + x4y5 + x5y4 of the
    quadric form x0x1 + x2x3 + x4x5, one scalar product at a time."""
    total = 0
    for a, b in ((0, 1), (2, 3), (4, 5)):
        total = f.add(total, f.add(f.mul(x[a], y[b]), f.mul(x[b], y[a])))
    return total


def oracle_perp_space(model, point_indices):
    """The polar subspace of the span of the given points of the model: the
    null space of their polar vectors, each read off the form at the unit
    vectors."""
    f = model.field
    units = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    rows = [[oracle_bilinear(f, model.points[i], e) for e in units] for i in point_indices]
    return Subspace(f, 6, tuple(nullspace_rows(rows, f, 6)))
