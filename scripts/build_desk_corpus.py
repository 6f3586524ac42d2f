#!/usr/bin/env python3
"""Generate the desk-scale graph corpus: .gr files, label files, and the
star decompositions, for the instances whose treewidth values the suite
certifies end to end.

Usage:  python scripts/build_desk_corpus.py [output-dir]   (default: data/)
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qktw.kneser import (  # noqa: E402
    KneserParams,
    kneser_star_decomposition,
    treewidth_verdict,
)
from qktw.quadric import build_quadric_graph  # noqa: E402
from qktw.treedec import pace_write_gr, pace_write_td, write_labels  # noqa: E402

INSTANCES = [(2, 4, 2, 1), (2, 5, 2, 1), (3, 4, 2, 1), (2, 5, 3, 2)]
QUADRIC_ORDERS = [2, 3]


def main() -> int:
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("data")
    out.mkdir(parents=True, exist_ok=True)
    for q, n, k, t in INSTANCES:
        p = KneserParams(q, n, k, t)
        name = f"kneser-q{q}-n{n}-k{k}-t{t}"
        g, td = kneser_star_decomposition(p)
        pace_write_gr(g, out / f"{name}.gr")
        write_labels(g, out / f"{name}.labels")
        pace_write_td(td, g.n, out / f"{name}.td")
        verdict = treewidth_verdict(p)
        print(
            f"{name}: {g.n} vertices, star width {td.width()}, "
            f"formula {verdict.formula_value}, tags {sorted(t.value for t in verdict.applicable)}"
        )
    for q in QUADRIC_ORDERS:
        g = build_quadric_graph(q)
        name = f"quadric-q{q}"
        pace_write_gr(g, out / f"{name}.gr")
        write_labels(g, out / f"{name}.labels")
        print(f"{name}: {g.n} vertices, degree {g.degree(0)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
