"""Seeded inputs and expected values, made without importing qktw.

Everything the passes compare against is computed here with the
benchmark's own arithmetic: Gaussian binomials by the integer product
formula, duality reflection, the certified-range predicates, and vertex
counts.  Inputs for one (workload, seed) pair are the same on every run.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from decimal import Decimal
from pathlib import Path

KNESER_CORPUS = ((2, 5, 2, 1), (2, 5, 3, 2), (3, 4, 2, 1), (4, 4, 2, 1), (5, 4, 2, 1), (2, 6, 3, 2))
QUADRIC_ORDERS = (2, 3, 4, 5)

# (kind, n, edge probability, count).  Stratified so that every seed does
# nearly the same work: the seed only draws the edges, and the time goes
# to many mid-sized requests whose cost varies little between graphs of
# the same (n, p).  One graph's cost varies by about 10% for tw-exact at
# n = 14, 12% at n = 12-13 and 4% at n = 12, p = 0.8; by 40% for
# separators at p = 0.5 and 12% at p >= 0.7, so most of them are dense.
# Larger graphs cost more and vary more (tw at n = 15-16 by 12-23%,
# separators at n = 18, p = 0.5 by 47%), so tw-exact stays at n <= 14
# and separators at n <= 15.  MIS stays at densities where branch and
# bound is steady (p >= 0.4).
EXACT_PLAN = (
    ("tw", 8, 0.2, 1), ("tw", 8, 0.35, 1), ("tw", 8, 0.5, 1), ("tw", 8, 0.65, 1),
    ("tw", 10, 0.2, 1), ("tw", 10, 0.35, 1), ("tw", 10, 0.5, 1), ("tw", 10, 0.65, 1),
    ("tw", 12, 0.35, 4), ("tw", 12, 0.5, 4), ("tw", 12, 0.65, 4), ("tw", 12, 0.8, 20),
    ("tw", 13, 0.5, 6), ("tw", 13, 0.65, 6), ("tw", 14, 0.65, 1),
    ("sep", 12, 0.5, 2), ("sep", 14, 0.5, 1), ("sep", 14, 0.8, 8), ("sep", 15, 0.7, 2),
    ("mis", 100, 0.4, 3), ("mis", 150, 0.5, 3),
)
ORACLE_MAX_N = 8

FORMULA_REQUESTS = 2000
FORMULA_K = range(2, 31)
FORMULA_N_EXTRA = 60
# a verdict whose values have more digits than this exits 2 under the
# interpreter's default int-to-str limit (ROADMAP item D); the sweep stays
# within it so that no operation is expected to fail
FORMULA_MAX_DIGITS = sys.int_info.default_max_str_digits


def prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


# all prime powers up to 64 plus every fourth prime in (64, 251]
FORMULA_QS = tuple(prime_powers(64)) + tuple(
    q for q in prime_powers(251) if q > 64 and all(q % d for d in range(2, q)))[::4]


def gauss(n: int, k: int, q: int) -> int:
    """[n,k]_q by the integer product formula."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"[{n},{k}]_{q} is not an integer")
    return value


def reduced(q: int, n: int, k: int, t: int) -> tuple[int, int, int, int]:
    """Reflect n < 2k through the duality K_q(n,k,t) ~ K_q(n,n-k,n-2k+t)."""
    return (q, n, n - k, n - 2 * k + t) if n < 2 * k else (q, n, k, t)


def formula(q: int, n: int, k: int, t: int) -> int:
    q, n, k, t = reduced(q, n, k, t)
    return gauss(n, k, q) - gauss(n - t, k - t, q) - 1


def exact_text(x: int) -> str:
    """Decimal digits of x without the interpreter's int-to-str limit."""
    return str(Decimal(x))


def sha(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def main_range_tags(q: int, n: int, k: int, t: int) -> list[str]:
    """The counting-argument ranges, on the reduced parameters."""
    q, n, k, t = reduced(q, n, k, t)
    eps = 9 if q == 2 else 3 if q == 3 else 2 if q == 4 else 1 if q <= 8 else 0
    tags = []
    if t <= eps and n > 3 * k - 2 * t + eps:
        tags.append("SMALL_T_RANGE")
    if t > eps:
        d = 3 * k - t + 1 - n
        if d < 0 or d * d < 4 * (t - eps):
            tags.append("SQRT_RANGE")
    return tags


def _write_gr(path: Path, n: int, edges) -> None:
    lines = [f"p tw {n} {len(edges)}"] + [f"{u + 1} {v + 1}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _graph_build(seed: int, work: Path) -> dict:
    # the corpus is fixed: the seed does not change it
    kneser = []
    for q, n, k, t in KNESER_CORPUS:
        kneser.append(
            {"params": [q, n, k, t], "vertices": gauss(n, k, q), "width": formula(q, n, k, t)}
        )
    quadric = [
        {"q": q, "vertices": (q * q + 1) * (q * q + q + 1), "width": formula(q, 4, 2, 1)}
        for q in QUADRIC_ORDERS
    ]
    return {"kneser": kneser, "quadric": quadric}


def _exact_solvers(seed: int, work: Path) -> dict:
    rng = random.Random(f"exact-solvers/{seed}")
    requests = []
    for kind, n, p, count in EXACT_PLAN:
        for _ in range(count):
            edges = _gnp(rng, n, p)
            name = f"{len(requests):02d}-{kind}-n{n}.gr"
            _write_gr(work / name, n, edges)
            requests.append({
                "kind": kind, "n": n, "file": name, "edges": edges,
                "oracle": kind == "tw" and n <= ORACLE_MAX_N,
            })
    return {"requests": requests}


def verdict_request(q: int, n: int, k: int, t: int) -> dict:
    """One verdict request with the values its answer is checked against."""
    rq, rn, rk, rt = reduced(q, n, k, t)
    total = gauss(rn, rk, q)
    alpha = max(gauss(rn - rt, rk - rt, q), gauss(2 * rk - rt, rk - rt, q))
    text = exact_text(total - gauss(rn - rt, rk - rt, q) - 1)
    return {
        "params": [q, n, k, t],
        "reduced": [rq, rn, rk, rt],
        "formula_sha256": sha(text),
        # the verdict renders formula_value, alpha and upper_bound
        "max_digits": max(len(text), len(exact_text(alpha)), len(exact_text(total - alpha - 1))),
        "ranges": main_range_tags(q, n, k, t),
    }


def _formula_sweep(seed: int, work: Path) -> dict:
    # (q, k) follow a fixed schedule covering every pair; the seed draws
    # t < k and n from 2k - t + 1 (reflected through duality when n < 2k)
    # to 2k + 60, drawn again while a value would pass FORMULA_MAX_DIGITS
    rng = random.Random(f"formula-sweep/{seed}")
    qs, ks = FORMULA_QS, list(FORMULA_K)
    requests = []
    for i in range(FORMULA_REQUESTS):
        q = qs[(7 * i) % len(qs)]
        k = ks[i % len(ks)]
        while True:
            t = rng.randint(1, k - 1)
            n = rng.randint(2 * k - t + 1, 2 * k + FORMULA_N_EXTRA)
            req = verdict_request(q, n, k, t)
            if req["max_digits"] <= FORMULA_MAX_DIGITS:
                break
        requests.append(req)
    return {"requests": requests}


_MAKERS = {
    "verify-matrix": lambda seed, work: {},  # verify-all takes no inputs
    "graph-build": _graph_build,
    "exact-solvers": _exact_solvers,
    "formula-sweep": _formula_sweep,
}


def make_inputs(workload: str, seed: int, work: Path) -> Path:
    """Write the inputs of one run into ``work``; returns the manifest path."""
    manifest = {"workload": workload, "seed": seed, **_MAKERS[workload](seed, work)}
    path = work / "inputs.json"
    path.write_text(json.dumps(manifest))
    return path
