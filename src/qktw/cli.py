"""Command-line interface.

Subcommands:
  gen          build K_q(n,k,t) or the quadric graph, write .gr (+ label file)
  verdict      print the treewidth verdict JSON for (q,n,k,t)
  alpha        independence number: formula and (budget permitting) exact search
  td-build     star decomposition from the canonical independent set, write .td
  td-validate  validate a .td against a .gr, print width and violations
  tw-exact     exact treewidth of a small .gr input (the decision DP, and the
               subset DP where the decision DP runs out of budget)
  verify       run one named verification suite, emit a JSON report
  verify-all   the full verification matrix

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or parse error,
3 budget or size limit exceeded.

Each request is parsed once: arguments that start with a known subcommand
go straight to that subcommand's parser, and only the rest (no arguments,
a leading option, an unknown command) go through the top-level parser.
Both routes give the same namespace, help, usage and error text.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from .errors import BudgetExceededError, SizeLimitError
from .exact import (
    MIS_VERTEX_CAP,
    TREEWIDTH_NODE_BUDGET,
    TREEWIDTH_VERTEX_CAP,
    SolveBudget,
    mis_exact,
    treewidth_by_decision,
    treewidth_exact,
)
from .gf import is_prime_power
from .kneser import (
    KneserParams,
    alpha_value,
    build_kneser_graph,
    kneser_star_decomposition,
    treewidth_verdict,
)
from .quadric import build_quadric_graph
from .report import exact_str, verify_all_json
from .suites import SUITE_NAMES, SUITES, verify_all
from .treedec import (
    pace_read_gr,
    pace_read_td,
    pace_write_gr,
    pace_write_td,
    validate_td,
    write_labels,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _vertex_budget(text: str) -> int:
    """argparse type of ``--max-vertices``: a negative budget is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-q", type=int, required=True, help="field order (prime power)")
    sub.add_argument("-n", type=int, required=True, help="ambient dimension")
    sub.add_argument("-k", type=int, required=True, help="subspace dimension")
    sub.add_argument("-t", type=int, required=True, help="intersection threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qktw",
        description="Treewidth verification toolkit for generalized q-Kneser graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # ``run`` parses a known command's arguments with its parser alone
    parser.commands = sub.choices

    gen = sub.add_parser("gen", help="build a graph and write it in .gr format")
    gen.add_argument("-q", type=int, required=True)
    gen.add_argument("-n", type=int)
    gen.add_argument("-k", type=int)
    gen.add_argument("-t", type=int)
    gen.add_argument("--quadric", action="store_true", help="build the quadric model instead")
    gen.add_argument("-o", "--output", required=True, help="output .gr path")
    gen.add_argument("--labels", help="label file path (default: <output>.labels)")

    verdict = sub.add_parser("verdict", help="treewidth verdict for (q,n,k,t)")
    _add_params(verdict)
    verdict.add_argument("-o", "--output", help="also write the JSON to a file")

    alpha = sub.add_parser("alpha", help="independence number, formula vs exact")
    _add_params(alpha)
    alpha.add_argument("--max-vertices", type=_vertex_budget, default=MIS_VERTEX_CAP)

    tdb = sub.add_parser("td-build", help="write the star decomposition as .td")
    _add_params(tdb)
    tdb.add_argument("-o", "--output", required=True, help="output .td path")
    tdb.add_argument("--gr", help="also write the graph to this .gr path")

    tdv = sub.add_parser("td-validate", help="validate a .td against a .gr")
    tdv.add_argument("graph", help="input .gr path")
    tdv.add_argument("decomposition", help="input .td path")

    twe = sub.add_parser("tw-exact", help="exact treewidth of a small .gr input")
    twe.add_argument("graph", help="input .gr path")
    twe.add_argument("-o", "--output", help="write the optimal decomposition here")
    twe.add_argument("--max-vertices", type=_vertex_budget, default=TREEWIDTH_VERTEX_CAP)

    ver = sub.add_parser("verify", help="run one verification suite")
    ver.add_argument("suite", choices=SUITE_NAMES)
    ver.add_argument("-q", type=int, default=None, help="restrict to one field order")
    ver.add_argument("--tuples", type=int, default=None, help="counting sweep size (default 50)")
    ver.add_argument(
        "--claims",
        type=lambda text: tuple(text.split(",")),
        default=None,
        help="comma-separated census claims (i,ii,iii,iv)",
    )
    ver.add_argument("-o", "--output", help="write the JSON report here")

    vall = sub.add_parser("verify-all", help="run the full verification matrix")
    vall.add_argument("-o", "--output", help="write the JSON report here")

    return parser


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if output:
        Path(output).write_text(text + "\n")


def _cmd_gen(args) -> int:
    nkt = (args.n, args.k, args.t)
    if args.quadric:
        if nkt != (None, None, None):
            print("gen: -n, -k, -t do not apply to --quadric", file=sys.stderr)
            return EXIT_USAGE
        g = build_quadric_graph(args.q)
    else:
        if None in nkt:
            print("gen: -n, -k, -t are required unless --quadric is given", file=sys.stderr)
            return EXIT_USAGE
        g = build_kneser_graph(KneserParams(args.q, *nkt))
    pace_write_gr(g, args.output)
    write_labels(g, args.labels or f"{args.output}.labels")
    print(f"wrote {g.n} vertices / {g.edge_count} edges to {args.output}")
    return EXIT_OK


def _cmd_verdict(args) -> int:
    v = treewidth_verdict(KneserParams(args.q, args.n, args.k, args.t))
    _emit(v.to_json(), args.output)
    return EXIT_OK


def _cmd_alpha(args) -> int:
    p = KneserParams(args.q, args.n, args.k, args.t)
    formula = alpha_value(p)
    payload: dict = {"params": p.as_dict(), "formula": exact_str(formula)}
    from .qbinom import gauss_binom

    vertex_count = gauss_binom(p.n, p.k, p.q)
    if vertex_count <= args.max_vertices:
        g = build_kneser_graph(p)
        size, witness = mis_exact(g, SolveBudget(max_vertices=args.max_vertices))
        payload["exact"] = str(size)
        payload["agree"] = size == formula
        payload["within_budget"] = True
    else:
        payload["exact"] = None
        payload["agree"] = None
        payload["within_budget"] = False
    _emit(payload, None)
    if payload["agree"] is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_td_build(args) -> int:
    g, td = kneser_star_decomposition(KneserParams(args.q, args.n, args.k, args.t))
    pace_write_td(td, g.n, args.output)
    if args.gr:
        pace_write_gr(g, args.gr)
    print(f"wrote {td.node_count} bags, width {td.width()}, to {args.output}")
    return EXIT_OK


def _cmd_td_validate(args) -> int:
    g = pace_read_gr(args.graph)
    td, declared_n = pace_read_td(args.decomposition)
    rep = validate_td(g, td)
    payload = {
        "graph_vertices": g.n,
        "declared_vertices": declared_n,
        "width": rep.width,
        "valid": rep.passed and declared_n == g.n,
        "tree_problems": list(rep.tree_problems),
        "foreign_vertices": [list(x) for x in rep.foreign_vertices],
        "uncovered_edges": [list(x) for x in rep.uncovered_edges],
        "missing_vertices": list(rep.missing_vertices),
        "broken_vertices": list(rep.broken_vertices),
    }
    _emit(payload, None)
    return EXIT_OK if payload["valid"] else EXIT_CHECK_FAILED


def _cmd_tw_exact(args) -> int:
    g = pace_read_gr(args.graph)
    # Both solvers take one budget.  The decision path's node count is known
    # only as it runs; where it runs out, the subset DP, which refuses before
    # solving a graph whose 2^n - 1 subsets (one node each) pass the node
    # limit, takes over, and where that refuses too, the decision path's
    # refusal is the one reported.
    budget = SolveBudget(max_vertices=args.max_vertices, node_limit=TREEWIDTH_NODE_BUDGET)
    try:
        solved = treewidth_by_decision(g, budget)
    except BudgetExceededError as refused:
        try:
            solved = treewidth_exact(g, budget)
        except BudgetExceededError:
            raise refused from None
    tw, td = solved
    if args.output:
        pace_write_td(td, g.n, args.output)
    _emit({"vertices": g.n, "treewidth": tw, "bags": td.node_count}, None)
    return EXIT_OK


# The optional ``verify`` arguments, each passed to the suite under its own
# name when given; a suite whose signature lacks the name refuses it.
_SUITE_OPTIONS = (("q", "-q"), ("claims", "--claims"), ("tuples", "--tuples"))


def _verify_usage_error(args) -> str | None:
    """Why the optional arguments do not fit ``args.suite``, or None."""
    accepted = inspect.signature(SUITES[args.suite]).parameters
    for name, flag in _SUITE_OPTIONS:
        if getattr(args, name) is not None and name not in accepted:
            return f"{flag} does not apply to the {args.suite} suite"
    if args.tuples is not None and args.tuples < 1:
        return f"--tuples must be at least 1, got {args.tuples}"
    if args.q is not None and not is_prime_power(args.q):
        return f"-q must be a prime power, got {args.q}"
    return None


def _cmd_verify(args) -> int:
    problem = _verify_usage_error(args)
    if problem:
        print(f"verify: {problem}", file=sys.stderr)
        return EXIT_USAGE
    kwargs = {
        name: value for name, _ in _SUITE_OPTIONS if (value := getattr(args, name)) is not None
    }
    report = SUITES[args.suite](**kwargs)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_verify_all(args) -> int:
    payload = verify_all_json(verify_all())
    _emit(payload, args.output)
    return EXIT_OK if payload["summary"]["failed"] == 0 else EXIT_CHECK_FAILED


_DISPATCH = {
    "gen": _cmd_gen,
    "verdict": _cmd_verdict,
    "alpha": _cmd_alpha,
    "td-build": _cmd_td_build,
    "td-validate": _cmd_td_validate,
    "tw-exact": _cmd_tw_exact,
    "verify": _cmd_verify,
    "verify-all": _cmd_verify_all,
}


# Built by the first ``run`` call and reused by later ones in the process;
# importing the module builds nothing.  ``run`` skips the top-level parse
# for a known subcommand: that parse classifies every argument and then
# hands them all to the subcommand's parser, which parses them again.
_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def run(argv: list[str]) -> int:
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except (BudgetExceededError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
