"""Command-line front end.

JSON goes to stdout (or --out); a one-line human summary goes to stderr.
Exit codes: 0 success (and "free" for verify), 1 witness found (verify),
2 usage error, 3 budget exceeded, 4 internal limit (dimension/enumeration cap).
All counts in JSON are decimal strings; densities are exact num/den pairs.

Each verb imports the modules it runs inside its handler, and main builds the
arguments of the requested verb only, so a command loads no module it does
not use: process start-up is most of a short command's time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from ._kernels import backend_name
from ._version import __version__
from .errors import (
    BadRange,
    BudgetExceeded,
    CubeError,
    DimensionTooLarge,
    EnumerationTooLarge,
)
from .zwords import ZTable, count_z_words, iter_z_words

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_LIMIT = 4


# ---------------------------------------------------------------------------
# verb handlers: each returns (exit_code, payload, summary)

def _cmd_count(args):
    from .core import load_subgraph
    from .counting import count_report
    from .patterns import parse_pattern

    pattern = parse_pattern(args.pattern)
    g = load_subgraph(args.input) if args.input else None
    rep = count_report(args.n, pattern, g=g, z=ZTable(args.z_cache or None),
                       threads=args.threads)
    return EXIT_OK, rep.to_json_dict(), f"{rep.count} {rep.pattern} in " + (
        f"{args.input}" if args.input else f"Q_{rep.n}") + f" ({rep.method})"


def _cmd_zl(args):
    ell = args.l
    k = args.k if args.k is not None else ell
    value = ZTable(args.z_cache or None).get(k, ell)
    payload = {"k": k, "l": ell, "value": str(value), "method": "words"}
    return EXIT_OK, payload, f"z({k},{ell}) = {value} [words]"


def _cmd_zwords(args):
    ell = args.l
    words = None if args.count_only else iter_z_words(ell)  # refuses a long list before counting
    count = count_z_words(ell)
    payload = {"l": ell, "count": str(count)}
    if words is not None:
        payload["words"] = [list(w) for w in words]
    return EXIT_OK, payload, f"|Z({ell})| = {count}"


def _cmd_construct(args):
    from .constructions import CONSTRUCT_PARAMS, ConstructionSpec
    from .core import save_subgraph

    params = {name: getattr(args, name) for name in CONSTRUCT_PARAMS
              if getattr(args, name) is not None}
    spec = ConstructionSpec(args.kind, params)
    g = spec.build()
    save_subgraph(g, args.out)
    sidecar = {
        "construction": spec.kind,
        "params": params,
        "edge_count": g.edge_count,
        "claimed_free_of": spec.claimed_free_of(),
    }
    with open(args.out + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK, sidecar, f"{spec.kind}: {g.edge_count} edges -> {args.out}"


def _cmd_verify(args):
    from .core import load_subgraph
    from .patterns import parse_pattern
    from .verification import is_pattern_free

    pattern = parse_pattern(args.forbid)
    verdict = is_pattern_free(load_subgraph(args.path), pattern)
    witness = verdict.witness
    payload = {
        "forbid": str(pattern),
        "free": verdict.free,
        "witness": None if witness is None else witness.to_json_dict(),
        "checked_count": verdict.checked_count,
    }
    if verdict.free:
        return EXIT_OK, payload, f"{args.path} is {pattern}-free"
    return EXIT_WITNESS, payload, f"{pattern} found: {witness}"


def _search(args, method="auto"):
    """The search the arguments name, and its report headed by n, target and forbid."""
    from .patterns import parse_pattern
    from .search import exact_extremal

    target, forbid = parse_pattern(args.target), parse_pattern(args.forbid)
    result = exact_extremal(args.n, target, forbid, budget_nodes=args.budget_nodes,
                            budget_seconds=args.budget_seconds, method=method)
    return result, {"n": args.n, "target": str(target), "forbid": str(forbid),
                    **result.to_json_dict()}


def _cmd_search(args):
    from .core import save_subgraph

    result, payload = _search(args, args.method)
    if args.witness_out:
        save_subgraph(result.witness, args.witness_out)
    return EXIT_OK, payload, (
        f"ex(Q_{args.n}, {payload['target']}, {payload['forbid']}) = {result.value} "
        f"({result.nodes_explored} nodes)")


def _cmd_density(args):
    result, report = _search(args)
    keys = ("n", "target", "forbid", "value", "ambient_total", "density")
    return EXIT_OK, {key: report[key] for key in keys}, (
        f"d(Q_{args.n}, {report['target']}, {report['forbid']}) = {result.density}")


#: NUM/DEN or [-]D[.D] in ASCII digits, which Fraction() takes as it is; alone it
#: would also take exponents (1e99999999999 never finishes), `1_000` and other digits
EXACT_GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+|(\.[0-9]+)?)")


def _parse_exact(text: str):
    """The Fraction `text` names, if EXACT_GRAMMAR takes it."""
    from fractions import Fraction

    # 4300 characters keep the report's num and den within str()'s 4300 digits
    if len(text) <= 4300 and EXACT_GRAMMAR.fullmatch(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    raise BadRange(f"--exact needs NUM/DEN or a decimal, got {text!r}")


def _cmd_bounds(args):
    from .bounds import bound_sandwich_report, catalog_row, eval_bound

    params = {name: getattr(args, name) for name in ("n", "k", "l")
              if getattr(args, name) is not None}
    z = ZTable(args.z_cache or None)
    if args.exact is not None:
        payload = bound_sandwich_report(args.theorem, params, z=z,
                                        exact=_parse_exact(args.exact))
        return EXIT_OK, payload, f"{args.theorem.upper()} sandwich report"
    summary = f"{args.theorem.upper()} evaluated"
    if args.side != "both":
        return EXIT_OK, eval_bound(args.theorem, args.side, params, z=z).to_json_dict(), summary
    tid, row = catalog_row(args.theorem)
    bounds = [eval_bound(tid, side, params, z=z).to_json_dict() for side in row.sides]
    return EXIT_OK, {"theorem": tid, "bounds": bounds}, summary


def _cmd_kpartite(args):
    from .core import load_subgraph
    from .verification import has_k_partite_representation

    g = load_subgraph(args.path)
    sigma = has_k_partite_representation(g, args.k)
    payload = {
        "k": args.k,
        "ell": g.n,
        "exists": sigma is not None,
        "sigma": None if sigma is None else list(sigma),
    }
    note = "exists" if sigma is not None else "does not exist"
    return EXIT_OK, payload, f"{args.k}-partite representation {note}"


# ---------------------------------------------------------------------------

def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, with the arguments of `verb` only (of all verbs
    when it is None): a verb's subparser is listed with its help either way."""
    parser = argparse.ArgumentParser(
        prog="cubeturan",
        description="Exact subcube/cycle counting, constructions, freeness "
                    "certification, small-n extremal search and bound evaluation "
                    "for subgraphs of the hypercube.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__} (kernel: {backend_name()})")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, summary, handler):
        """The subparser of `name`, or None when its arguments are not built."""
        p = sub.add_parser(name, help=summary)
        if verb not in (None, name):
            return None
        p.set_defaults(handler=handler)
        return p

    def common(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=int,
                       default=max(1, os.cpu_count() or 1),
                       help="worker threads, used only by the DFS counts of c8 and longer "
                            "(results are thread-count independent)")

    def z_cache(p):  # only the verbs that read z values
        p.add_argument("--z-cache", help="z-table cache file")

    if p := add("count", "count a pattern in Q_n or in a subgraph file", _cmd_count):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--pattern", required=True, help="e, q<k> or c<m>")
        p.add_argument("--input", help="subgraph file; omit to count in Q_n itself")
        common(p)
        z_cache(p)

    if p := add("zl", "z_{k,l}: cycles in Q_k using all k positions", _cmd_zl):
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--method", choices=("enum", "words"), default="enum",
                       help="both name the one route: count words through the z-table "
                            "and --z-cache; kept so that existing invocations work")
        common(p)
        z_cache(p)

    if p := add("zwords", "the word set Z(l) and its cardinality", _cmd_zwords):
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--count-only", action="store_true")
        common(p)

    if p := add("construct", "emit a known construction as a subgraph file", _cmd_construct):
        from .constructions import CONSTRUCT_PARAMS, KINDS

        p.add_argument("kind", choices=KINDS)
        for name, switch in CONSTRUCT_PARAMS.items():
            if switch:  # None when absent, so that only given parameters reach the spec
                p.add_argument("--" + name.replace("_", "-"), action="store_true", default=None)
            else:
                p.add_argument("--" + name, type=int,
                               required=all(name in row.needs for row in KINDS.values()))
        p.add_argument("--out", required=True, help="subgraph file to write")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=int, default=max(1, os.cpu_count() or 1))

    if p := add("verify", "exhaustively check a subgraph file for a forbidden pattern",
                _cmd_verify):
        p.add_argument("--forbid", required=True, help="q<k> or c<m>")
        p.add_argument("path")
        common(p)

    if p := add("search", "exact optimum of the constrained pattern count", _cmd_search):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--forbid", required=True)
        p.add_argument("--budget-nodes", type=int)
        p.add_argument("--budget-seconds", type=float)
        p.add_argument("--method", choices=("auto", "exhaustive"), default="auto")
        p.add_argument("--witness-out", help="write the extremal subgraph here")
        common(p)

    if p := add("density", "exact extremal density", _cmd_density):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--forbid", required=True)
        p.add_argument("--budget-nodes", type=int)
        p.add_argument("--budget-seconds", type=float)
        common(p)

    if p := add("bounds", "evaluate a catalog bound (T1..T7, A6, A7)", _cmd_bounds):
        p.add_argument("--theorem", required=True)
        p.add_argument("--side", choices=("lower", "upper", "both"), default="both")
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--l", type=int)
        p.add_argument("--exact", help="measured density NUM/DEN for a sandwich report")
        common(p)
        z_cache(p)

    if p := add("kpartite", "search for a k-partite representation of an edge set",
                _cmd_kpartite):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("path")
        common(p)

    return parser


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, ";".join(json.dumps(v) if isinstance(v, (dict, list)) else str(v)
                                      for v in value)))
    else:
        rows.append((prefix, "" if value is None else str(value)))


def _render(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        rows: list = []
        _flatten("", payload, rows)
        return "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_error(exc: Exception) -> None:
    blob = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, BudgetExceeded):
        blob["lower"] = str(exc.lower)
        blob["upper"] = str(exc.upper)
        blob["nodes_explored"] = exc.nodes_explored
    print(json.dumps(blob, indent=2, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # -h and --version, the only options before the verb, take no value, so the
    # verb is the first other token; with none, no verb's arguments are built
    verb = next((token for token in argv if not token.startswith("-")), "")
    args = build_parser(verb).parse_args(argv)
    # --out of construct is the subgraph file; its report goes to stdout
    out_path = None if args.verb == "construct" else args.out
    try:
        code, payload, summary = args.handler(args)
        text = _render(payload, args.format)
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except BudgetExceeded as exc:
        _emit_error(exc)
        return EXIT_BUDGET
    except (DimensionTooLarge, EnumerationTooLarge) as exc:
        _emit_error(exc)
        return EXIT_LIMIT
    except (CubeError, OSError) as exc:
        _emit_error(exc)
        return EXIT_USAGE
    if not out_path:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
