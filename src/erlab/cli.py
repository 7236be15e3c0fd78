"""Command-line surface: machine-readable reports over the library modules.

Every subcommand emits a single JSON report (schema "er-lab/1") on standard
output.  Exit code 0 on success, 2 when a verification-style command finds a
failure, 1 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import capacity as capacity_mod
from . import constructions, core, extension, lp, oracle, search, symmetrise
from .graphs import SimpleGraph, graph_from_json, graph_to_json
from .logform import LogLinear

SCHEMA = "er-lab/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_k(text: str) -> core.ColourSeq:
    try:
        return core.validate_sequence(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad clique-order list {text!r}") from exc


def _parse_constraint(text: str) -> lp.Constraint:
    """'T=3,4:cap=3' -> sum of d_3,d_4 <= 1 - 1/(3-1)."""
    try:
        t_part, cap_part = text.split(":")
        assert t_part.startswith("T=") and cap_part.startswith("cap=")
        T = frozenset(int(x) for x in t_part[2:].split(","))
        kprime = int(cap_part[4:])
        return lp.Constraint(T, kprime)
    except (ValueError, AssertionError) as exc:
        raise UsageError(f"bad constraint {text!r}; expected T=3,4:cap=3") from exc


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_graph(path: str) -> SimpleGraph:
    try:
        return graph_from_json(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f'{path} is not a graph: it needs "n" and edges within [1, n] ({exc})') from exc


def _load_triple(path: str) -> tuple:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "k" not in obj or "r" not in obj:
        raise UsageError(f'{path} is not a pattern: it needs "k" and "r"')
    return core.triple_from_json(obj)


def render_form(form: LogLinear) -> dict:
    return {
        "symbolic": form.symbolic(),
        "decimal": f"{float(form):.15f}",
        "exact": True,
    }


def render_number(x) -> dict:
    if isinstance(x, LogLinear):
        return render_form(x)
    if isinstance(x, Fraction):
        return {"symbolic": str(x), "decimal": f"{float(x):.15f}", "exact": True}
    return {"decimal": f"{float(x):.15f}", "exact": False}


def _report(command: str, inputs: dict, results: dict, certificates=None, seconds=None):
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "certificates": certificates or [],
        "timing": None if seconds is None else {"seconds": round(seconds, 3)},
    }


def _frac_str(f) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _constraint_json(con: lp.Constraint) -> dict:
    return {"T": sorted(con.T), "kprime": con.kprime, "cap": _frac_str(con.cap)}


# --------------------------------------------------------------------------
# subcommands


def _cmd_q2(args) -> tuple:
    if args.budget < 0:
        raise UsageError(f"--budget must be >= 0, not {args.budget}")
    k = _parse_k(args.k)
    res = search.solve_Q2(k, args.rmax, budget=args.budget)
    results = {
        "best": None,
        "best_numeric": f"{res.best_numeric:.15f}",
        "optima": [core.triple_to_json(t, k) for t in res.optima],
        "exhaustive": {str(r): res.exhaustive[r] for r in sorted(res.exhaustive)},
        "nodes": res.nodes,
    }
    if res.best_value is not None and res.best_value.exact:
        results["best"] = render_form(res.best_value.log_form)
    return _report("q2", {"k": list(k.entries), "rmax": args.rmax}, results), 0


def _cmd_verify(args) -> tuple:
    triple, k = _load_triple(args.pattern)
    if args.k:
        k = _parse_k(args.k)
    claimed = core.q_value(triple)
    verdict = search.verify_candidate(triple, k, claimed)
    results = {
        "checks": verdict["checks"],
        "passed": verdict["passed"],
        "value": render_form(verdict["value"].log_form)
        if verdict["value"].exact
        else render_number(verdict["value"].numeric_value),
    }
    return (
        _report("verify", {"pattern": args.pattern, "k": list(k.entries)}, results),
        0 if verdict["passed"] else 2,
    )


def _cmd_extension(args) -> tuple:
    k = _parse_k(args.k)
    if args.opt:
        triple, _ = _load_triple(args.opt)
    else:
        triple = constructions.known_optimum(k)
        if triple is None:
            raise UsageError(f"no built-in optimum for {k}; pass --opt")
    verdict = extension.check_extension_property([triple], k)
    applicable, numcheck_holds, solutions = extension.numcheck_certificate(triple, k)
    results = {
        "holds": verdict.holds,
        "strong": verdict.strong_holds,
        "attachments": verdict.details,
        "witnesses": len(verdict.witnesses),
        "numcheck": {
            "applicable": applicable,
            "holds": numcheck_holds,
            "solutions": [list(sol) for sol in solutions],
        },
    }
    return (
        _report("extension", {"k": list(k.entries)}, results),
        0 if verdict.holds else 2,
    )


def _cmd_capacity(args) -> tuple:
    g = _load_graph(args.graph)
    cap = capacity_mod.capacity(g, args.k)
    results = {
        "graph": graph_to_json(g),
        "kind": cap.kind,
        "bound": cap.bound,
        "max_vectors": [list(v) for v in cap.max_vectors],
        "trivial": cap.is_trivial(),
    }
    return _report("capacity", {"graph": args.graph, "k": args.k}, results), 0


def _cmd_lp(args) -> tuple:
    k = _parse_k(args.k)
    if args.constraint:
        instance = lp.LPInstance(k, tuple(_parse_constraint(c) for c in args.constraint))
    elif args.bare:
        instance = lp.LPInstance(k, ())
    else:
        instance = lp.LPInstance(k, lp.recommended_constraints(k))
    sol = lp.solve_L(instance)
    results = {
        "budget": _frac_str(instance.budget),
        "constraints": [_constraint_json(c) for c in instance.constraints],
        "d": [_frac_str(x) for x in sol.d],
        "value": render_form(sol.value),
        "unique": sol.unique,
        "vertex_count": sol.vertex_count,
    }
    return _report("lp", {"k": list(k.entries)}, results), 0


def _cmd_certify(args) -> tuple:
    k = _parse_k(args.k)
    if args.construction:
        construction, _ = _load_triple(args.construction)
    else:
        construction = constructions.known_optimum(k)
        if construction is None:
            raise UsageError(f"no built-in construction for {k}; pass --construction")
    if args.constraint:
        instance = lp.LPInstance(k, tuple(_parse_constraint(c) for c in args.constraint))
    else:
        instance = None
    cert = lp.sandwich_certificate(k, construction, instance)
    cert_json = {
        "k": list(k.entries),
        "lower": render_form(cert.lower),
        "upper": render_form(cert.upper),
        "verdict": cert.verdict,
        "constraints": [_constraint_json(c) for c in cert.instance.constraints],
        "lp_d": [_frac_str(x) for x in cert.lp.d],
        "lp_unique": cert.lp.unique,
    }
    results = {"verdict": cert.verdict, "value": render_form(cert.lower)}
    return (
        _report("certify", {"k": list(k.entries)}, results, certificates=[cert_json]),
        0 if cert.verdict == "EXACT" else 2,
    )


def _cmd_oracle(args) -> tuple:
    needs = {"count": ("graph", "k"), "extremal": ("n", "k"), "blowup": ("input", "n")}[args.mode]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise UsageError(f"oracle {args.mode} needs {' and '.join(missing)}")
    if args.n is not None and args.n < 0:
        raise UsageError(f"--n must be >= 0, not {args.n}")
    k = _parse_k(args.k) if args.k else None
    if args.mode == "count":
        g = _load_graph(args.graph)
        n = oracle.count_valid_colourings(g, k)
        results = {"graph": graph_to_json(g), "count": str(n)}
        return _report("oracle-count", {"k": list(k.entries)}, results), 0
    if args.mode == "extremal":
        res = oracle.extremal_search(args.n, k)
        results = {
            "n": args.n,
            "max": str(res.maximum),
            "maximisers": [graph_to_json(g) for g in res.maximisers],
            "unique": len(res.maximisers) == 1,
            "complete_multipartite": res.all_complete_multipartite,
            "classes_examined": res.classes_examined,
        }
        return _report("oracle-extremal", {"n": args.n, "k": list(k.entries)}, results), 0
    # blowup
    triple, k_file = _load_triple(args.input)
    count = oracle.pattern_colouring_count(triple, args.n)
    results = {
        "n": args.n,
        "sizes": oracle.round_weights(triple.weighting, args.n),
        "count": str(count),
    }
    return _report("oracle-blowup", {"n": args.n, "k": list(k_file.entries)}, results), 0


def _cmd_symmetrise(args) -> tuple:
    triple, k = _load_triple(args.input)
    if args.k:
        k = _parse_k(args.k)
    traj = symmetrise.forward_symmetrise(triple, k)
    results = {
        "steps": [
            {
                "kept": s.pair[0],
                "dropped": s.pair[1],
                "q": f"{s.q:.15f}",
            }
            for s in traj.steps
        ],
        "monotone": traj.monotone,
        "q_initial": f"{traj.q_initial:.15f}",
        "q_final": f"{traj.q_final:.15f}",
        "final": core.triple_to_json(traj.final, k),
    }
    return _report("symmetrise", {"input": args.input, "k": list(k.entries)}, results), 0


def table_rows():
    """The solved cases, each pinned by a sandwich certificate."""
    seqs = []
    for kk in range(3, 7):
        for ll in range(3, kk + 1):
            seqs.append((kk, ll))
    for kk in range(3, 6):
        seqs.append((kk, kk, kk))
    seqs.append((3, 3, 3, 3))
    seqs.append((4, 4, 4, 4))
    rows = []
    for entries in seqs:
        k = core.validate_sequence(entries)
        construction = constructions.known_optimum(k)
        cert = lp.sandwich_certificate(k, construction)
        rows.append(
            {
                "k": list(k.entries),
                "value": render_form(cert.lower),
                "verdict": cert.verdict,
                "constraints": [_constraint_json(c) for c in cert.instance.constraints],
                "lp_d": [_frac_str(x) for x in cert.lp.d],
                "lp_unique": cert.lp.unique,
                "construction_r": construction.pattern.r,
            }
        )
    return rows


def _cmd_tables(args) -> tuple:
    rows = table_rows()
    results = {"rows": rows}
    ok = all(row["verdict"] == "EXACT" for row in rows)
    return _report("tables", {}, results), 0 if ok else 2


# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The `er-lab` parser, built once per process; parse_args keeps no state
    between calls."""
    parser = _Parser(prog="er-lab", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["json", "tsv"], default="json")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name):
        return sub.add_parser(name, parents=[common])

    p = add_parser("q2")
    p.add_argument("--k", required=True)
    p.add_argument("--rmax", type=int, default=4)
    p.add_argument("--budget", type=int, default=10**8)

    p = add_parser("verify")
    p.add_argument("--pattern", required=True)
    p.add_argument("--k")

    p = add_parser("extension")
    p.add_argument("--k", required=True)
    p.add_argument("--opt")

    p = add_parser("capacity")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add_parser("lp")
    p.add_argument("--k", required=True)
    p.add_argument("--constraint", action="append")
    p.add_argument("--bare", action="store_true")

    p = add_parser("certify")
    p.add_argument("--k", required=True)
    p.add_argument("--construction")
    p.add_argument("--constraint", action="append")

    p = add_parser("oracle")
    p.add_argument("mode", choices=["count", "extremal", "blowup"])
    p.add_argument("--graph")
    p.add_argument("--input")
    p.add_argument("--k")
    p.add_argument("--n", type=int)

    p = add_parser("symmetrise")
    p.add_argument("--input", required=True)
    p.add_argument("--k")

    add_parser("tables")
    return parser


_DISPATCH = {
    "q2": _cmd_q2,
    "verify": _cmd_verify,
    "extension": _cmd_extension,
    "capacity": _cmd_capacity,
    "lp": _cmd_lp,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "symmetrise": _cmd_symmetrise,
    "tables": _cmd_tables,
}


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    # tsv: one key<TAB>value line per flattened entry
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                yield from walk(f"{prefix}.{key}" if prefix else key, obj[key])
        elif isinstance(obj, list):
            for i, item in enumerate(obj):
                yield from walk(f"{prefix}[{i}]", item)
        else:
            yield prefix, obj

    for key, value in walk("", report):
        print(f"{key}\t{value}")


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        report, code = _DISPATCH[args.subcommand](args)
        if args.subcommand != "tables":
            report["timing"] = {"seconds": round(time.perf_counter() - start, 3)}
        _emit(report, args.format)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except core.ErlabError as exc:
        report = _report("error", vars(args), {"error": type(exc).__name__, "message": str(exc)})
        _emit(report, args.format)
        return 1
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output early; point it at devnull so
        # that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
