"""Record the reference answers of every benchmark operation.

    python3 bench/make_reference.py

Runs each workload's operations once with the current sources and writes
the frozen fields of every report to ``bench/reference.json``.  Seeded
inputs are covered by isomorphism class: capacity strata list every class,
and the random count graphs are answered for every class of their stratum.
Takes a few minutes.  Rerun only when a change is meant to alter results,
and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from checking import canonical_graph, frozen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def graph_classes(n: int, m: int) -> list:
    """One canonical edge list per isomorphism class of (n, m) graphs."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if 2 * m > len(pairs):
        return sorted(
            canonical_form(n, [p for p in pairs if p not in set(edges)])
            for _, edges in graph_classes(n, len(pairs) - m)
        )
    level = {canonical_graph(n, [])[0]: []}
    for _ in range(m):
        nxt = {}
        for edges in level.values():
            for p in pairs:
                if p not in edges:
                    code, edges2 = canonical_form(n, edges + [p])
                    nxt.setdefault(code, edges2)
        level = nxt
    return sorted(level.items())


def canonical_form(n: int, edges) -> tuple[int, list]:
    code, perm = canonical_graph(n, edges)
    return code, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def clique_number(n: int, edges) -> int:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 1 if n else 0
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if len(members) > best and all(adj[v] | 1 << v | mask == adj[v] | 1 << v for v in members):
            best = len(members)
    return best


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import erlab.cli  # noqa: F401
    from workloads import CAPACITY_STRATA, COUNT_STRATA, WORKLOADS, Op, Workload, _graph_json, run_op

    classes = {
        f"{n}:{m}": [[code, edges, clique_number(n, edges)] for code, edges in graph_classes(n, m)]
        for n, m in CAPACITY_STRATA
    }
    ops = {}

    def record(outcome):
        if outcome.error is not None:
            raise SystemExit(f"{outcome.op.key} raised:\n{outcome.error}")
        report = outcome.report()
        ops[outcome.op.key] = {
            "kind": outcome.op.kind,
            "code": outcome.code,
            "fields": frozen(outcome.op.kind, report, outcome.op.labels),
        }

    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as workdir:
        for name in WORKLOADS:
            for outcome in Workload(name, 0, workdir, {"classes": classes}).run_pass():
                if outcome.op.kind != "count":
                    record(outcome)
            print(f"recorded {name}", flush=True)
        for n, m, k in COUNT_STRATA:
            for code, edges in graph_classes(n, m):
                path = os.path.join(workdir, "count.json")
                with open(path, "w") as fh:
                    json.dump(_graph_json(n, edges), fh)
                op = Op("count", f"count n={n} k={k} code={code}", ["oracle", "count", "--graph", path, "--k", k])
                record(run_op(op))
            print(f"recorded count stratum n={n} m={m}", flush=True)
    with open(os.path.join(BENCH_DIR, "reference.json"), "w") as fh:
        json.dump({"classes": classes, "ops": ops}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(ops)} reference answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
