"""The four workloads: their inputs, seeded generators and one timed pass.

Every operation goes through ``erlab.cli.run(argv)`` in-process with its
output captured, except ``capacity.validate_nocap``, which has no
subcommand and is called as a library function.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass, field

Q2_CASES = [
    ("3,3,3,3", 4), ("4,3,3,3", 4), ("5,5,5", 4), ("6,6,6", 4), ("4,4,4", 4),
    ("5,5,4", 4), ("5,4,3", 4), ("4,4,3", 5), ("4,3,3", 5), ("3,3,3", 6),
    ("4,4", 6), ("4,3", 6),
]

# The 15 solved families of ``er-lab tables``.
TABLE_FAMILIES = (
    [(a, b) for a in range(3, 7) for b in range(3, a + 1)]
    + [(a, a, a) for a in range(3, 6)]
    + [(3, 3, 3, 3), (4, 4, 4, 4)]
)

# The full attachment search on the (4,4,4,4) optimum, AG(2,3), takes about
# a minute, longer than a run may last.  Its extension check runs instead on
# AG(2,3) with one line deleted (two parallel lines, uniform weights): a
# stationary level-2 pattern that drives the same attachment DFS for ~6 s.
AG23_MINUS_LINE = {
    "r": 6, "s": 4, "k": [4, 4, 4, 4], "level": 2,
    "alpha": ["1/6"] * 6,
    "pairs": [
        [1, 2, [1, 2, 3]], [1, 3, [1, 2, 3]], [1, 4, [2, 3, 4]], [1, 5, [1, 3, 4]],
        [1, 6, [1, 2, 4]], [2, 3, [1, 2, 3]], [2, 4, [1, 2, 4]], [2, 5, [2, 3, 4]],
        [2, 6, [1, 3, 4]], [3, 4, [1, 3, 4]], [3, 5, [1, 2, 4]], [3, 6, [2, 3, 4]],
        [4, 5, [1, 2, 3]], [4, 6, [1, 2, 3]], [5, 6, [1, 2, 3]],
    ],
}

# capacity-sweep strata (n, edge count).  Each stratum holds one graph per
# isomorphism class, under a seeded random vertex labelling, so every seed
# does the same work; each graph is taken with every k from omega+1 to 6.
CAPACITY_STRATA = [(4, m) for m in range(0, 7)] + [(5, m) for m in range(1, 11)] + [(6, 6)]
CAPACITY_KMAX = 6

# oracle-bruteforce: one uniformly random labelled graph per (n, edge count)
# stratum, sized like K_7, T(3,7) and K_5, and three exhaustive searches.
COUNT_STRATA = [(7, 21, "4,3"), (7, 16, "4,4"), (5, 10, "4,4,4")]
EXTREMAL_CASES = [(6, "3,3"), (5, "3,3,3"), (5, "4,3,3")]

WORKLOADS = ("q2-sweep", "table-certify", "capacity-sweep", "oracle-bruteforce")


@dataclass
class Op:
    """One operation: a CLI argv, or a library call when ``call`` is set."""

    kind: str
    key: str
    argv: list = field(default_factory=list)
    call: object = None
    labels: tuple | None = None  # canonical vertex -> input vertex
    graph: dict | None = None  # input graph whose class completes the key


@dataclass
class Outcome:
    op: Op
    code: int | None
    text: str
    error: str | None = None

    def report(self):
        return json.loads(self.text)


def run_op(op: Op) -> Outcome:
    """Run one operation, capturing its output; a raised exception is kept
    as the outcome's error, never propagated."""
    from erlab import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if op.call is not None:
                return Outcome(op, None, json.dumps(op.call(), sort_keys=True, default=list))
            code = cli.run(op.argv)
    except Exception:  # a traceback is a failed operation, not a crash
        return Outcome(op, None, out.getvalue(), traceback.format_exc())
    return Outcome(op, code, out.getvalue())


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _relabel(n: int, edges, rng: random.Random):
    """A random labelling: returns (edges under it, labels) where
    labels[a] is the new name of vertex a."""
    labels = list(range(n))
    rng.shuffle(labels)
    return [sorted((labels[u], labels[v])) for u, v in edges], tuple(labels)


def _graph_json(n: int, edges) -> dict:
    return {"n": n, "edges": sorted([u + 1, v + 1] for u, v in edges)}


class Workload:
    """Inputs written to ``workdir`` at set-up; ``run_pass`` runs them once."""

    def __init__(self, name: str, seed: int, workdir: str, reference: dict):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.workdir = workdir
        self.ops = getattr(self, "_setup_" + name.replace("-", "_"))(random.Random(seed), reference)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _setup_q2_sweep(self, rng, reference):
        return [Op("q2", f"q2 k={k} rmax={r}", ["q2", "--k", k, "--rmax", str(r)]) for k, r in Q2_CASES]

    def _setup_table_certify(self, rng, reference):
        from erlab import capacity, constructions, core

        ag_path = _write(self.path("ag23_minus_line.json"), AG23_MINUS_LINE)
        ops = []
        for family in TABLE_FAMILIES:
            k = ",".join(map(str, family))
            ext = ["extension", "--k", k] + (["--opt", ag_path] if family == (4, 4, 4, 4) else [])
            seq = core.validate_sequence(family)
            optimum = constructions.known_optimum(seq)
            ops += [
                Op("certify", f"certify k={k}", ["certify", "--k", k]),
                Op("extension", f"extension k={k}", ext),
                Op("nocap", f"nocap k={k}", call=lambda t=optimum, s=seq: capacity.validate_nocap(t, s)),
            ]
        return ops + [Op("tables", "tables", ["tables"])]

    def _setup_capacity_sweep(self, rng, reference):
        ops = []
        for n, m in CAPACITY_STRATA:
            for code, edges, omega in reference["classes"][f"{n}:{m}"]:
                relabelled, labels = _relabel(n, edges, rng)
                path = _write(self.path(f"cap_{n}_{m}_{code}.json"), _graph_json(n, relabelled))
                for k in range(omega + 1, CAPACITY_KMAX + 1):
                    ops.append(
                        Op("capacity", f"capacity n={n} code={code} k={k}",
                           ["capacity", "--graph", path, "--k", str(k)], labels=labels)
                    )
        return ops

    def _setup_oracle_bruteforce(self, rng, reference):
        ops = []
        for n, m, k in COUNT_STRATA:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(pairs, m)
            graph = _graph_json(n, edges)
            path = _write(self.path(f"count_{n}_{m}.json"), graph)
            ops.append(Op("count", f"count n={n} k={k}", ["oracle", "count", "--graph", path, "--k", k],
                          graph=graph))
        for n, k in EXTREMAL_CASES:
            ops.append(Op("extremal", f"extremal n={n} k={k}", ["oracle", "extremal", "--n", str(n), "--k", k]))
        return ops

    def run_pass(self, tracer=None) -> list[Outcome]:
        """Run every operation once; q2 optima are then verified."""
        outcomes = []

        def run(op):
            with tracer.operation(op.key) if tracer else contextlib.nullcontext():
                outcomes.append(run_op(op))
            return outcomes[-1]

        for op in self.ops:
            outcome = run(op)
            if op.kind == "q2" and outcome.error is None and outcome.code == 0:
                k = op.argv[2]
                for i, triple in enumerate(outcome.report()["results"]["optima"]):
                    path = _write(self.path(f"optimum_{i}.json"), triple)
                    run(Op("verify", f"{op.key} verify {i}", ["verify", "--pattern", path, "--k", k]))
        return outcomes
