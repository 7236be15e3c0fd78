"""Reference answers: the frozen fields of each report and their comparison.

Only the fields the ROADMAP freezes are compared: search values, optima and
exhaustiveness flags; extension verdicts, attachment counts and numcheck
solutions; certify verdicts and LP ``d`` vectors; capacity kinds and
antichains; colouring counts and extremal maximisers.  Timing, ``threads``
and symbolic labels are ignored.  Graph-dependent fields are compared in a
canonical labelling, so a relabelled input has the same reference.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def canonical_graph(n: int, edges) -> tuple[int, tuple]:
    """(code, perm): the least edge-bitmask code over vertex relabellings,
    and a relabelling ``perm`` (vertex u -> perm[u]) that attains it."""
    index = {}
    for i in range(n):
        for j in range(i + 1, n):
            index[(i, j)] = len(index)
    best, best_perm = None, None
    for perm in itertools.permutations(range(n)):
        code = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            code |= 1 << index[(a, b) if a < b else (b, a)]
        if best is None or code < best:
            best, best_perm = code, perm
    return best, best_perm


def graph_code(graph_json: dict) -> int:
    """Canonical code of a 1-based graph JSON object."""
    edges = [(u - 1, v - 1) for u, v in graph_json["edges"]]
    return canonical_graph(graph_json["n"], edges)[0]


def _alpha(text: str) -> float:
    return float(Fraction(text))


def frozen(kind: str, report, labels=None):
    """The frozen fields of one outcome.

    ``report`` is the parsed JSON report (or, for ``nocap``, the library's
    dict).  ``labels[a]`` is the input graph's vertex for canonical vertex
    a; capacity vectors are rewritten into the canonical labelling.
    """
    res = report["results"] if kind != "nocap" else report
    if kind != "nocap" and report["command"] == "error":
        return {"error": res["error"]}
    if kind == "q2":
        return {
            "best_numeric": float(res["best_numeric"]),
            "exhaustive": res["exhaustive"],
            "optima": [
                {
                    "r": t["r"],
                    "k": t["k"],
                    "level": t["level"],
                    "pairs": t["pairs"],
                    "alpha": [_alpha(a) for a in t["alpha"]],
                }
                for t in res["optima"]
            ],
        }
    if kind == "verify":
        return {"passed": res["passed"]}
    if kind == "certify":
        return {"verdict": res["verdict"], "lp_d": report["certificates"][0]["lp_d"]}
    if kind == "extension":
        return {
            "holds": res["holds"],
            "strong": res["strong"],
            "attachments": [d["attachments"] for d in res["attachments"]],
            "numcheck_solutions": res["numcheck"]["solutions"],
        }
    if kind == "nocap":
        return {
            "passed": res["passed"],
            "kinds": {str(c): e["capacity"] for c, e in sorted(res["colours"].items())},
        }
    if kind == "tables":
        return {"rows": [[row["k"], row["verdict"], row["lp_d"]] for row in res["rows"]]}
    if kind == "capacity":
        vectors = res["max_vectors"]
        if labels is not None:
            vectors = [[vec[u] for u in labels] for vec in vectors]
        return {"kind": res["kind"], "max_vectors": sorted(vectors)}
    if kind == "count":
        return {"count": res["count"]}
    if kind == "extremal":
        return {
            "max": res["max"],
            "maximisers": sorted(graph_code(g) for g in res["maximisers"]),
        }
    raise ValueError(f"unknown operation kind {kind!r}")


def same(a, b, tol: float) -> bool:
    """Structural equality; floats may differ by at most ``tol``."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= tol
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key], tol) for key in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, tol) for x, y in zip(a, b))
    return a == b


def agree(kind: str, got: dict, ref: dict) -> bool:
    """``best_numeric`` must match to 1e-12 and the optimal weights to 1e-9,
    so a weighting relabelled from exact to numeric still matches."""
    if kind == "q2" and abs(got["best_numeric"] - ref["best_numeric"]) > 1e-12:
        return False
    return same(got, ref, 1e-9 if kind == "q2" else 0.0)
