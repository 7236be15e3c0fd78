"""The extension property: attachments to basic optimal solutions.

An attachment gives the new vertex's colour set towards each existing
vertex.  Its contribution is ext = sum alpha_i * log2|phi(i, new)|; by the
weight-transfer argument this never exceeds the optimum, and the (strong)
extension property asks that attachments meeting the optimum clone an
existing vertex (with no colours on the joining pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import core, search
from .core import NotBasicOptimal
from .graphs import max_clique, multipartite_parts


class EmptyOptSet(core.ErlabError):
    pass


@dataclass(frozen=True)
class Attachment:
    profile: tuple  # frozenset per existing vertex

    def extend(self, pattern: core.ColourPattern) -> core.ColourPattern:
        return pattern.attach(self.profile)


@dataclass
class ExtensionVerdict:
    holds: bool
    strong_holds: bool
    witnesses: list
    clone_targets: dict
    exhaustive: bool
    details: list = field(default_factory=list)


def ext_value(profile, weighting) -> float:
    return sum(
        float(weighting[i]) * math.log2(len(cs))
        for i, cs in enumerate(profile)
        if cs
    )


def enumerate_optimal_attachments(
    triple: core.FeasibleTriple,
    k: core.ColourSeq,
    q_target: float | None = None,
    tol: float = 1e-9,
) -> list:
    """All feasible attachments whose contribution meets the optimum.

    The rows of `core.attachment_rows` over every colour set, the empty one
    included; its pruning by the remaining-contribution bound and by
    incremental clique containment preserves completeness.
    """
    check = search.verify_candidate(triple, k, core.q_value(triple))
    if not check["passed"]:
        raise NotBasicOptimal(f"candidate fails basic-optimality checks: {check['checks']}")
    if q_target is None:
        q_target = core.q_value(triple).numeric_value
    rows = core.attachment_rows(
        triple.pattern, k, core.colour_subsets(k.s, 0), alpha=triple.weighting, target=q_target, tol=tol
    )
    return [Attachment(row) for row in rows]


def _clone_target(pattern_ext: core.ColourPattern, new: int):
    for j in range(new):
        status = core.clone_status(pattern_ext, new, j)
        if status is not core.CloneStatus.NOT_CLONE:
            return j, status
    return None, core.CloneStatus.NOT_CLONE


def check_extension_property(
    opt_set, k: core.ColourSeq, exhaustive: bool = False
) -> ExtensionVerdict:
    """Verdict over the supplied basic optima; only as strong as opt_set."""
    opt_set = list(opt_set)
    if not opt_set:
        raise EmptyOptSet("extension property quantifies over basic optima")
    holds, strong = True, True
    witnesses = []
    clone_targets = {}
    details = []
    for idx, triple in enumerate(opt_set):
        q_target = core.q_value(triple).numeric_value
        attachments = enumerate_optimal_attachments(triple, k, q_target)
        for att in attachments:
            ext_pattern = att.extend(triple.pattern)
            j, status = _clone_target(ext_pattern, triple.pattern.r)
            if status is core.CloneStatus.NOT_CLONE:
                holds = False
                strong = False
                witnesses.append((idx, att))
            else:
                clone_targets[(idx, att)] = j
                if status is not core.CloneStatus.STRONG_CLONE:
                    strong = False
        details.append({"optimum": idx, "attachments": len(attachments)})
    return ExtensionVerdict(holds, strong, witnesses, clone_targets, exhaustive, details)


def numcheck_certificate(triple: core.FeasibleTriple, k: core.ColourSeq):
    """Integer-product certificate for the strong extension property.

    Requires each colour graph to be a balanced complete multipartite graph
    with k_c - 1 parts dividing r, near-equal multiplicities and uniform
    weights; then every attachment meeting the optimum solves the integer
    equation prod t_i = prod over pairs at a vertex of |phi|, and the
    certificate holds iff every solution has exactly one entry equal to 1.

    Returns (applicable, holds, solutions).
    """
    pattern = triple.pattern
    r = pattern.r
    s = k.s
    uniform = all(a == Fraction(1, r) for a in triple.weighting)
    if not uniform:
        return False, None, []
    mults = [pattern.mult(i, j) for i, j in pattern.pairs()]
    if max(mults) - min(mults) > 1:
        return False, None, []
    for c in k.colours():
        if (r % (k[c] - 1)) != 0 or not _is_balanced_turan(pattern, c, k[c] - 1):
            return False, None, []
    targets = set()
    for i in range(r):
        prod = 1
        for j in range(r):
            if j != i:
                prod *= max(pattern.mult(i, j), 1)
        targets.add(prod)
    if len(targets) != 1:
        return False, None, []
    target = targets.pop()

    solutions = []

    def grow(prefix: list[int], remaining: int, max_entry: int):
        if len(prefix) == r:
            if remaining == 1:
                solutions.append(tuple(prefix))
            return
        for t in range(1, min(max_entry, remaining) + 1):
            if remaining % t == 0:
                grow(prefix + [t], remaining // t, t)

    grow([], target, s)
    holds = bool(solutions) and all(sol.count(1) == 1 for sol in solutions)
    return True, holds, solutions


def _is_balanced_turan(pattern: core.ColourPattern, c: int, parts: int) -> bool:
    """Colour graph isomorphic to the balanced complete multipartite graph."""
    found = multipartite_parts(pattern.colour_graph(c))
    if found is None or len(found) != parts:
        return False
    return len({bin(p).count("1") for p in found}) == 1


def char_decompose(
    triple: core.FeasibleTriple,
    opt_star: core.FeasibleTriple,
    k: core.ColourSeq,
    q_target: float | None = None,
):
    """Partition a level-0 optimum as a blow-up of a basic optimum.

    Conditions: part weights match, cross pairs copy the basic pattern,
    within-part pairs use at most colour 1 with total clique mass below k_1.
    Returns (partition or None, failure reason).
    """
    ok, witness = core.is_feasible(triple.pattern, k, level=0)
    if not ok:
        return None, f"input not feasible: {witness}"
    if q_target is None:
        q_target = core.q_value(opt_star).numeric_value
    if abs(core.q_value(triple).numeric_value - q_target) > 1e-9:
        return None, "q below optimum"
    pattern = triple.pattern
    rstar = opt_star.pattern.r
    vertices = [i for i in range(pattern.r) if float(triple.weighting[i]) > 0]
    assign: dict[int, int] = {}

    def consistent(v: int, part: int) -> bool:
        for u, p in assign.items():
            cs = pattern.get(u, v)
            if p == part:
                if not cs <= {1}:
                    return False
            elif cs != opt_star.pattern.get(p, part):
                return False
        return True

    def backtrack(idx: int):
        if idx == len(vertices):
            return True
        v = vertices[idx]
        for part in range(rstar):
            if consistent(v, part):
                assign[v] = part
                if backtrack(idx + 1):
                    return True
                del assign[v]
        return False

    if not backtrack(0):
        return None, "no partition matches the basic pattern (condition ii/iii)"
    parts = [[v for v in vertices if assign[v] == p] for p in range(rstar)]
    for p in range(rstar):
        total = sum(triple.weighting[v] for v in parts[p])
        expected = opt_star.weighting[p]
        exact = all(isinstance(x, Fraction) for x in (total, expected))
        if (exact and total != expected) or (
            not exact and abs(float(total) - float(expected)) > 1e-9
        ):
            return None, f"part {p} weight {total} != {expected} (condition i)"
    # condition (iii): within-part colour-1 cliques must fit the capacity bound
    inner = [pattern.induced(part).colour_graph(1) for part in parts]
    ell = [max_clique(g)[0] for g in inner]
    if any(g.edges for g in inner):
        if not k[1] > k[2]:
            return None, "within-part edges but k_1 = k_2 (condition iii)"
        if sum(ell) > k[1] - 1:
            return None, f"clique mass {sum(ell)} exceeds k_1-1={k[1]-1} (condition iii)"
    return parts, None
