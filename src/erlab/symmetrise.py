"""Forward symmetrisation: push any feasible weighted pattern up to one with
every pair carrying at least two colours, without decreasing q.

Whenever some pair (i, j) has at most one colour, moving all of one vertex's
weight onto the other changes q by  beta * (att_keep - att_drop), where att_v
is the weighted attachment of v to the rest (the shared pair contributes
nothing since log2 of 0 or 1 colours is 0).  Keeping the vertex with the
larger attachment therefore never loses.  Each move removes a vertex, so the
process terminates.  Clones need no separate pass: a clone pair carries at
most one colour, so the loop merges it like any other such pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core


class InfeasibleInput(core.ErlabError):
    pass


@dataclass(frozen=True)
class Step:
    pair: tuple  # (kept, dropped) in the labels of the current pattern
    q: float  # after the move


@dataclass
class Trajectory:
    steps: list
    final: core.FeasibleTriple
    q_initial: float
    q_final: float

    @property
    def monotone(self) -> bool:
        values = [self.q_initial] + [s.q for s in self.steps] + [self.q_final]
        return all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def forward_symmetrise(triple: core.FeasibleTriple, k: core.ColourSeq) -> Trajectory:
    ok, witness = core.is_feasible(triple.pattern, k, level=0)
    if not ok:
        raise InfeasibleInput(f"input violates clique-freeness: {witness}")
    pattern = triple.pattern
    alpha = list(triple.weighting)
    exact = core.weighting_is_exact(triple.weighting)
    q0 = core.q_value(triple).numeric_value

    live = [v for v in range(pattern.r) if (alpha[v] != 0 if exact else float(alpha[v]) > 0)]
    pattern, alpha = pattern.induced(live), [alpha[v] for v in live]

    steps: list[Step] = []
    while True:
        target = None
        for i in range(pattern.r):
            for j in range(i + 1, pattern.r):
                if pattern.mult(i, j) <= 1:
                    target = (i, j)
                    break
            if target:
                break
        if target is None:
            break
        i, j = target
        rest = [x for x in range(pattern.r) if x not in (i, j)]
        att_i = core.q_contrib_form(pattern, tuple(alpha), i, restrict_to=rest)
        att_j = core.q_contrib_form(pattern, tuple(alpha), j, restrict_to=rest)
        if exact:
            keep, drop = (i, j) if att_j <= att_i else (j, i)
        else:
            keep, drop = (i, j) if att_j <= att_i + 1e-15 else (j, i)
        alpha[keep] = alpha[keep] + alpha[drop]
        live = [v for v in range(pattern.r) if v != drop]
        pattern, alpha = pattern.induced(live), [alpha[v] for v in live]
        q_now = core.q_value(
            core.FeasibleTriple(pattern, tuple(alpha), level=0)
        ).numeric_value
        steps.append(Step(pair=(keep, drop), q=q_now))

    final = core.FeasibleTriple(pattern, tuple(alpha), level=2)
    return Trajectory(
        steps=steps,
        final=final,
        q_initial=q0,
        q_final=core.q_value(final).numeric_value,
    )
