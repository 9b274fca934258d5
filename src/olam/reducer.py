"""Single-step probabilistic reduction and seeded sampling runs.

A step fires one redex.  Applications and projections contract with
probability 1.  A forced choice splits into its two branches with the
annotated probability and its complement.  A forced oracle call steps by
rewriting every outermost forced occurrence of that oracle at once: each
occurrence becomes a hole variable of one shared context, the oracle's rule
table answers each hole against that context, and the answers are
substituted for their holes.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction

from .errors import ReductionError
from .oracles import OracleRegistry
from .syntax import (
    DEFAULT_FUEL,
    App,
    Choice,
    Force,
    Fuel,
    Lam,
    MergeTerm,
    Node,
    OracleCall,
    OracleRef,
    Pair,
    Proj,
    Rational,
    Record,
    Term,
    TraceTerm,
    Var,
    children,
    decompose_oracle_context,
    hole_var,
    rebuild,
    record,
    substitute,
)

__all__ = [
    "TermRedex",
    "TraceQuadruple",
    "RULE_KIND",
    "SampleResult",
    "find_redexes",
    "redex_at",
    "step",
    "deterministic_strategy",
    "next_redex",
    "run_sample",
    "sample_seed",
]


@record("path kind oracle?")
class TermRedex(Record):
    """A fireable position.  kind is one of beta, proj, choice, oracle.

    An oracle redex stands for the simultaneous rewrite of all outermost
    forced occurrences of one oracle; its path is the first occurrence.
    """


# the kind of redex each outcome label comes from
RULE_KIND = {
    "beta": "beta",
    "proj": "proj",
    "left": "choice",
    "right": "choice",
    "oracle": "oracle",
}


@record("before after prob label path? parent?~")
class TraceQuadruple(Record):
    """One reduction step: the terms before and after it, its probability,
    its rule label, and the path of the redex it fired (None where nobody
    recorded it).

    parent is the node of after just above the fired position, which the
    step rebuilt; None for a step at the root and for an oracle step.
    Equality, hash and repr leave it out."""


@record("term prob trace")
class SampleResult(Record):
    """Final term of one sampled run, its path probability, and the steps."""


# Positions still to search, as (node, path) pairs; the next is on top.
Pending = list[tuple[Term, tuple[int, ...]]]


def _recognise(node: Term, path: tuple[int, ...]) -> TermRedex | None:
    """The redex node forms at path, read off the node and its first child."""
    match node:
        case App(Lam(), _):
            return TermRedex(path, "beta")
        case Proj(Pair(), _):
            return TermRedex(path, "proj")
        case Force(Choice()):
            return TermRedex(path, "choice")
        case Force(OracleRef(o) | OracleCall(o, _)):
            return TermRedex(path, "oracle", o)
    return None


def _search(pending: Pending) -> Iterator[TermRedex]:
    """Pop positions in preorder and yield every redex met.  At a yield the
    redex's children are not pushed yet, so pending holds exactly the
    positions after its subtree."""
    while pending:
        node, path = pending.pop()
        if isinstance(node, (TraceTerm, MergeTerm)):
            continue
        redex = _recognise(node, path)
        if redex is not None:
            yield redex
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            if isinstance(kids[i], Term):
                pending.append((kids[i], path + (i,)))


def find_redexes(t: Term) -> list[TermRedex]:
    """Every fireable position, in leftmost-outermost (preorder) order.

    Only term positions count: type annotations and the interiors of
    evidence terms are never searched.  All outermost forced occurrences
    of one oracle form a single redex, found at the first of them; in
    preorder that occurrence is outermost, so it is also the first hole of
    the context.
    """
    found: list[TermRedex] = []
    fired: set[str] = set()
    for redex in _search([(t, ())]):
        if redex.oracle is not None:
            if redex.oracle in fired:
                continue
            fired.add(redex.oracle)
        found.append(redex)
    return found


def redex_at(t: Term, path: tuple[int, ...]) -> TermRedex | None:
    """The redex at path if it is one of find_redexes(t), else None.  A
    beta, proj or choice redex is read along the path alone: every node on
    it must be a searched term position and the node at its end form a
    redex.  An oracle redex must also be hole 1 of its oracle's context."""
    walked = _walk(t, path)
    redex = None if walked is None else _recognise(walked[1], path)
    if redex is not None and redex.oracle is not None:
        context, _ = decompose_oracle_context(t, redex.oracle)
        if not _at_first_hole(context.skeleton, path):
            return None
    return redex


def step(
    t: Term, redex: TermRedex, registry: OracleRegistry | None = None
) -> list[TraceQuadruple]:
    """The steps of positive probability that firing the redex takes.
    Deterministic rules give one step with probability 1; a choice gives
    its left and its right side, or one side alone at probability 1 or 0.

    The path is walked once, down to the redex; each step rebuilds the
    nodes above it from the bottom up, out of the children that walk
    read.  Like redex_at, it stops at an evidence term, at a child that is
    no term and at an index out of range: such a path fires nothing."""
    if redex.kind == "oracle":
        return [_oracle_step(t, redex, registry)]
    walked = _walk(t, redex.path)
    if walked is not None:
        above, node = walked
        match node:
            case App(Lam(x, _, body), arg) if redex.kind == "beta":
                new = substitute(body, x, arg)
                return [_plug(t, redex, above, new, Fraction(1), "beta")]
            case Proj(Pair(left, right), index) if redex.kind == "proj":
                new = left if index == 0 else right
                return [_plug(t, redex, above, new, Fraction(1), "proj")]
            case Force(Choice(left, prob, right)) if redex.kind == "choice":
                steps = []
                if prob:
                    steps.append(_plug(t, redex, above, left, prob, "left"))
                if rest := 1 - prob:
                    steps.append(_plug(t, redex, above, right, rest, "right"))
                return steps
    raise ReductionError(
        "InvalidRedexPath",
        f"no {redex.kind} redex at position {list(redex.path)}",
    )


# The nodes above a position, root first, each with its children and the
# index of the child the path goes on to.
_Spine = list[tuple[Node, tuple[Node, ...], int]]


def _walk(t: Term, path: tuple[int, ...]) -> tuple[_Spine, Node] | None:
    """The spine above path's end and the node there, or None unless every
    node on the path is a searched term position: the walk stops at an
    evidence term, at a child that is no term and at an index out of
    range."""
    above: _Spine = []
    node: Node = t
    for i in path:
        if isinstance(node, (TraceTerm, MergeTerm)):
            return None
        kids = children(node)
        if not 0 <= i < len(kids) or not isinstance(kids[i], Term):
            return None
        above.append((node, kids, i))
        node = kids[i]
    return above, node


def _plug(
    t: Term,
    redex: TermRedex,
    above: _Spine,
    new: Node,
    prob: Rational,
    label: str,
) -> TraceQuadruple:
    """The step from t to the term with new at the position below above."""
    parent = None
    for node, kids, i in reversed(above):
        rebuilt = list(kids)
        rebuilt[i] = new
        new = rebuild(node, tuple(rebuilt))
        if parent is None:
            parent = new
    return TraceQuadruple(
        t, new, prob, label, redex.path, parent  # type: ignore[arg-type]
    )


def _oracle_step(
    t: Term, redex: TermRedex, registry: OracleRegistry | None
) -> TraceQuadruple:
    if registry is None:
        raise ReductionError(
            "MissingRegistry",
            f"cannot step oracle {redex.oracle} without a registry",
        )
    assert redex.oracle is not None
    context, result = registry.rewrite(redex.oracle, t)
    if not _at_first_hole(context.skeleton, redex.path):
        raise ReductionError(
            "InvalidRedexPath",
            f"no redex of oracle {redex.oracle} at position {list(redex.path)}",
        )
    return TraceQuadruple(t, result, Fraction(1), "oracle", redex.path)


def _at_first_hole(skeleton: Node, path: tuple[int, ...]) -> bool:
    """Whether hole 1 of skeleton, an oracle's context, stands at path: the
    first occurrence.  No variable of the term is spelled like a hole, or
    decompose_oracle_context would have raised."""
    walked = _walk(skeleton, path)  # type: ignore[arg-type]
    node = None if walked is None else walked[1]
    return type(node) is Var and node.name == hole_var(1).name


def deterministic_strategy(t: Term) -> TermRedex | None:
    """The unique redex fired by runs: first in preorder, or None at a
    normal form."""
    return next(_search([(t, ())]), None)


def next_redex(
    pending: Pending, last: TraceQuadruple | None = None
) -> TermRedex | None:
    """The redex the deterministic strategy fires next, resuming the search
    that found the redex of the last step; pending, updated in place,
    holds the positions after it (start a run of t with [(t, ())] and no
    last step).

    Firing a beta, proj or choice redex at p leaves every position before p
    redex-free and unchanged, and every pending position valid.  Being a
    redex depends on a node and its first child, so only p's parent can
    have become one: if it has, it is next, and the pending positions
    under it go; otherwise the search goes on from the new term at p.  An
    oracle step rewrites every occurrence, so the search starts again at
    the root.
    """
    if last is not None:
        path = last.path
        if last.label == "oracle":
            pending[:] = [(last.after, ())]
        elif path:
            up = path[:-1]
            redex = _recognise(last.parent, up)  # type: ignore[arg-type]
            if redex is not None:
                depth = len(up)
                while pending and pending[-1][1][:depth] == up:
                    pending.pop()
                return redex
            pending.append((children(last.parent)[path[-1]], path))
        else:
            pending.append((last.after, ()))
    return next(_search(pending), None)


def run_sample(
    t: Term,
    seed: int,
    fuel: Fuel | int = DEFAULT_FUEL,
    registry: OracleRegistry | None = None,
) -> SampleResult:
    """One seeded run to normal form under the deterministic strategy,
    each step resuming the redex search where the last one stopped.

    Choices draw a 64-bit uniform and take the left branch when it falls
    below the annotated probability, so a given seed fixes the whole run.
    """
    budget = fuel if isinstance(fuel, Fuel) else Fuel(fuel)
    rng = random.Random(seed)
    prob = Fraction(1)
    steps: list[TraceQuadruple] = []
    current = t
    pending: Pending = [(t, ())]
    redex = next_redex(pending)
    while redex is not None:
        budget.spend()
        outcomes = step(current, redex, registry)
        chosen = outcomes[0]
        if redex.kind == "choice":
            if Fraction(rng.getrandbits(64), 2**64) >= chosen.prob:
                chosen = outcomes[1]
        prob *= chosen.prob
        steps.append(chosen)
        current = chosen.after
        redex = next_redex(pending, chosen)
    return SampleResult(current, prob, tuple(steps))


_MASK = (1 << 64) - 1


def sample_seed(seed: int, index: int) -> int:
    """Stable per-sample seed: one splitmix64 round on seed + index."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)
