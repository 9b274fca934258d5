"""Whole-term sampling and enumeration, kept as a reference for the runs in
olam.reducer and olam.traces that resume the redex search.

Before every step these loops search the whole term again from the root,
with a preorder walk of their own, and fire the first redex they meet.
Tests compare them with the resumed runs step for step.
"""
from __future__ import annotations

import random
from fractions import Fraction

from olam.reducer import SampleResult, TermRedex, TraceQuadruple, step
from olam.syntax import (
    DEFAULT_FUEL,
    App,
    Choice,
    Force,
    Fuel,
    Lam,
    MergeTerm,
    OracleCall,
    OracleRef,
    Pair,
    Proj,
    Term,
    TraceTerm,
    children,
)


def first_redex(t: Term) -> TermRedex | None:
    """The first redex in preorder, searched from the root."""
    stack: list[tuple[Term, tuple[int, ...]]] = [(t, ())]
    while stack:
        node, path = stack.pop()
        match node:
            case TraceTerm() | MergeTerm():
                continue
            case App(Lam(), _):
                return TermRedex(path, "beta")
            case Proj(Pair(), _):
                return TermRedex(path, "proj")
            case Force(Choice()):
                return TermRedex(path, "choice")
            case Force(OracleRef(o) | OracleCall(o, _)):
                return TermRedex(path, "oracle", o)
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            if isinstance(kids[i], Term):
                stack.append((kids[i], path + (i,)))
    return None


def run_sample(
    t: Term, seed: int, fuel: int = DEFAULT_FUEL, registry=None
) -> SampleResult:
    """reducer.run_sample, searching the whole term before every step."""
    budget = Fuel(fuel)
    rng = random.Random(seed)
    prob = Fraction(1)
    steps: list[TraceQuadruple] = []
    current = t
    while (redex := first_redex(current)) is not None:
        budget.spend()
        outcomes = step(current, redex, registry)
        if redex.kind == "choice":
            draw = Fraction(rng.getrandbits(64), 2**64)
            chosen = outcomes[0] if draw < outcomes[0].prob else outcomes[1]
        else:
            chosen = outcomes[0]
        prob *= chosen.prob
        steps.append(chosen)
        current = chosen.after
    return SampleResult(current, prob, tuple(steps))


def enumerate_paths(
    t: Term, registry=None, fuel: int = DEFAULT_FUEL
) -> list[tuple[Fraction, tuple[TraceQuadruple, ...]]]:
    """traces.enumerate_paths without the type check, searching the whole
    term before every step."""
    budget = Fuel(fuel)
    finished = []
    stack = [(t, Fraction(1), ())]
    while stack:
        current, prob, quads = stack.pop()
        redex = first_redex(current)
        if redex is None:
            finished.append((prob, quads))
            continue
        live = [o for o in step(current, redex, registry) if o.prob > 0]
        for o in reversed(live):
            budget.spend()
            quad = TraceQuadruple(current, o.after, o.prob, o.label, redex.path)
            stack.append((o.after, prob * o.prob, quads + (quad,)))
    return finished
