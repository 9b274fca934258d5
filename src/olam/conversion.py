"""Constructor engine: reduction of constructor-level beta redexes.

The one rule contracts an abstraction-at-type-level applied to a term, at any
depth of a constructor, kind, or embedded term (annotations included).
Reduction is confluent and strongly normalizing, so equivalence is decided by
normalize-and-compare.
"""
from __future__ import annotations

from .errors import ReductionError
from .syntax import (
    DEFAULT_FUEL,
    Fuel,
    Kind,
    MergeTerm,
    Node,
    TraceTerm,
    TypeAbs,
    TypeApp,
    TypeCon,
    alpha_eq,
    children,
    replace_at,
    subnode_at,
    substitute,
)

LEFTMOST_OUTERMOST = "leftmost-outermost"
RIGHTMOST_INNERMOST = "rightmost-innermost"


def find_con_redexes(node: Node) -> list[tuple[int, ...]]:
    """Positions of constructor redexes, in preorder."""
    out: list[tuple[int, ...]] = []

    def go(n: Node, path: tuple[int, ...]) -> None:
        if isinstance(n, TypeApp) and isinstance(n.con, TypeAbs):
            out.append(path)
        if isinstance(n, (TraceTerm, MergeTerm)):
            return
        for i, c in enumerate(children(n)):
            go(c, path + (i,))

    go(node, ())
    return out


def con_step(node: Node, path: tuple[int, ...]) -> Node:
    try:
        sub = subnode_at(node, path)
    except IndexError:
        sub = None
    if not (isinstance(sub, TypeApp) and isinstance(sub.con, TypeAbs)):
        raise ReductionError(
            "InvalidRedexPath", f"no constructor redex at {path}"
        )
    contracted = substitute(sub.con.body, sub.con.var, sub.arg)
    return replace_at(node, path, contracted)


def normalize_node(
    node: Node,
    strategy: str = LEFTMOST_OUTERMOST,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> Node:
    if strategy not in (LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST):
        raise ValueError(f"unknown strategy {strategy!r}")
    budget = fuel if isinstance(fuel, Fuel) else Fuel(fuel)
    while True:
        redexes = find_con_redexes(node)
        if not redexes:
            return node
        budget.spend()
        path = redexes[0] if strategy == LEFTMOST_OUTERMOST else redexes[-1]
        node = con_step(node, path)


def normalize_con(
    con: TypeCon,
    strategy: str = LEFTMOST_OUTERMOST,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> TypeCon:
    return normalize_node(con, strategy, fuel)  # type: ignore[return-value]


def normalize_kind(kind: Kind, fuel: Fuel | int = DEFAULT_FUEL) -> Kind:
    return normalize_node(kind, LEFTMOST_OUTERMOST, fuel)  # type: ignore[return-value]


def con_equiv(a: Node, b: Node, fuel: Fuel | int = DEFAULT_FUEL) -> bool:
    """Conversion check: both sides reduce to alpha-equal normal forms."""
    return alpha_eq(
        normalize_node(a, LEFTMOST_OUTERMOST, fuel),
        normalize_node(b, LEFTMOST_OUTERMOST, fuel),
    )
