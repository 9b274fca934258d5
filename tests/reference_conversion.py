"""Stepwise constructor normalization, kept as a reference for the one-pass
normalizer in olam.conversion.

It lists the constructor redexes in preorder, contracts the first
(leftmost-outermost) or the last (rightmost-innermost) by path, and searches
again from the root, until no redex is left.  Tests compare the one pass
with both orders: that the order of reduction does not matter is the
calculus's confluence.

normalize_node is the one-pass normalizer as olam.conversion had it before
its walk moved onto an explicit stack: one Python frame per tree level.
"""
from __future__ import annotations

from olam.syntax import (
    DEFAULT_FUEL,
    Fuel,
    MergeTerm,
    Node,
    TraceTerm,
    TypeAbs,
    TypeApp,
    children,
    rebuild,
    substitute,
)
from reference_syntax import subnode_at



def normalize_node(node: Node) -> Node:
    if isinstance(node, (TraceTerm, MergeTerm)):
        return node
    kids = children(node)
    if not kids:
        return node
    new = tuple([normalize_node(k) for k in kids])
    if any(a is not b for a, b in zip(new, kids)):
        node = rebuild(node, new)
    if isinstance(node, TypeApp) and isinstance(node.con, TypeAbs):
        return substitute(node.con.body, node.con.var, node.arg)
    return node


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


def replace_at(node: Node, path: tuple[int, ...], new: Node) -> Node:
    """node with new in place of the node at path."""
    if not path:
        return new
    kids = list(children(node))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return rebuild(node, tuple(kids))


def con_step(node: Node, path: tuple[int, ...]) -> Node:
    sub = subnode_at(node, path)
    assert isinstance(sub, TypeApp) and isinstance(sub.con, TypeAbs)
    return replace_at(node, path, substitute(sub.con.body, sub.con.var, sub.arg))


def normalize_stepwise(
    node: Node, strategy: str, fuel: Fuel | int = DEFAULT_FUEL
) -> Node:
    budget = fuel if isinstance(fuel, Fuel) else Fuel(fuel)
    while True:
        redexes = find_con_redexes(node)
        if not redexes:
            return node
        budget.spend()
        path = redexes[0] if strategy == LEFTMOST_OUTERMOST else redexes[-1]
        node = con_step(node, path)
