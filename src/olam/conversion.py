"""Constructor engine: reduction of constructor-level beta redexes.

The one rule contracts an abstraction-at-type-level applied to a term, at any
depth of a constructor, kind, or embedded term (annotations included).
Reduction is confluent and strongly normalizing, so equivalence is decided by
normalize-and-compare.

The normal form is built in one bottom-up pass: each node's children are
normalized first, and a node that is then a redex is contracted once.  Once
is enough: the contraction puts a term where a term variable stood, and a
term variable is never a constructor's head, so a normal body and a normal
argument give a normal result.
"""
from __future__ import annotations

from .syntax import (
    Kind,
    MergeTerm,
    Node,
    TraceTerm,
    TypeAbs,
    TypeApp,
    TypeCon,
    alpha_eq,
    rewrite,
    substitute,
)


def normalize_node(node: Node) -> Node:
    """The constructor normal form of node.  Recorded computations are left
    as they are."""
    return rewrite(node, None, _enter, _contract)


def _enter(node: Node, ctx: None) -> Node | None:
    return node if isinstance(node, (TraceTerm, MergeTerm)) else None


def _contract(node: Node) -> Node:
    if isinstance(node, TypeApp) and isinstance(node.con, TypeAbs):
        return substitute(node.con.body, node.con.var, node.arg)
    return node


def normalize_con(con: TypeCon) -> TypeCon:
    return normalize_node(con)  # type: ignore[return-value]


def normalize_kind(kind: Kind) -> Kind:
    return normalize_node(kind)  # type: ignore[return-value]


def con_equiv(a: Node, b: Node) -> bool:
    """Conversion check: both sides reduce to alpha-equal normal forms."""
    return alpha_eq(normalize_node(a), normalize_node(b))
