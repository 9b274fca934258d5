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

from operator import is_not

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
    rebuild,
    substitute,
)


def normalize_node(node: Node, fuel: Fuel | int = DEFAULT_FUEL) -> Node:
    """The constructor normal form of node; each contraction spends one
    unit of fuel.  Recorded computations are left as they are."""
    return _norm(node, fuel if isinstance(fuel, Fuel) else Fuel(fuel))


def _norm(n: Node, budget: Fuel) -> Node:
    if isinstance(n, (TraceTerm, MergeTerm)):
        return n
    kids = children(n)
    if not kids:
        return n
    new = tuple([_norm(k, budget) for k in kids])
    if any(map(is_not, new, kids)):
        n = rebuild(n, new)
    if isinstance(n, TypeApp) and isinstance(n.con, TypeAbs):
        budget.spend()
        return substitute(n.con.body, n.con.var, n.arg)
    return n


def normalize_con(con: TypeCon, fuel: Fuel | int = DEFAULT_FUEL) -> TypeCon:
    return normalize_node(con, fuel)  # type: ignore[return-value]


def normalize_kind(kind: Kind, fuel: Fuel | int = DEFAULT_FUEL) -> Kind:
    return normalize_node(kind, fuel)  # type: ignore[return-value]


def con_equiv(a: Node, b: Node, fuel: Fuel | int = DEFAULT_FUEL) -> bool:
    """Conversion check: both sides reduce to alpha-equal normal forms."""
    return alpha_eq(normalize_node(a, fuel), normalize_node(b, fuel))
