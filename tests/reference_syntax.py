"""Reference forms of two syntax operations, kept for the tests to
compare olam.syntax and olam.printer against.

canonicalize builds the canonical form that printer.term_key prints in
one walk.  substitute_one substitutes one name by walking every node and
rebuilding it; olam.syntax.substitute_all must give the same tree,
binder names included, as substitute_one applied entry by entry.
fill_renaming_for_all_answers is the hand-written context fill that
HoleContext.fill replaced; the two must give alpha-equal terms.
"""
from __future__ import annotations

from olam.syntax import (
    BINDERS,
    HoleContext,
    Lam,
    Node,
    Term,
    Var,
    children,
    free_term_vars,
    fresh_name,
    hole_var,
    rebuild,
)


def canonicalize(node: Node) -> Node:
    """Rename every bound term variable to ?0, ?1, ... in traversal order.

    `?` is not an identifier character, so canonical names cannot collide
    with free names; the printed canonical form is a stable alpha-class key.
    """
    return _canon(node, {}, [0])


def _canon(node: Node, env: dict[str, str], counter: list[int]) -> Node:
    if isinstance(node, Var):
        return Var(env.get(node.name, node.name))
    if isinstance(node, BINDERS):
        a2 = _canon(node.var_type, env, counter)
        name = f"?{counter[0]}"
        counter[0] += 1
        body = _canon(node.body, {**env, node.var: name}, counter)
        return type(node)(name, a2, body)
    kids = children(node)
    if not kids:
        return node
    return rebuild(node, tuple(_canon(kid, env, counter) for kid in kids))


def substitute_one(node: Node, name: str, replacement: Term) -> Node:
    """Capture-avoiding substitution of one name: a binder whose name is
    free in the replacement is renamed when name is free in its body."""
    if isinstance(node, Var):
        return replacement if node.name == name else node
    if isinstance(node, BINDERS):
        x, b = node.var, node.body
        a2 = substitute_one(node.var_type, name, replacement)
        if x == name:
            return type(node)(x, a2, b)
        if x in free_term_vars(replacement) and name in free_term_vars(b):
            avoid = free_term_vars(replacement) | free_term_vars(b) | {name}
            x2 = fresh_name(x, avoid)
            b = substitute_one(b, x, Var(x2))
            x = x2
        return type(node)(x, a2, substitute_one(b, name, replacement))
    kids = children(node)
    if not kids:
        return node
    return rebuild(
        node, tuple(substitute_one(kid, name, replacement) for kid in kids)
    )


def fill_renaming_for_all_answers(ctx: HoleContext, contents: dict[int, Term]) -> Term:
    """The skeleton with hole i replaced by contents[i], renaming first a
    Lam whose name is free in any answer and that has a hole in its body,
    whichever hole's answer has the name."""
    holes = {hole_var(i).name: answer for i, answer in contents.items()}
    free = frozenset().union(*map(free_term_vars, contents.values()))

    def go(node: Node) -> Node:
        if isinstance(node, Var) and node.name in holes:
            return holes[node.name]
        if isinstance(node, Lam):
            x, a, b = node.var, node.var_type, node.body
            below = free_term_vars(b)
            if x in free and not below.isdisjoint(holes):
                x2 = fresh_name(x, free | below)
                node = Lam(x2, a, substitute_one(b, x, Var(x2)))
        kids = children(node)
        if not kids:
            return node
        return rebuild(
            node, tuple(go(kid) if isinstance(kid, Term) else kid for kid in kids)
        )

    return go(ctx.skeleton)  # type: ignore[return-value]
