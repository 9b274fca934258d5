"""Reference forms of syntax operations, kept for the tests to compare
olam.syntax and olam.printer against.

The recursive walks (subnodes, free_term_vars, oracle_names, alpha,
substitute_all, decompose_oracle_context) are the forms olam.syntax had
before its walks moved onto explicit stacks: one Python frame per tree
level, and the same results.  decompose_oracle_context also still
records each hole's path, which olam.syntax no longer builds.

canonicalize builds the canonical form that printer.term_key prints in
one walk.  substitute_one substitutes one name by walking every node and
rebuilding it; olam.syntax.substitute_all must give the same tree,
binder names included, as substitute_one applied entry by entry.
fill_renaming_for_all_answers is the hand-written context fill that
HoleContext.fill replaced; the two must give alpha-equal terms.
subnode_at reads the node at a path, as the tests name positions.
"""
from __future__ import annotations

from collections import namedtuple

from olam.syntax import (
    _DATA,
    BINDERS,
    Forall,
    HoleContext,
    KindPi,
    Lam,
    MergeTerm,
    Node,
    OracleCall,
    OracleRef,
    Term,
    TraceTerm,
    TypeAbs,
    TypeCon,
    Var,
    children,
    forced_oracle_form,
    fresh_name,
    hole_var,
    rebuild,
)


def subnodes(node: Node) -> list[Node]:
    """node and every node below it, in preorder."""
    return [node] + [n for kid in children(node) for n in subnodes(kid)]


def free_term_vars(node: Node) -> frozenset[str]:
    match node:
        case Var(n):
            return frozenset((n,))
        case Lam(x, a, b) | TypeAbs(x, a, b) | Forall(x, a, b) | KindPi(x, a, b):
            return free_term_vars(a) | (free_term_vars(b) - {x})
        case _:
            out: frozenset[str] = frozenset()
            for c in children(node):
                out |= free_term_vars(c)
            return out


def oracle_names(node: Node) -> frozenset[str]:
    match node:
        case OracleRef(o):
            return frozenset((o,))
        case OracleCall(o, arg):
            return frozenset((o,)) | oracle_names(arg)
        case _:
            out: frozenset[str] = frozenset()
            for c in children(node):
                out |= oracle_names(c)
            return out


def alpha(
    a: Node, b: Node, env_a: dict, env_b: dict, counter: list[int], same: bool
) -> bool:
    """Alpha-equality; same holds while every enclosing binder binds one
    name on both sides, so that one shared subterm means the same on both
    sides.  Called with same False, it is the full walk, which never
    settles a comparison by identity."""
    if a is b and same:
        return True
    if type(a) is not type(b):
        return False
    match a:
        case Var(n):
            m = b.name  # type: ignore[union-attr]
            ia, ib = env_a.get(n), env_b.get(m)
            return (ia is None and ib is None and n == m) or (
                ia is not None and ia == ib
            )
        case Lam(x, ta, body) | TypeAbs(x, ta, body) | Forall(x, ta, body) | KindPi(
            x, ta, body
        ):
            if not alpha(ta, b.var_type, env_a, env_b, counter, same):  # type: ignore
                return False
            counter[0] += 1
            ea = dict(env_a)
            eb = dict(env_b)
            ea[x] = counter[0]
            eb[b.var] = counter[0]  # type: ignore[union-attr]
            same = same and x == b.var  # type: ignore[union-attr]
            return alpha(body, b.body, ea, eb, counter, same)  # type: ignore
        case _:
            data = _DATA[type(a)]
            if data(a) != data(b):
                return False
            ka, kb = children(a), children(b)
            return all(
                alpha(x, y, env_a, env_b, counter, same) for x, y in zip(ka, kb)
            )


def alpha_eq(a: Node, b: Node) -> bool:
    return a is b or alpha(a, b, {}, {}, [0], True)


def substitute_all(
    node: Node,
    mapping: dict[str, Term],
    free_names: dict[str, frozenset[str]] | None = None,
) -> Node:
    """olam.syntax.substitute_all, one frame per level."""
    free: frozenset[str] | None = None

    def walk(node: Node, names: dict[str, Term]) -> Node:
        nonlocal free, free_names
        cls = type(node)
        if cls is Var:
            return names.get(node.name, node)  # type: ignore[attr-defined]
        if cls in BINDERS:
            x, a, b = node.var, node.var_type, node.body  # type: ignore[attr-defined]
            if free is None:
                if free_names is None:
                    free_names = {n: free_term_vars(r) for n, r in mapping.items()}
                free = frozenset().union(*free_names.values())
            a2 = walk(a, names)
            if x in free:
                x, b2 = binder_body(x, b, names)
            else:
                if x in names:
                    names = {n: r for n, r in names.items() if n != x}
                b2 = walk(b, names) if names else b
            if a2 is a and b2 is b and x == node.var:  # type: ignore[attr-defined]
                return node
            return cls(x, a2, b2)
        kids = children(node)
        new: list[Node] | None = None
        for i, kid in enumerate(kids):
            kid2 = walk(kid, names)
            if kid2 is not kid:
                if new is None:
                    new = list(kids)
                new[i] = kid2
        return node if new is None else rebuild(node, tuple(new))

    def binder_body(
        x: str, b: Node, names: dict[str, Term]
    ) -> tuple[str, Node]:
        below = set(free_term_vars(b))
        run: dict[str, Term] = {}
        for n, r in names.items():
            if n == x or n not in below:
                continue
            replaced = free_names[n]  # type: ignore[index]
            if x in replaced:
                if run:
                    b = walk(b, run)
                    run = {}
                fresh = fresh_name(x, replaced | below)
                if x in below:
                    b = substitute_all(b, {x: Var(fresh)})
                    below.discard(x)
                    below.add(fresh)
                x = fresh
            run[n] = r
            below.discard(n)
            below |= replaced
        return x, walk(b, run) if run else b

    return walk(node, mapping) if mapping else node


def subnode_at(node: Node, path: tuple[int, ...]) -> Node:
    for i in path:
        kids = children(node)
        if i >= len(kids):
            raise IndexError(f"no child {i} at {type(node).__name__}")
        node = kids[i]
    return node


# one extracted redex: 1-based hole index, argument for the unary form
# (None for the nullary form), and the position path
Occurrence = namedtuple("Occurrence", "index arg path")


def decompose_oracle_context(
    t: Term, oracle: str
) -> tuple[HoleContext, tuple[Occurrence, ...]]:
    """olam.syntax.decompose_oracle_context as it was, with each hole's path,
    one frame per level."""
    occurrences: list[Occurrence] = []

    def go(node: Node, path: tuple[int, ...]) -> Node:
        form = forced_oracle_form(node)  # type: ignore[arg-type]
        if form is not None and form[0] == oracle:
            occurrences.append(Occurrence(len(occurrences) + 1, form[1], path))
            return hole_var(len(occurrences))
        if isinstance(node, (TypeCon, TraceTerm, MergeTerm)):
            return node
        kids = children(node)
        new: list[Node] | None = None
        for i, kid in enumerate(kids):
            kid2 = go(kid, path + (i,))
            if kid2 is not kid:
                if new is None:
                    new = list(kids)
                new[i] = kid2
        return node if new is None else rebuild(node, tuple(new))

    skeleton = go(t, ())
    return HoleContext(skeleton, len(occurrences)), tuple(occurrences)  # type: ignore[arg-type]


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
