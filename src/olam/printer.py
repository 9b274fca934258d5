"""Pretty-printer.  parse(show(x)) is the identity up to alpha-renaming for
every term, type constructor and kind that the surface grammar covers;
recorded computations ([...] forms) and context holes (variables [_i]) print
but do not re-parse.

Printing is one loop over a stack of text pieces and (node, precedence)
items, so a node of any depth prints in one Python frame."""
from __future__ import annotations

from . import syntax as s

# term precedence: 0 whole term, 1 application head, 2 postfix/argument
# type precedence: 0 whole type, 1 arrow operand, 2 conjunct, 3 application head


def show(node: s.Node) -> str:
    return _text(node, False)


def term_key(t: s.Term) -> str:
    """Canonical alpha-class key: t printed with its bound variables renamed
    ?0, ?1, ... in printed order, in one walk.  Binders are numbered from 0,
    each after its annotation and before its body, and binder k prints as
    ?k.  `?` is not an identifier character, so canonical names cannot
    collide with free names."""
    return _text(t, True)


def _prob_suffix(p) -> str:
    return "" if p is None else f"^{p}"


def _listed(nodes, sep: str) -> list:
    return [piece for u in nodes for piece in (sep, (u, 0))][1:]


def _merge(n: s.MergeTerm) -> tuple:
    mid = [piece for br in n.branches for piece in (" / ", *_listed(br, ", "))]
    return ("[", (n.source, 0), ", [", *mid[1:], "], ", (n.target, 0),
            "]" + _prob_suffix(n.prob))


# the pieces of each node that binds no name, in printed order
_LAYOUT = {
    s.OracleRef: lambda n: ("#" + n.oracle,),
    s.OracleCall: lambda n: (f"#{n.oracle} ", (n.arg, 2)),
    s.App: lambda n: ((n.fun, 1), " ", (n.arg, 2)),
    s.Choice: lambda n: (f"choose[{n.prob}]{{", (n.left, 0), "}{", (n.right, 0), "}"),
    s.Force: lambda n: ((n.body, 2), "!"),
    s.Pair: lambda n: ("<", (n.left, 0), ", ", (n.right, 0), ">"),
    s.Proj: lambda n: ((n.pair, 2), f".{n.index}"),
    s.Efq: lambda n: ("efq(", (n.body, 0), " : ", (n.target, 0), ")"),
    s.TraceTerm: lambda n: ("[", *_listed(n.steps, ", "), "]" + _prob_suffix(n.prob)),
    s.MergeTerm: _merge,
    s.TypeName: lambda n: (n.name,),
    s.Bottom: lambda n: ("Bot",),
    s.Conj: lambda n: ((n.left, 2), " /\\ ", (n.right, 1)),
    s.ChoiceType: lambda n: ("Oplus ", (n.body, 2)),
    s.OpaqueType: lambda n: ("Sigma ", (n.body, 2)),
    s.TypeApp: lambda n: ((n.con, 3), " ", (n.arg, 2)),
    s.Star: lambda n: ("*",),
}
# what a binder prints before its name; a Forall whose name is not free in
# its body prints as an arrow
_BINDER_HEAD = {s.Lam: "\\", s.TypeAbs: "\\\\", s.Forall: "forall ", s.KindPi: "pi "}
# the precedence above which a node is parenthesised
_WRAP = {s.OracleCall: 1, s.App: 1, s.Conj: 1, s.ChoiceType: 2, s.OpaqueType: 2}


def _text(node: s.Node, renaming: bool) -> str:
    """node printed; if renaming, with bound names canonical (term_key).
    Then a binder's annotation is followed on the stack by (binder, -k),
    where out[k - 2] holds its name, or by (binder, -1) if it prints none.
    That item numbers the binder, writes the number over its name, and
    pushes the body and then (binder, outer), which restores what the name
    prints as outside the body ("" for itself)."""
    out: list[str] = []
    names: dict[str, str] = {}
    # whether each Forall prints as an arrow, its name not free in its body
    arrows: dict[int, bool] = {}
    count = 0
    stack: list = [(node, 0)]
    push = stack.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, prec = item
        cls = type(node)
        if cls is s.Var:
            out.append(names.get(node.name) or node.name)
        elif cls in _LAYOUT:
            if prec > _WRAP.get(cls, 3):
                out.append("(")
                push(")")
            stack += reversed(_LAYOUT[cls](node))
        elif cls not in _BINDER_HEAD:
            raise TypeError(f"cannot print {cls.__name__}")
        elif type(prec) is str:
            names[node.var] = prec
        elif prec < 0:
            name = f"?{count}"
            count += 1
            if prec < -1:
                out[-2 - prec] = name
            push((node, names.get(node.var, "")))
            names[node.var] = name
            push((node.body, 0))
        else:
            if prec > 0:
                out.append("(")
                push(")")
            if cls is s.Forall and id(node) not in arrows:
                # the head of a chain of Foralls, each the body of the one
                # before, decides the chain: the free names fold from the
                # innermost body outward, so each node is read once
                chain = [node]
                while type(chain[-1].body) is s.Forall:
                    chain.append(chain[-1].body)
                free = set(s.free_term_vars(chain[-1].body))
                for link in reversed(chain):
                    arrows[id(link)] = link.var not in free
                    free.discard(link.var)
                    free |= s.free_term_vars(link.var_type)
            arrow = cls is s.Forall and arrows[id(node)]
            if not arrow:
                out += (_BINDER_HEAD[cls], node.var, ":")
            push((node, -1 if arrow else -len(out)) if renaming else (node.body, 0))
            push(" -> " if arrow else ". ")
            push((node.var_type, 1 if arrow else 0))
    return "".join(out)


# reduction step labels, displayed exactly as the calculus writes them
LABEL_DISPLAY = {
    "beta": "β",
    "proj": "π",
    "left": "left",
    "right": "right",
    "oracle": "ω",
}


def show_label(label: str) -> str:
    return LABEL_DISPLAY[label]
