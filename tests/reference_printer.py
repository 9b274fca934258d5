"""The printer as olam.printer had it before printing moved onto an explicit
stack: show_term, show_type and show_kind call themselves, one Python frame
per tree level, and term_key renames through _bound's frames.  Kept for the
tests to compare olam.printer.show and term_key against."""
from __future__ import annotations

from olam import syntax as s

# term precedence: 0 whole term, 1 application head, 2 postfix/argument
# type precedence: 0 whole type, 1 arrow operand, 2 conjunct, 3 application head


def show(node: s.Node) -> str:
    if isinstance(node, s.Term):
        return show_term(node, 0)
    if isinstance(node, s.TypeCon):
        return show_type(node, 0)
    return show_kind(node)


def term_key(t: s.Term) -> str:
    """Canonical alpha-class key: t printed with its bound variables renamed
    ?0, ?1, ... in printed order (see _Renaming), in one walk."""
    return show_term(t, 0, _Renaming())


class _Renaming:
    """Canonical names for bound term variables while printing: binders are
    numbered from 0 in printed order, each after its annotation and before
    its body, and binder k prints as ?k.

    `?` is not an identifier character, so canonical names cannot collide
    with free names."""

    __slots__ = ("names", "count")

    def __init__(self) -> None:
        self.names: dict[str, str] = {}
        self.count = 0


def _bound(x: str, body, show_body, ren: _Renaming | None) -> tuple[str, str]:
    """A binder's printed name and the text of its body, printed at
    precedence 0 under the binder's canonical name if renaming."""
    if ren is None:
        return x, show_body(body, 0)
    name = f"?{ren.count}"
    ren.count += 1
    outer = ren.names
    ren.names = {**outer, x: name}
    text = show_body(body, 0, ren)
    ren.names = outer
    return name, text


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def show_term(t: s.Term, prec: int = 0, ren: _Renaming | None = None) -> str:
    match t:
        case s.Var(n):
            return n if ren is None else ren.names.get(n, n)
        case s.OracleRef(o):
            return f"#{o}"
        case s.OracleCall(o, arg):
            return _wrap(f"#{o} {show_term(arg, 2, ren)}", prec > 1)
        case s.Lam(x, a, b):
            ann = show_type(a, 0, ren)
            x, body = _bound(x, b, show_term, ren)
            return _wrap(f"\\{x}:{ann}. {body}", prec > 0)
        case s.App(f, a):
            return _wrap(
                f"{show_term(f, 1, ren)} {show_term(a, 2, ren)}", prec > 1
            )
        case s.Choice(l, p, r):
            return (
                f"choose[{p}]{{{show_term(l, 0, ren)}}}"
                f"{{{show_term(r, 0, ren)}}}"
            )
        case s.Force(b):
            return f"{show_term(b, 2, ren)}!"
        case s.Pair(l, r):
            return f"<{show_term(l, 0, ren)}, {show_term(r, 0, ren)}>"
        case s.Proj(b, i):
            return f"{show_term(b, 2, ren)}.{i}"
        case s.Efq(b, a):
            return f"efq({show_term(b, 0, ren)} : {show_type(a, 0, ren)})"
        case s.TraceTerm(steps, p):
            inner = ", ".join(show_term(u, 0, ren) for u in steps)
            return f"[{inner}]{_prob_suffix(p)}"
        case s.MergeTerm(src, branches, tgt, p):
            head = show_term(src, 0, ren)
            mid = " / ".join(
                ", ".join(show_term(u, 0, ren) for u in br) for br in branches
            )
            tail = show_term(tgt, 0, ren)
            return f"[{head}, [{mid}], {tail}]{_prob_suffix(p)}"
    raise TypeError(f"not a term: {t!r}")


def _prob_suffix(p) -> str:
    return "" if p is None else f"^{p}"


def show_type(c: s.TypeCon, prec: int = 0, ren: _Renaming | None = None) -> str:
    match c:
        case s.TypeName(n):
            return n
        case s.Bottom():
            return "Bot"
        case s.Forall(x, a, b):
            arrow = x not in s.free_term_vars(b)
            ann = show_type(a, 1 if arrow else 0, ren)
            x, body = _bound(x, b, show_type, ren)
            if arrow:
                return _wrap(f"{ann} -> {body}", prec > 0)
            return _wrap(f"forall {x}:{ann}. {body}", prec > 0)
        case s.TypeAbs(x, a, b):
            ann = show_type(a, 0, ren)
            x, body = _bound(x, b, show_type, ren)
            return _wrap(f"\\\\{x}:{ann}. {body}", prec > 0)
        case s.Conj(l, r):
            return _wrap(
                f"{show_type(l, 2, ren)} /\\ {show_type(r, 1, ren)}", prec > 1
            )
        case s.ChoiceType(b):
            return _wrap(f"Oplus {show_type(b, 2, ren)}", prec > 2)
        case s.OpaqueType(b):
            return _wrap(f"Sigma {show_type(b, 2, ren)}", prec > 2)
        case s.TypeApp(f, a):
            return f"{show_type(f, 3, ren)} {show_term(a, 2, ren)}"
    raise TypeError(f"not a type constructor: {c!r}")


def show_kind(k: s.Kind) -> str:
    match k:
        case s.Star():
            return "*"
        case s.KindPi(x, a, b):
            return f"pi {x}:{show_type(a, 0)}. {show_kind(b)}"
    raise TypeError(f"not a kind: {k!r}")
