"""The parser's descent as it was with one function per grammar level,
kept as a reference for olam.surface.

Here a term nesting level takes three Python frames (_term, _postfix,
_atom) and a parenthesised type five (_type, _conj, _unary, _tyapp,
_tyatom).  Tests compare parse_term, parse_type and parse_kind with the
functions below, tree for tree and error for error.
"""
from __future__ import annotations

from collections.abc import Callable

from olam import surface
from olam.surface import _NOT_TERM_ATOM, _TERM_START, KEYWORDS, _lex_line, _probability
from olam.syntax import (
    App,
    Bottom,
    Choice,
    ChoiceType,
    Conj,
    Efq,
    Force,
    Forall,
    Kind,
    KindPi,
    Lam,
    Node,
    OpaqueType,
    OracleCall,
    OracleRef,
    Pair,
    Proj,
    Record,
    Star,
    Term,
    TypeAbs,
    TypeApp,
    TypeCon,
    TypeName,
    Var,
    fresh_name,
    free_term_vars,
    record,
)


@record("kind value line col")
class Token(Record):
    """One of olam.surface's token tuples as a record."""


class _Stream(surface._Stream):
    """olam.surface's token stream, whose current token this grammar reads
    as a Token."""

    __slots__ = ()

    def peek(self) -> Token:
        return Token(*self.tokens[self.pos])


def tokenize(text: str) -> list[tuple]:
    out: list[tuple] = []
    for k, line in enumerate(text.split("\n")):
        _lex_line(line, k + 1, out)
    return out


def _starts_term_atom(t: Token) -> bool:
    if t.kind == "IDENT":
        return t.value not in _NOT_TERM_ATOM
    return t.kind in _TERM_START


def _binder(ts: _Stream, body: Callable[[_Stream], Node]) -> tuple:
    """The name, annotation and body after a binder's keyword; the name is
    in scope in the body, not in the annotation."""
    x = ts.ident()
    ts.expect("COLON")
    a = _type(ts)
    ts.expect("DOT")
    names = None if ts.scope is None else ts.scope["term"]
    if names is None or x in names:
        return x, a, body(ts)
    names.add(x)
    b = body(ts)
    names.remove(x)
    return x, a, b


def _term(ts: _Stream) -> Term:
    if ts.peek().kind == "LAM":
        ts.next()
        return Lam(*_binder(ts, _term))
    head = _postfix(ts)
    while _starts_term_atom(ts.peek()):
        arg = _postfix(ts)
        if isinstance(head, OracleRef):
            head = OracleCall(head.oracle, arg)
        else:
            head = App(head, arg)
    return head


def _postfix(ts: _Stream) -> Term:
    t = _atom(ts)
    tok = ts.peek()
    while tok.kind == "BANG" or tok.kind == "PROJ":
        t = Force(t) if tok.kind == "BANG" else Proj(t, int(tok.value))
        ts.next()
        tok = ts.peek()
    return t


def _atom(ts: _Stream) -> Term:
    tok = ts.peek()
    if tok.kind == "IDENT":
        if tok.value == "choose":
            ts.next()
            ts.expect("LBRACK")
            p = _probability(ts)
            ts.expect("RBRACK")
            ts.expect("LBRACE")
            left = _term(ts)
            ts.expect("RBRACE")
            ts.expect("LBRACE")
            right = _term(ts)
            ts.expect("RBRACE")
            return Choice(left, p, right)
        if tok.value == "efq":
            ts.next()
            ts.expect("LPAR")
            body = _term(ts)
            ts.expect("COLON")
            target = _type(ts)
            ts.expect("RPAR")
            return Efq(body, target)
        return Var(ts.declared("term", "unbound name {!r}"))
    if tok.kind == "HASH":
        ts.next()
        return OracleRef(
            ts.declared("oracle", "oracle {0!r} not imported (add `use {0}`)")
        )
    if tok.kind == "LT":
        ts.next()
        left = _term(ts)
        ts.expect("COMMA")
        right = _term(ts)
        ts.expect("GT")
        return Pair(left, right)
    if tok.kind == "LPAR":
        ts.next()
        inner = _term(ts)
        ts.expect("RPAR")
        return inner
    if tok.kind == "END":
        raise ts.error("expected a term")
    raise ts.error(f"expected a term, found {tok.value!r}")


def _type(ts: _Stream) -> TypeCon:
    if ts.at_keyword("forall"):
        ts.next()
        return Forall(*_binder(ts, _type))
    if ts.peek().kind == "CONLAM":
        ts.next()
        return TypeAbs(*_binder(ts, _type))
    left = _conj(ts)
    if ts.peek().kind == "ARROW":
        ts.next()
        right = _type(ts)
        return Forall(fresh_name("_", free_term_vars(right)), left, right)
    return left


def _conj(ts: _Stream) -> TypeCon:
    left = _unary(ts)
    if ts.peek().kind == "AND":
        ts.next()
        return Conj(left, _conj(ts))
    return left


def _unary(ts: _Stream) -> TypeCon:
    if ts.at_keyword("Oplus"):
        ts.next()
        return ChoiceType(_unary(ts))
    if ts.at_keyword("Sigma"):
        ts.next()
        return OpaqueType(_unary(ts))
    return _tyapp(ts)


def _tyapp(ts: _Stream) -> TypeCon:
    head = _tyatom(ts)
    while _starts_term_atom(ts.peek()):
        head = TypeApp(head, _postfix(ts))
    return head


def _tyatom(ts: _Stream) -> TypeCon:
    tok = ts.peek()
    if tok.kind == "IDENT" and tok.value == "Bot":
        ts.next()
        return Bottom()
    if tok.kind == "IDENT" and tok.value not in KEYWORDS:
        return TypeName(ts.declared("type", "unbound type atom {!r}"))
    if tok.kind == "LPAR":
        ts.next()
        inner = _type(ts)
        ts.expect("RPAR")
        return inner
    if tok.kind == "END":
        raise ts.error("expected a type")
    raise ts.error(f"expected a type, found {tok.value!r}")


def _kind(ts: _Stream) -> Kind:
    if ts.peek().kind == "STAR":
        ts.next()
        return Star()
    if ts.at_keyword("pi"):
        ts.next()
        return KindPi(*_binder(ts, _kind))
    raise ts.error("expected a kind")


def _parse(text: str, rule: Callable[[_Stream], Node]) -> Node:
    ts = _Stream(tokenize(text))
    node = rule(ts)
    ts.done()
    return node


def parse_term(text: str) -> Term:
    return _parse(text, _term)


def parse_type(text: str) -> TypeCon:
    return _parse(text, _type)


def parse_kind(text: str) -> Kind:
    return _parse(text, _kind)
