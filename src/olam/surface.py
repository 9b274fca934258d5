"""Concrete syntax: lexer and parsers for program files (.olam), oracle
definition files (.oracle) and target distribution files (.dist).

Layout: a new top-level item starts at column 0; indented lines continue the
current item.  Comments run from `--` to end of line.
"""
from __future__ import annotations

import re
from collections.abc import Callable
from fractions import Fraction

from . import oracles
from .errors import ParseError
from .printer import term_key
from .syntax import (
    App,
    Bottom,
    Choice,
    ChoiceType,
    Conj,
    Efq,
    Forall,
    KindPi,
    Kind,
    Lam,
    Node,
    OpaqueType,
    OracleCall,
    OracleRef,
    Pair,
    Proj,
    Force,
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

KEYWORDS = frozenset(
    "forall pi choose efq atom use Oplus Sigma Bot "
    "oracle rule default arity type index mod arg context in".split()
)

_PUNCT = {
    ":": "COLON",
    "=": "EQ",
    "(": "LPAR",
    ")": "RPAR",
    "<": "LT",
    ">": "GT",
    ",": "COMMA",
    "[": "LBRACK",
    "]": "RBRACK",
    "{": "LBRACE",
    "}": "RBRACE",
    "!": "BANG",
    "#": "HASH",
    "*": "STAR",
}


@record("kind value line col")
class Token(Record):
    pass


# \w is exactly str.isalnum() or "_" on every code point; numerals are ASCII
# only, because str.isdigit also admits digits such as "²" that int() rejects
_NAME = re.compile(r"\w+")
_NUMERAL = re.compile(r"[0-9]+")


def _lex_line(text: str, line_no: int, out: list[Token]) -> None:
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
            continue
        col = i + 1
        kind = _PUNCT.get(c)
        if kind is not None:
            out.append(Token(kind, c, line_no, col))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = _NAME.match(text, i).end()
            out.append(Token("IDENT", text[i:j], line_no, col))
            i = j
            continue
        if "0" <= c <= "9":
            j = _NUMERAL.match(text, i).end()
            out.append(Token("INT", text[i:j], line_no, col))
            i = j
            continue
        if c == ".":
            # .0 and .1 project unless a name goes on; any other dot, also
            # one that ends the line, is a binder's
            nxt = text[i + 1 : i + 2]
            if (nxt == "0" or nxt == "1") and not _NAME.match(text, i + 2):
                out.append(Token("PROJ", nxt, line_no, col))
                i += 2
            else:
                out.append(Token("DOT", ".", line_no, col))
                i += 1
            continue
        if c == "-":
            if text.startswith("--", i):
                return
            if text.startswith("->", i):
                out.append(Token("ARROW", "->", line_no, col))
                i += 2
                continue
            raise ParseError("Lexical", f"stray {c!r}", (line_no, col))
        if c == "/":
            if text.startswith("/\\", i):
                out.append(Token("AND", "/\\", line_no, col))
                i += 2
                continue
            out.append(Token("SLASH", "/", line_no, col))
            i += 1
            continue
        if c == "\\":
            if text.startswith("\\\\", i):
                out.append(Token("CONLAM", "\\\\", line_no, col))
                i += 2
            else:
                out.append(Token("LAM", "\\", line_no, col))
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("Lexical", "unterminated string", (line_no, col))
            out.append(Token("STRING", text[i + 1 : j], line_no, col))
            i = j + 1
            continue
        raise ParseError("Lexical", f"stray {c!r}", (line_no, col))


def logical_lines(text: str) -> list[list[Token]]:
    """Group physical lines into top-level items by indentation."""
    groups: list[list[Token]] = []
    for k, line in enumerate(text.split("\n")):
        toks: list[Token] = []
        _lex_line(line, k + 1, toks)
        if not toks:
            continue
        if line[0] in " \t" and groups:
            groups[-1].extend(toks)
        else:
            groups.append(toks)
    return groups


class _Stream:
    """The tokens of one item, then an END token at the last token's place
    (line 0 when there are none), which is never consumed.

    In a program file the stream carries the names in scope, keyed "term",
    "type" and "oracle", and every name is resolved where it is read; the
    "term" set also holds the binders open at the current token.  Other
    text is parsed without a scope and resolves nothing."""

    __slots__ = ("tokens", "pos", "scope")

    def __init__(
        self, tokens: list[Token], scope: dict[str, set[str]] | None = None
    ):
        line, col = (tokens[-1].line, tokens[-1].col) if tokens else (0, 0)
        self.tokens = [*tokens, Token("END", "end of input", line, col)]
        self.pos = 0
        self.scope = scope

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def span(self) -> tuple[int, int] | None:
        t = self.tokens[self.pos]
        return (t.line, t.col) if t.line else None

    def error(self, message: str, code: str = "Syntax") -> ParseError:
        return ParseError(code, message, self.span())

    def next(self) -> None:
        """Consume the current token, which the caller has seen is not END."""
        self.pos += 1

    def expect(self, kind: str) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind:
            raise self.error(f"expected {kind}, found {t.value!r}")
        self.pos += 1
        return t

    def keyword(self, word: str) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "IDENT" or t.value != word:
            raise self.error(f"expected {word!r}, found {t.value!r}")
        self.pos += 1
        return t

    def at_keyword(self, word: str) -> bool:
        t = self.tokens[self.pos]
        return t.kind == "IDENT" and t.value == word

    def numeral(self) -> tuple[int, Token]:
        """The value of the next token, which must be a numeral."""
        t = self.expect("INT")
        try:
            return int(t.value), t
        except ValueError as exc:  # longer than int() accepts
            raise ParseError(
                "MalformedNumeral",
                f"numeral of {len(t.value)} digits is too long",
                (t.line, t.col),
            ) from exc

    def ident(self) -> str:
        t = self.expect("IDENT")
        if t.value in KEYWORDS:
            raise ParseError(
                "Syntax", f"{t.value!r} is a reserved word", (t.line, t.col)
            )
        return t.value

    def declared(self, space: str, unbound: str) -> str:
        """The next identifier, which must be in the scope's space when
        there is a scope; unbound, formatted with it, says it is not."""
        t = self.tokens[self.pos]
        name = self.ident()
        if self.scope is not None and name not in self.scope[space]:
            raise ParseError(
                "UnboundName", unbound.format(name), (t.line, t.col)
            )
        return name

    def new_name(self, taken: set[str], twice: str) -> str:
        """The next identifier, which must not be in taken; it is added."""
        t = self.tokens[self.pos]
        name = self.ident()
        if name in taken:
            raise ParseError("DuplicateName", twice.format(name), (t.line, t.col))
        taken.add(name)
        return name

    def done(self) -> None:
        t = self.tokens[self.pos]
        if t.kind != "END":
            raise self.error(f"trailing input starting at {t.value!r}")


def _parse(
    text: str, rule: Callable[[_Stream], Node | Fraction]
) -> Node | Fraction:
    """All of text, its lines joined as one item, read by rule."""
    ts = _Stream([t for toks in logical_lines(text) for t in toks])
    node = rule(ts)
    ts.done()
    return node


def parse_term(text: str) -> Term:
    return _parse(text, _term)


def parse_type(text: str) -> TypeCon:
    return _parse(text, _type)


def parse_kind(text: str) -> Kind:
    return _parse(text, _kind)


def parse_rational_text(text: str) -> Fraction:
    try:
        return _parse(text, _rational)
    except ParseError as exc:
        raise ParseError("MalformedRational", f"bad rational {text!r}") from exc


def _rational(ts: _Stream) -> Fraction:
    num, _ = ts.numeral()
    if ts.peek().kind == "SLASH":
        ts.next()
        den, den_tok = ts.numeral()
        if den == 0:
            raise ParseError(
                "MalformedRational",
                "zero denominator",
                (den_tok.line, den_tok.col),
            )
        return Fraction(num, den)
    return Fraction(num)


def _probability(ts: _Stream) -> Fraction:
    t = ts.peek()
    p = _rational(ts)
    if not 0 <= p <= 1:
        raise ParseError(
            "ProbabilityOutOfRange",
            f"probability {p} outside [0, 1]",
            (t.line, t.col),
        )
    return p


_TERM_START = ("LPAR", "LT", "HASH")
_NOT_TERM_ATOM = KEYWORDS - {"choose", "efq"}


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
    head = _atom(ts)
    while _starts_term_atom(ts.peek()):
        arg = _atom(ts)
        if isinstance(head, OracleRef):
            head = OracleCall(head.oracle, arg)
        else:
            head = App(head, arg)
    return head


def _atom(ts: _Stream) -> Term:
    """An atom, then its chain of `!` and `.i`."""
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
            t = Choice(left, p, right)
        elif tok.value == "efq":
            ts.next()
            ts.expect("LPAR")
            body = _term(ts)
            ts.expect("COLON")
            target = _type(ts)
            ts.expect("RPAR")
            t = Efq(body, target)
        else:
            t = Var(ts.declared("term", "unbound name {!r}"))
    elif tok.kind == "HASH":
        ts.next()
        t = OracleRef(
            ts.declared("oracle", "oracle {0!r} not imported (add `use {0}`)")
        )
    elif tok.kind == "LT":
        ts.next()
        left = _term(ts)
        ts.expect("COMMA")
        right = _term(ts)
        ts.expect("GT")
        t = Pair(left, right)
    elif tok.kind == "LPAR":
        ts.next()
        t = _term(ts)
        ts.expect("RPAR")
    elif tok.kind == "END":
        raise ts.error("expected a term")
    else:
        raise ts.error(f"expected a term, found {tok.value!r}")
    tok = ts.peek()
    while tok.kind == "BANG" or tok.kind == "PROJ":
        t = Force(t) if tok.kind == "BANG" else Proj(t, int(tok.value))
        ts.next()
        tok = ts.peek()
    return t


def _type(ts: _Stream) -> TypeCon:
    """A type; an arrow chain is read in a loop and folded to the right."""
    lefts: list[TypeCon] = []
    while True:
        if ts.at_keyword("forall"):
            ts.next()
            right = Forall(*_binder(ts, _type))
            break
        if ts.peek().kind == "CONLAM":
            ts.next()
            right = TypeAbs(*_binder(ts, _type))
            break
        conjuncts = [_unary(ts)]
        while ts.peek().kind == "AND":
            ts.next()
            conjuncts.append(_unary(ts))
        right = conjuncts.pop()
        while conjuncts:  # /\ nests to the right
            right = Conj(conjuncts.pop(), right)
        if ts.peek().kind != "ARROW":
            break
        ts.next()
        lefts.append(right)
    if not lefts:
        return right
    # each arrow binds a name not free on its right, so the names free in
    # the arrow are those on its right and its left's
    free = set(free_term_vars(right))
    while True:
        left = lefts.pop()
        right = Forall(fresh_name("_", free), left, right)
        if not lefts:
            return right
        free |= free_term_vars(left)


def _unary(ts: _Stream) -> TypeCon:
    """Oplus and Sigma prefixes, then a type atom and its term arguments."""
    tok = ts.peek()
    if tok.kind == "IDENT":
        if tok.value == "Oplus":
            ts.next()
            return ChoiceType(_unary(ts))
        if tok.value == "Sigma":
            ts.next()
            return OpaqueType(_unary(ts))
        if tok.value == "Bot":
            ts.next()
            head = Bottom()
        elif tok.value not in KEYWORDS:
            head = TypeName(ts.declared("type", "unbound type atom {!r}"))
        else:
            raise ts.error(f"expected a type, found {tok.value!r}")
    elif tok.kind == "LPAR":
        ts.next()
        head = _type(ts)
        ts.expect("RPAR")
    elif tok.kind == "END":
        raise ts.error("expected a type")
    else:
        raise ts.error(f"expected a type, found {tok.value!r}")
    while _starts_term_atom(ts.peek()):
        head = TypeApp(head, _atom(ts))
    return head


def _kind(ts: _Stream) -> Kind:
    if ts.peek().kind == "STAR":
        ts.next()
        return Star()
    if ts.at_keyword("pi"):
        ts.next()
        return KindPi(*_binder(ts, _kind))
    raise ts.error("expected a kind")


# ----------------------------------------------------------- program files


@record("name classifier line")
class AtomDecl(Record):
    """`atom n : K` (type-level, K a kind) or `atom n : T` (term constant)."""


@record("name ascription term line")
class Definition(Record):
    pass


@record("atoms oracle_uses definitions")
class SourceFile(Record):
    pass


def parse_program(text: str) -> SourceFile:
    """A program file; every name must be declared earlier in the file."""
    atoms: list[AtomDecl] = []
    uses: list[tuple[str, int]] = []
    defs: list[Definition] = []
    scope: dict[str, set[str]] = {"term": set(), "type": set(), "oracle": set()}
    seen: set[str] = set()
    for toks in logical_lines(text):
        ts = _Stream(toks, scope)
        line = toks[0].line
        if ts.at_keyword("atom"):
            if defs or uses:
                raise ts.error("atom declarations must precede oracle imports")
            ts.next()
            name = ts.new_name(seen, "{!r} declared twice")
            ts.expect("COLON")
            if ts.peek().kind == "STAR" or ts.at_keyword("pi"):
                classifier = _kind(ts)
            else:
                classifier = _type(ts)
            ts.done()
            atoms.append(AtomDecl(name, classifier, line))
            scope["type" if isinstance(classifier, Kind) else "term"].add(name)
        elif ts.at_keyword("use"):
            if defs:
                raise ts.error("oracle imports must precede definitions")
            ts.next()
            uses.append(
                (ts.new_name(scope["oracle"], "oracle {!r} imported twice"), line)
            )
            ts.done()
        else:
            name = ts.new_name(seen, "{!r} declared twice")
            ascription = None
            if ts.peek().kind == "COLON":
                ts.next()
                ascription = _type(ts)
            ts.expect("EQ")
            term = _term(ts)
            ts.done()
            defs.append(Definition(name, ascription, term, line))
            scope["term"].add(name)
    return SourceFile(tuple(atoms), tuple(uses), tuple(defs))


# ------------------------------------------------------------ oracle files


def parse_oracle_file(text: str) -> list[oracles.OracleDef]:
    defs: list[oracles.OracleDef] = []
    for toks in logical_lines(text):
        ts = _Stream(toks)
        ts.keyword("oracle")
        name = ts.ident()
        ts.keyword("arity")
        arity, arity_tok = ts.numeral()
        if arity not in (0, 1):
            raise ParseError(
                "Syntax",
                f"arity must be 0 or 1, got {arity}",
                (arity_tok.line, arity_tok.col),
            )
        ts.keyword("type")
        assoc = _type(ts)
        rules: list[oracles.OracleRule] = []
        saw_default = False
        while ts.peek().kind != "END":
            line = ts.peek().line
            if ts.at_keyword("rule"):
                if saw_default:
                    raise ts.error("rules may not follow the default")
                ts.next()
                guard = _guard(ts, arity)
            elif ts.at_keyword("default"):
                ts.next()
                guard = oracles.GuardDefault()
                saw_default = True
            else:
                raise ts.error("expected `rule` or `default`")
            ts.expect("ARROW")
            rules.append(oracles.OracleRule(guard, _term(ts), line))
        if not saw_default:
            raise ParseError(
                "Syntax", f"oracle {name!r} lacks a default rule", (toks[0].line, 1)
            )
        ts.done()
        defs.append(
            oracles.OracleDef(name, arity, assoc, tuple(rules), toks[0].line)
        )
    return defs


def _guard(ts: _Stream, arity: int) -> oracles.Guard:
    if ts.at_keyword("index"):
        ts.next()
        if ts.at_keyword("mod"):
            ts.next()
            k, k_tok = ts.numeral()
            ts.expect("EQ")
            r, _ = ts.numeral()
            if k < 1 or not 0 <= r < k:
                raise ParseError(
                    "MalformedGuard",
                    f"residue {r} mod {k} is not well-formed",
                    (k_tok.line, k_tok.col),
                )
            return oracles.GuardIndexMod(k, r)
        ts.keyword("in")
        ts.expect("LBRACE")
        indices: list[int] = []
        while True:
            index, i_tok = ts.numeral()
            if index < 1:
                raise ParseError(
                    "MalformedGuard",
                    "hole indices start at 1",
                    (i_tok.line, i_tok.col),
                )
            indices.append(index)
            if ts.peek().kind == "COMMA":
                ts.next()
                continue
            break
        ts.expect("RBRACE")
        return oracles.GuardIndexIn(frozenset(indices))
    if ts.at_keyword("arg"):
        if arity != 1:
            raise ts.error("`arg` guards require arity 1", "MalformedGuard")
        ts.next()
        ts.expect("EQ")
        return oracles.GuardArg(_term(ts))
    if ts.at_keyword("context"):
        ts.next()
        ts.expect("EQ")
        return oracles.GuardContext(ts.expect("STRING").value)
    raise ts.error("expected a guard (index / arg / context)")


# ------------------------------------------------- target distribution files


def parse_distribution(text: str) -> list[tuple[Term, Fraction]]:
    entries: list[tuple[Term, Fraction]] = []
    seen: dict[str, Term] = {}
    for toks in logical_lines(text):
        ts = _Stream(toks)
        term = _term(ts)
        eq = ts.expect("EQ")
        prob = _rational(ts)
        ts.done()
        if not 0 <= prob <= 1:
            raise ParseError(
                "ProbabilityOutOfRange",
                f"probability {prob} outside [0, 1]",
                (eq.line, eq.col),
            )
        prev = seen.setdefault(term_key(term), term)
        if prev is not term:
            raise ParseError(
                "DuplicateOutcome",
                f"outcome {prev} listed twice",
                (toks[0].line, toks[0].col),
            )
        entries.append((term, prob))
    return entries
