"""Concrete syntax: terms, types, kinds, program files, oracle files,
target distribution files, and printer round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_printer
import reference_surface
from generators import (
    ORACLE_SOURCE,
    SIGNATURE_SOURCE,
    gen_closed_con,
    gen_closed_term,
    gen_kind,
)
from olam import printer, surface, syntax
from olam.errors import ParseError
from olam.oracles import (
    GuardArg,
    GuardContext,
    GuardDefault,
    GuardIndexIn,
    GuardIndexMod,
)
from olam.syntax import (
    App,
    Bottom,
    Choice,
    ChoiceType,
    Conj,
    Efq,
    Forall,
    Force,
    KindPi,
    Lam,
    OpaqueType,
    OracleCall,
    OracleRef,
    Pair,
    Proj,
    Star,
    TypeAbs,
    TypeApp,
    TypeName,
    Var,
    alpha_eq,
    subnodes,
)


def test_parse_application_left_associative():
    assert surface.parse_term("f a b") == App(App(Var("f"), Var("a")), Var("b"))


def test_parse_force_binds_tighter_than_application():
    t = surface.parse_term("f a!")
    assert t == App(Var("f"), Force(Var("a")))


def test_parse_postfix_chains():
    t = surface.parse_term("p.0.1!")
    assert t == Force(Proj(Proj(Var("p"), 0), 1))


def test_parse_lambda_extends_right():
    t = surface.parse_term("\\x:A. f x")
    assert t == Lam("x", TypeName("A"), App(Var("f"), Var("x")))


def test_parse_choice():
    t = surface.parse_term("choose[1/3]{a}{g b}")
    assert t == Choice(Var("a"), Fraction(1, 3), App(Var("g"), Var("b")))


def test_parse_choice_probability_out_of_range():
    with pytest.raises(ParseError) as e:
        surface.parse_term("choose[5/3]{a}{b}")
    assert e.value.code == "ProbabilityOutOfRange"


def test_parse_pair_and_projection():
    assert surface.parse_term("<a, b>.1") == Proj(Pair(Var("a"), Var("b")), 1)


def test_parse_oracle_forms():
    assert surface.parse_term("#c!") == Force(OracleRef("c"))
    # postfix ! binds to the atom, so the forced call needs parentheses
    assert surface.parse_term("#d a!") == OracleCall("d", Force(Var("a")))
    assert surface.parse_term("(#d a)!") == Force(OracleCall("d", Var("a")))
    assert printer.show(Force(OracleCall("d", Var("a")))) == "(#d a)!"


def test_parse_efq():
    t = surface.parse_term("efq(x : A)")
    assert t == Efq(Var("x"), TypeName("A"))


def test_parse_type_arrow_right_associative():
    t = surface.parse_type("A -> B -> A")
    assert isinstance(t, Forall)
    assert t.var_type == TypeName("A")
    assert isinstance(t.body, Forall)


def flat(node):
    """The nodes of a tree, each after its parent, as their classes and
    the fields that are not children, binder names among them."""
    return [(type(n), syntax._DATA[type(n)](n)) for n in subnodes(node)]


def test_arrow_chain_reads_each_node_once(monkeypatch):
    """Each arrow's binder avoids the names free on its right, which are
    gathered arrow by arrow: the free-name walks read each node of a
    chain at most once, and build the reference's tree, binder names
    included (`_`, or `_1` where `_` is free)."""
    visited = []
    free_term_vars = surface.free_term_vars

    def counted(node):
        visited.append(len(subnodes(node)))
        return free_term_vars(node)

    monkeypatch.setattr(surface, "free_term_vars", counted)
    for n in (100, 200, 400):
        for left in ("A", "P _", "A /\\ P _1"):
            text = " -> ".join([left] * n + ["P _"])
            visited.clear()
            t = surface.parse_type(text)
            # the n arrows are built, not read
            assert sum(visited) <= len(subnodes(t)) - n
            # == on the trees would recurse once per arrow
            assert flat(t) == flat(reference_surface.parse_type(text))
    assert surface.parse_type("A -> P _") == Forall(
        "_1", TypeName("A"), TypeApp(TypeName("P"), Var("_"))
    )


def test_printing_an_arrow_chain_reads_each_node_once(monkeypatch):
    """The head of a chain decides every arrow in it, folding the free
    names from the innermost body outward: the free-name walks read each
    node of the chain at most once, and the text is the reference's."""
    chains = []
    for n in (100, 200, 400):
        for left in ("A", "P _", "A /\\ P _1"):
            t = surface.parse_type(" -> ".join([left] * n + ["P _"]))
            chains.append((t, reference_printer.show(t)))
    visited = []
    free_term_vars = syntax.free_term_vars

    def counted(node):
        visited.append(len(subnodes(node)))
        return free_term_vars(node)

    # the reference printer reads free names through syntax too, so it
    # runs before the count starts
    monkeypatch.setattr(syntax, "free_term_vars", counted)
    for t, want in chains:
        visited.clear()
        assert printer.show(t) == want
        assert sum(visited) <= len(subnodes(t))


def test_parse_type_forall_dependent():
    t = surface.parse_type("forall x:A. P x")
    assert t == Forall("x", TypeName("A"), TypeApp(TypeName("P"), Var("x")))


def test_parse_type_operators():
    t = surface.parse_type("Oplus A /\\ Sigma B")
    assert t == Conj(ChoiceType(TypeName("A")), OpaqueType(TypeName("B")))


def test_parse_type_abstraction():
    t = surface.parse_type("\\\\x:A. P x")
    assert t == TypeAbs("x", TypeName("A"), TypeApp(TypeName("P"), Var("x")))


def test_parse_bottom():
    assert surface.parse_type("Bot") == Bottom()
    assert surface.parse_type("A -> Bot") == Forall(
        "x", TypeName("A"), Bottom()
    ) or isinstance(surface.parse_type("A -> Bot"), Forall)


def test_parse_kind():
    assert surface.parse_kind("*") == Star()
    k = surface.parse_kind("pi x:A. *")
    assert k == KindPi("x", TypeName("A"), Star())


def test_comments_and_layout():
    src = """
-- leading comment
atom A : *   -- trailing comment
atom a : A

main =
  g a
atom_is_not_hit = a
""".replace("g a", "a")
    parsed = surface.parse_program(src)
    assert [d.name for d in parsed.definitions] == ["main", "atom_is_not_hit"]


def test_program_sections_in_order():
    parsed = surface.parse_program(SIGNATURE_SOURCE)
    assert [a.name for a in parsed.atoms] == [
        "A", "B", "a", "b", "q", "g", "h", "P", "u",
    ]
    assert [n for n, _ in parsed.oracle_uses] == ["c", "d"]
    assert [d.name for d in parsed.definitions] == ["keep"]


def test_program_atom_after_definition_rejected():
    with pytest.raises(ParseError):
        surface.parse_program("atom A : *\nmain = a\natom B : *")


def test_program_duplicate_name():
    with pytest.raises(ParseError) as e:
        surface.parse_program("atom A : *\natom A : *")
    assert e.value.code == "DuplicateName"


def test_program_unbound_name_mentions_use():
    with pytest.raises(ParseError) as e:
        surface.parse_program("atom A : *\natom a : A\nmain = #c!")
    assert e.value.code == "UnboundName"
    assert "use c" in str(e.value)


def test_program_forward_reference_rejected():
    with pytest.raises(ParseError) as e:
        surface.parse_program("atom A : *\nmain = later\nlater = a")
    assert e.value.code == "UnboundName"


def test_program_ascription():
    parsed = surface.parse_program("atom A : *\natom a : A\nmain : A = a")
    assert parsed.definitions[0].ascription == TypeName("A")


def test_parse_oracle_file():
    defs = surface.parse_oracle_file(ORACLE_SOURCE)
    assert [d.name for d in defs] == ["c", "d"]
    c, d = defs
    assert c.arity == 0
    assert c.assoc_type == OpaqueType(TypeName("A"))
    assert [r.guard for r in c.rules] == [
        GuardIndexMod(3, 1),
        GuardIndexMod(3, 2),
        GuardDefault(),
    ]
    assert d.arity == 1
    assert d.rules[0].guard == GuardArg(Var("a"))


def test_oracle_file_guard_forms():
    src = """
oracle e arity 0 type Sigma A
  rule index in {1, 3} -> a
  rule context = "<[_1], b>" -> b
  default -> a
"""
    (e,) = surface.parse_oracle_file(src)
    assert e.rules[0].guard == GuardIndexIn(frozenset({1, 3}))
    assert e.rules[1].guard == GuardContext("<[_1], b>")


def test_oracle_file_missing_default():
    with pytest.raises(ParseError):
        surface.parse_oracle_file(
            "oracle e arity 0 type Sigma A\n  rule index in {1} -> a"
        )


def test_oracle_file_rule_after_default():
    with pytest.raises(ParseError):
        surface.parse_oracle_file(
            "oracle e arity 0 type Sigma A\n"
            "  default -> a\n  rule index in {1} -> a"
        )


def test_oracle_file_arg_guard_needs_arity_one():
    with pytest.raises(ParseError) as e:
        surface.parse_oracle_file(
            "oracle e arity 0 type Sigma A\n  rule arg = a -> a\n  default -> a"
        )
    assert e.value.code == "MalformedGuard"


def test_oracle_file_bad_residue():
    with pytest.raises(ParseError) as e:
        surface.parse_oracle_file(
            "oracle e arity 0 type Sigma A\n"
            "  rule index mod 3 = 3 -> a\n  default -> a"
        )
    assert e.value.code == "MalformedGuard"


def test_oracle_file_bad_arity():
    with pytest.raises(ParseError):
        surface.parse_oracle_file("oracle e arity 2 type Sigma A\n  default -> a")


def test_parse_distribution():
    entries = surface.parse_distribution("a = 1/3\ng b = 2/3")
    assert entries == [
        (Var("a"), Fraction(1, 3)),
        (App(Var("g"), Var("b")), Fraction(2, 3)),
    ]


def test_parse_distribution_alpha_duplicate():
    with pytest.raises(ParseError) as e:
        surface.parse_distribution("(\\x:A. x) a = 1/2\n(\\y:A. y) a = 1/2")
    assert e.value.code == "DuplicateOutcome"


def test_parse_distribution_bad_probability():
    with pytest.raises(ParseError):
        surface.parse_distribution("a = 3/2")


def test_parse_rational_text():
    assert surface.parse_rational_text("2/6") == Fraction(1, 3)
    assert surface.parse_rational_text("1") == Fraction(1)
    with pytest.raises(ParseError) as e:
        surface.parse_rational_text("0.5")
    assert e.value.code == "MalformedRational"
    with pytest.raises(ParseError):
        surface.parse_rational_text("1/0")
    # numerals are ASCII digits, unsigned, without separators
    for text in ("1_0/3", "+1/2", "\u0663/\u0664", "-1/2", "1/-2"):
        with pytest.raises(ParseError) as e:
            surface.parse_rational_text(text)
        assert e.value.code == "MalformedRational"
    assert surface.parse_rational_text(" 1/2 ") == Fraction(1, 2)


PROGRAM_HEAD = "atom A : *\natom a : A\n"
ORACLE_HEAD = "oracle e arity 0 type Sigma A\n"


@pytest.mark.parametrize(
    "parse, text, code, message, span",
    [
        ("parse_term", "a $ b", "Lexical", "stray '$'", (1, 3)),
        (
            "parse_program",
            PROGRAM_HEAD + "main = a $ a",
            "Lexical",
            "stray '$'",
            (3, 10),
        ),
        (
            "parse_oracle_file",
            ORACLE_HEAD + '  rule context = "<[_1] -> a\n  default -> a',
            "Lexical",
            "unterminated string",
            (2, 18),
        ),
        (
            "parse_distribution",
            "a = 1\n\u00b2x = 0",
            "Lexical",
            "stray '\u00b2'",
            (2, 1),
        ),
        # ² inside a name is part of it: the whole name is unbound
        (
            "parse_program",
            PROGRAM_HEAD + "main = x\u00b2",
            "UnboundName",
            "unbound name 'x\u00b2'",
            (3, 8),
        ),
        (
            "parse_oracle_file",
            ORACLE_HEAD + "  rule index mod 3 = 1 - a\n  default -> a",
            "Lexical",
            "stray '-'",
            (2, 24),
        ),
        (
            "parse_distribution",
            "a = 1/2 b",
            "Syntax",
            "trailing input starting at 'b'",
            (1, 9),
        ),
        (
            "parse_program",
            PROGRAM_HEAD + "main = choose[1/2]{a}\n  -- no right side",
            "Syntax",
            "expected LBRACE, found 'end of input'",
            (3, 21),
        ),
        ("parse_program", PROGRAM_HEAD + "main =", "Syntax", "expected a term", (3, 6)),
        (
            "parse_oracle_file",
            ORACLE_HEAD + "  rule index in {1,",
            "Syntax",
            "expected INT, found 'end of input'",
            (2, 19),
        ),
        (
            "parse_distribution",
            "a = ",
            "Syntax",
            "expected INT, found 'end of input'",
            (1, 3),
        ),
        ("parse_term", "", "Syntax", "expected a term", None),
        # a name error points at the name
        (
            "parse_program",
            "atom A : *\natom a : B",
            "UnboundName",
            "unbound type atom 'B'",
            (2, 10),
        ),
        (
            "parse_program",
            PROGRAM_HEAD + "main = #c!",
            "UnboundName",
            "oracle 'c' not imported (add `use c`)",
            (3, 9),
        ),
        # a binder's name is in scope in its body only: not in its own
        # annotation, and not after the body
        (
            "parse_program",
            PROGRAM_HEAD + "atom P : pi y:A. *\nmain = \\x:P x. x",
            "UnboundName",
            "unbound name 'x'",
            (4, 13),
        ),
        (
            "parse_program",
            PROGRAM_HEAD + "main = <\\x:A. x, x>",
            "UnboundName",
            "unbound name 'x'",
            (3, 18),
        ),
        (
            "parse_program",
            "atom A : *\natom A : *",
            "DuplicateName",
            "'A' declared twice",
            (2, 6),
        ),
        (
            "parse_program",
            PROGRAM_HEAD + "use c\nuse c",
            "DuplicateName",
            "oracle 'c' imported twice",
            (4, 5),
        ),
        (
            "parse_program",
            PROGRAM_HEAD + "a = a",
            "DuplicateName",
            "'a' declared twice",
            (3, 1),
        ),
        # the items of a program come in order: atoms, imports, definitions
        (
            "parse_program",
            "atom A : *\nuse c\natom a : A",
            "Syntax",
            "atom declarations must precede oracle imports",
            (3, 1),
        ),
        (
            "parse_program",
            PROGRAM_HEAD + "k = a\nuse c",
            "Syntax",
            "oracle imports must precede definitions",
            (4, 1),
        ),
        (
            "parse_oracle_file",
            ORACLE_HEAD + "  rule index in {0} -> a\n  default -> a",
            "MalformedGuard",
            "hole indices start at 1",
            (2, 18),
        ),
    ],
)
def test_lexer_rejects_stray_characters(parse, text, code, message, span):
    with pytest.raises(ParseError) as e:
        getattr(surface, parse)(text)
    assert (e.value.code, e.value.message, e.value.span) == (code, message, span)


def test_show_matches_concrete_syntax():
    t = surface.parse_term("(\\x:A. g x) choose[1/2]{a}{b}!")
    assert printer.show(t) == "(\\x:A. g x) choose[1/2]{a}{b}!"


def test_show_nondependent_forall_as_arrow():
    assert printer.show(surface.parse_type("A -> B")) == "A -> B"
    assert (
        printer.show(surface.parse_type("forall x:A. P x")) == "forall x:A. P x"
    )


@given(st.integers(0, 3000))
def test_term_round_trip(seed):
    t = gen_closed_term(seed)
    assert alpha_eq(surface.parse_term(printer.show(t)), t)


@given(st.integers(0, 2000))
def test_type_round_trip(seed):
    c = gen_closed_con(seed)
    assert alpha_eq(surface.parse_type(printer.show(c)), c)


@given(st.integers(0, 1000))
def test_kind_round_trip(seed):
    k = gen_kind(seed)
    assert alpha_eq(surface.parse_kind(printer.show(k)), k)


def _reference_lex_line(text, line_no):
    """The lexer before names and numerals were scanned by patterns, kept
    as the reference: a list of (kind, value, line, col)."""
    out = []

    def is_ident_char(c):
        return c.isalnum() or c == "_"

    def is_digit(c):
        return "0" <= c <= "9"

    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
            continue
        col = i + 1
        if c == "-":
            if text.startswith("--", i):
                return out
            if text.startswith("->", i):
                out.append(("ARROW", "->", line_no, col))
                i += 2
                continue
            raise ParseError("Lexical", f"stray {c!r}", (line_no, col))
        if c == "/":
            if text.startswith("/\\", i):
                out.append(("AND", "/\\", line_no, col))
                i += 2
                continue
            out.append(("SLASH", "/", line_no, col))
            i += 1
            continue
        if c == "\\":
            if text.startswith("\\\\", i):
                out.append(("CONLAM", "\\\\", line_no, col))
                i += 2
            else:
                out.append(("LAM", "\\", line_no, col))
                i += 1
            continue
        if c == ".":
            nxt = text[i + 1] if i + 1 < n else ""
            after = text[i + 2] if i + 2 < n else ""
            if nxt in "01" and not is_ident_char(after):
                out.append(("PROJ", nxt, line_no, col))
                i += 2
            else:
                out.append(("DOT", ".", line_no, col))
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("Lexical", "unterminated string", (line_no, col))
            out.append(("STRING", text[i + 1 : j], line_no, col))
            i = j + 1
            continue
        if is_digit(c):
            j = i
            while j < n and is_digit(text[j]):
                j += 1
            out.append(("INT", text[i:j], line_no, col))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and is_ident_char(text[j]):
                j += 1
            out.append(("IDENT", text[i:j], line_no, col))
            i = j
            continue
        if c in surface._PUNCT:
            out.append((surface._PUNCT[c], c, line_no, col))
            i += 1
            continue
        raise ParseError("Lexical", f"stray {c!r}", (line_no, col))
    return out


def _lexed(lex, line):
    try:
        return lex(line)
    except ParseError as e:
        return (e.code, e.message, e.span)


LEXER_PIECES = [
    "\u00b2", "\u0663", "\u216b", "e\u0301", "\t", "\r", " ", "--", '"', ".0x",
    ".1", ".0", ".", "->", "-", "/\\", "/", "\\\\", "\\", "0", "1", "42", "_",
    "x", "a1", "$", *surface._PUNCT,
]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(LEXER_PIECES),
            st.characters(blacklist_characters="\n"),
        ),
        max_size=16,
    ).map("".join)
)
def test_lexer_matches_reference(line):
    def new(text):
        out = []
        surface._lex_line(text, 3, out)
        return out

    expected = _lexed(lambda text: _reference_lex_line(text, 3), line)
    if isinstance(expected, list) and expected and expected[-1][:2] == ("PROJ", ""):
        # the reference's one fault: a "." that ends the line is PROJ ""
        expected[-1] = ("DOT", ".") + expected[-1][2:]
    assert _lexed(new, line) == expected


def test_name_pattern_is_isalnum_or_underscore():
    # the lexer scans names with \w+; that must mean str.isalnum() or "_"
    # on every code point, as the character-by-character scan did
    assert all(
        bool(surface._NAME.match(c)) == (c.isalnum() or c == "_")
        for c in map(chr, range(0x110000))
    )


PARSE_PIECES = [
    "choose[1/3]{a}{b}", "\\x:A.", "\\\\X:*.", ".", ".0", ".1", "<a, b>", "#c", '"',
    "--", "0", "12", "1/2", "\n", "\n  ", " ", "a", "x", "A", "(", ")", "<", ">",
    ",", "{", "}", "[", "]", "!", "=", ":", "->", "/\\", "*", "main =", "atom",
    "use c", "oracle c arity 0 type Sigma A", "rule", "default", "index", "mod",
    "in", "arg", "context", "pi", "forall", "Oplus", "Sigma", "Bot", "efq(",
    "\u00b2",
]


# each parser's file shape around one term, so that most texts parse far
PARSE_TEMPLATES = {
    "parse_program": "atom A : *\natom a : A\nuse c\nmain = {}\n",
    "parse_oracle_file": (
        "oracle c arity 1 type forall x:A. Sigma A\n  rule arg = {} -> a\n"
        "  default -> a\n"
    ),
    "parse_distribution": "{} = 1/2\na = 1/2\n",
}

TERM_TEXTS = st.recursive(
    st.sampled_from(["a", "x", "#c", "#c a", "efq(a : A)"]),
    lambda t: st.one_of(
        st.builds("({})".format, t),
        st.builds("<{}, {}>".format, t, t),
        st.builds("{}.0".format, t),
        st.builds("{}!".format, t),
        st.builds("\\x:A. {}".format, t),
        st.builds("choose[1/3]{{{}}}{{{}}}".format, t, t),
        st.builds("{} {}".format, t, t),
        st.builds("{}\n  {}".format, t, t),
    ),
    max_leaves=8,
)


def _splice(text, edits):
    """Insert each piece before a space or line break, or at the end."""
    for at, piece in edits:
        gaps = [i for i, c in enumerate(text) if c in " \n"] + [len(text)]
        at = gaps[at % len(gaps)]
        text = text[:at] + piece + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(PARSE_TEMPLATES)),
    TERM_TEXTS,
    st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from(PARSE_PIECES)), max_size=4
    ),
)
def test_parsers_raise_only_parse_errors(parse, term, edits):
    text = PARSE_TEMPLATES[parse].format(_splice(term, edits))
    try:
        getattr(surface, parse)(text)
    except ParseError:
        pass


def _parse_or_error(parse, text):
    """The tree parse reads from text, or its error's code, message and
    place."""
    try:
        return parse(text)
    except ParseError as e:
        return (e.code, e.message, e.span)


def assert_parses_as_reference(text):
    for name in ("parse_term", "parse_type", "parse_kind"):
        assert _parse_or_error(getattr(surface, name), text) == (
            _parse_or_error(getattr(reference_surface, name), text)
        ), (name, text)


def test_round_trip_texts_parse_as_reference():
    """Every text the three round-trip tests can draw."""
    for seed in range(3001):
        assert_parses_as_reference(printer.show(gen_closed_term(seed)))
    for seed in range(2001):
        assert_parses_as_reference(printer.show(gen_closed_con(seed)))
    for seed in range(1001):
        assert_parses_as_reference(printer.show(gen_kind(seed)))


@pytest.mark.parametrize(
    "text",
    [
        "A /\\ B /\\ C -> D /\\ E",
        "Oplus Sigma P a!.1 (g a) /\\ Bot b",
        "(A /\\ B) /\\ (P <a, b>.0)",
        "A /\\ forall x:A. P x",
        "A /\\",
        "Oplus",
        "P (",
        "P (a",
        "Sigma forall",
        "f (g a!)!.0 #c b!",
        "efq(a : A /\\ B) c",
        "pi x:A /\\ B. pi y:P x. *",
        "",
    ],
)
def test_grammar_edges_parse_as_reference(text):
    assert_parses_as_reference(text)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(PARSE_TEMPLATES)),
    TERM_TEXTS,
    st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from(PARSE_PIECES)), max_size=4
    ),
)
def test_mutated_texts_parse_as_reference(parse, term, edits):
    """The texts of test_parsers_raise_only_parse_errors, each whole and
    as the spliced term alone."""
    spliced = _splice(term, edits)
    assert_parses_as_reference(spliced)
    assert_parses_as_reference(PARSE_TEMPLATES[parse].format(spliced))


def deep(d):
    """g (g (... a)), d applications deep."""
    return "g (" * d + "a" + ")" * d


def test_parse_term_reads_450_levels():
    """A term nesting level takes two Python frames of the descent."""
    t = surface.parse_term(deep(450))
    for _ in range(450):
        assert t.fun == Var("g")
        t = t.arg
    assert t == Var("a")
