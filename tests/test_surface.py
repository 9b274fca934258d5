"""Concrete syntax: terms, types, kinds, program files, oracle files,
target distribution files, and printer round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import (
    ORACLE_SOURCE,
    SIGNATURE_SOURCE,
    gen_closed_con,
    gen_closed_term,
    gen_kind,
)
from olam import printer, surface
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


def test_lexer_rejects_stray_characters():
    with pytest.raises(ParseError) as e:
        surface.parse_term("a $ b")
    assert e.value.code == "Lexical"


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
