"""Constructor-level reduction: beta steps on type abstractions, both
normalization strategies, equivalence, kind normalization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import gen_closed_con
from olam import conversion, surface
from olam.errors import ReductionError
from olam.syntax import (
    KindPi,
    TypeAbs,
    TypeApp,
    TypeName,
    Var,
    alpha_eq,
)


def test_normalize_con_beta():
    c = surface.parse_type("(\\\\x:A. P x) a")
    out = conversion.normalize_con(c)
    assert out == surface.parse_type("P a")


def test_normalize_con_under_binder():
    c = surface.parse_type("forall y:A. (\\\\x:A. P x) y")
    out = conversion.normalize_con(c)
    assert alpha_eq(out, surface.parse_type("forall y:A. P y"))


def test_normalize_con_nested():
    c = surface.parse_type("(\\\\x:A. (\\\\y:A. P y) x) a")
    assert conversion.normalize_con(c) == surface.parse_type("P a")


def test_normalize_leaves_term_redexes_alone():
    # term-level beta inside a type argument is not a constructor redex
    c = surface.parse_type("P ((\\x:A. x) a)")
    assert conversion.normalize_con(c) == c
    assert not conversion.find_con_redexes(c)


def test_find_con_redexes_positions():
    c = TypeApp(
        TypeAbs("x", TypeName("A"), TypeApp(TypeName("P"), Var("x"))),
        Var("a"),
    )
    assert conversion.find_con_redexes(c) == [()]
    assert conversion.find_con_redexes(TypeName("A")) == []


def test_is_normal_con():
    assert not conversion.find_con_redexes(surface.parse_type("forall x:A. P x"))
    assert conversion.find_con_redexes(surface.parse_type("(\\\\x:A. P x) a"))


def test_con_equiv():
    a = surface.parse_type("(\\\\x:A. P x) a")
    b = surface.parse_type("P a")
    assert conversion.con_equiv(a, b)
    assert not conversion.con_equiv(a, surface.parse_type("P b"))


def test_normalize_kind():
    k = KindPi(
        "x",
        TypeApp(TypeAbs("y", TypeName("A"), TypeName("B")), Var("a")),
        surface.parse_kind("*"),
    )
    out = conversion.normalize_kind(k)
    assert out == KindPi("x", TypeName("B"), surface.parse_kind("*"))


def test_normalize_fuel_zero():
    c = surface.parse_type("(\\\\x:A. P x) a")
    with pytest.raises(ReductionError) as e:
        conversion.normalize_con(c, fuel=0)
    assert e.value.code == "FuelExhausted"


def test_strategies_exist():
    assert conversion.LEFTMOST_OUTERMOST != conversion.RIGHTMOST_INNERMOST


@given(st.integers(0, 3000))
def test_strategies_agree(seed):
    c = gen_closed_con(seed)
    lo = conversion.normalize_con(c, strategy=conversion.LEFTMOST_OUTERMOST)
    ri = conversion.normalize_con(c, strategy=conversion.RIGHTMOST_INNERMOST)
    assert alpha_eq(lo, ri)
    assert not conversion.find_con_redexes(lo)


@given(st.integers(0, 2000))
def test_normalize_idempotent(seed):
    c = gen_closed_con(seed)
    n = conversion.normalize_con(c)
    assert conversion.normalize_con(n) == n
    assert conversion.con_equiv(c, n)
