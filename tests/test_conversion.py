"""Constructor-level reduction: beta steps on type abstractions, the one-pass
normal form against the stepwise reference in both orders, its traversal
count, equivalence, kind normalization."""

from hypothesis import given
from hypothesis import strategies as st

from generators import gen_closed_con
from olam import conversion, surface, syntax
from olam.syntax import (
    Conj,
    KindPi,
    TypeAbs,
    TypeApp,
    TypeName,
    Var,
    alpha_eq,
)
from reference_conversion import (
    LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST,
    find_con_redexes,
    normalize_stepwise,
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
    assert not find_con_redexes(c)
    assert conversion.normalize_con(c) is c


def test_is_normal_con():
    # a normal form comes back as the same object, a redex does not
    normal = surface.parse_type("forall x:A. P x")
    assert not find_con_redexes(normal)
    assert conversion.normalize_con(normal) is normal
    redex = surface.parse_type("(\\\\x:A. P x) a")
    assert find_con_redexes(redex)
    assert conversion.normalize_con(redex) is not redex


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


def test_normalize_visits_each_node_once(monkeypatch):
    redexes = [
        TypeApp(
            TypeAbs("x", TypeName("A"), TypeApp(TypeName("P"), Var("x"))),
            Var(f"a{i}"),
        )
        for i in range(200)
    ]
    c = redexes[0]
    for r in redexes[1:]:
        c = Conj(c, r)

    def size(n):
        return 1 + sum(map(size, syntax.children(n)))

    # the walk reads children in syntax.rewrite, which each contraction's
    # substitution also walks its body with
    bound = size(c) + sum(size(r.con.body) for r in redexes)
    every = syntax.children
    calls = 0

    def counting(n):
        nonlocal calls
        calls += 1
        return every(n)

    monkeypatch.setattr(syntax, "children", counting)
    out = conversion.normalize_con(c)
    assert 0 < calls <= bound
    assert not find_con_redexes(out)


@given(st.integers(0, 4999))
def test_strategies_agree(seed):
    c = gen_closed_con(seed)
    one = conversion.normalize_con(c)
    assert one == normalize_stepwise(c, LEFTMOST_OUTERMOST)
    assert alpha_eq(one, normalize_stepwise(c, RIGHTMOST_INNERMOST))
    assert not find_con_redexes(one)


@given(st.integers(0, 2000))
def test_normalize_idempotent(seed):
    c = gen_closed_con(seed)
    n = conversion.normalize_con(c)
    assert conversion.normalize_con(n) == n
    assert conversion.con_equiv(c, n)
