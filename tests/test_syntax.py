"""Core term algebra: substitution, alpha-equivalence, canonical
renaming, positional access, oracle context decomposition, tuples."""

import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import gen_closed_con, gen_closed_term, gen_substitution_instance
from olam import checker, oracles, printer, reducer, surface, syntax, traces, trust
from olam.errors import ReductionError
from olam.syntax import (
    App,
    Bottom,
    Choice,
    ChoiceType,
    Conj,
    Efq,
    Forall,
    Force,
    Fuel,
    KindPi,
    Lam,
    MergeTerm,
    Node,
    OpaqueType,
    OracleCall,
    OracleRef,
    Pair,
    Proj,
    Star,
    TraceTerm,
    TypeAbs,
    TypeApp,
    TypeName,
    Var,
    alpha_eq,
    children,
    decompose_oracle_context,
    free_term_vars,
    fresh_name,
    hole_var,
    make_tuple,
    pair_spine,
    rebuild,
    substitute,
    substitute_all,
    tuple_components,
)
from reference_syntax import (
    alpha,
    canonicalize,
    fill_renaming_for_all_answers,
    subnode_at,
    substitute_one,
)

A = TypeName("A")


def test_substitute_replaces_free_occurrences():
    t = App(Var("x"), Var("y"))
    assert substitute(t, "x", Var("a")) == App(Var("a"), Var("y"))


def test_substitute_ignores_bound_occurrences():
    t = Lam("x", A, App(Var("x"), Var("y")))
    out = substitute(t, "x", Var("a"))
    assert alpha_eq(out, t)


def test_substitute_avoids_capture():
    # [y := x] under \x must rename the binder, not capture
    t = Lam("x", A, App(Var("x"), Var("y")))
    out = substitute(t, "y", Var("x"))
    assert isinstance(out, Lam)
    assert out.var != "x"
    assert out.body == App(Var(out.var), Var("x"))


def test_substitute_inside_type_annotation():
    t = Lam("z", TypeName("P"), Var("z"))
    # annotations are constructor-level; term substitution reaches
    # embedded terms inside dependent types
    dep = Lam("z", TypeApp(TypeName("P"), Var("x")), Var("z"))
    out = substitute(dep, "x", Var("a"))
    assert out == Lam("z", TypeApp(TypeName("P"), Var("a")), Var("z"))
    assert substitute(t, "x", Var("a")) == t


def test_substitute_reads_the_replacement_free_names_once(monkeypatch):
    replacement = Var("a")
    for _ in range(100):
        replacement = App(Var("g"), replacement)
    inner = Proj(Pair(Var("f"), Var("a")), 0)
    body = inner
    for i in reversed(range(50)):
        body = Lam(f"y{i}", A, body)
    calls = []
    walk = syntax.free_term_vars

    def size(node):
        return 1 + sum(map(size, children(node)))

    def counted(node):
        # free_term_vars walks in one call: count the nodes it reads
        calls.append(size(node))
        return walk(node)

    monkeypatch.setattr(syntax, "free_term_vars", counted)
    out = substitute(body, "f", replacement)
    # one walk of the 201 nodes of the replacement, not one per binder
    assert 0 < sum(calls) <= 250
    for _ in range(50):
        out = out.body
    assert out == Proj(Pair(replacement, Var("a")), 0)
    calls.clear()
    assert substitute(inner, "f", replacement) == out
    assert calls == []


# Mapped names, and the other names replacements have free; binders take
# all of them, and a1, the first fresh name for a, so that a binder can
# shadow an entry, capture a replacement's free name, or collide with a
# fresh name.
MAPPED = ("n0", "n1", "n2", "n3")
OTHERS = ("a", "a1", "y")


def _gen_term(rng, free, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return Var(rng.choice(free))
    x = rng.choice(MAPPED + OTHERS)
    if roll < 0.5:
        return Lam(x, _gen_con(rng, free, depth - 1), _gen_term(rng, free, depth - 1))
    if roll < 0.75:
        return App(_gen_term(rng, free, depth - 1), _gen_term(rng, free, depth - 1))
    return Pair(_gen_term(rng, free, depth - 1), _gen_term(rng, free, depth - 1))


def _gen_con(rng, free, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return A
    x = rng.choice(MAPPED + OTHERS)
    if roll < 0.6:
        return TypeApp(TypeName("P"), _gen_term(rng, free, depth - 1))
    if roll < 0.8:
        return Forall(x, A, _gen_con(rng, free, depth - 1))
    con = TypeAbs(x, A, _gen_con(rng, free, depth - 1))
    return TypeApp(con, _gen_term(rng, free, depth - 1))


def gen_mapping_instance(seed):
    """A subject and an ordered mapping in which no replacement has a
    later entry's name free."""
    rng = random.Random(seed)
    order = rng.sample(MAPPED, rng.randint(1, len(MAPPED)))
    mapping = {}
    for i, name in enumerate(order):
        free = OTHERS + tuple(n for n in MAPPED if n not in order[i:])
        mapping[name] = _gen_term(rng, free, rng.randint(0, 2))
    subject = _gen_term(rng, MAPPED + OTHERS, 5)
    if rng.random() < 0.3:
        subject = _gen_con(rng, MAPPED + OTHERS, 5)
    return subject, mapping


def binder_names(node):
    own = {node.var} if isinstance(node, syntax.BINDERS) else set()
    return own.union(*map(binder_names, children(node)))


def test_substituting_a_mapping_is_substituting_its_entries_in_order():
    captures = renamed = 0
    for seed in range(3000):
        subject, mapping = gen_mapping_instance(seed)
        expected = subject
        for name, replacement in mapping.items():
            expected = substitute_one(expected, name, replacement)
        # equality, not alpha-equality: the binder names are the same
        assert substitute_all(subject, mapping) == expected, seed
        frees = {n: free_term_vars(r) for n, r in mapping.items()}
        assert substitute_all(subject, mapping, frees) == expected, seed
        spliced = frozenset().union(*map(free_term_vars, mapping.values()))
        if len(mapping) > 1 and binder_names(subject) & spliced:
            captures += 1
            renamed += binder_names(expected) != binder_names(subject)
    # the generator reaches the binders that split the mapping, and
    # renaming below them
    assert captures > 500 and renamed > 200


def test_entries_before_a_renaming_are_substituted_first():
    """Substituting n0 := a renames the inner binder a to a2, avoiding the
    a1 of the body; n1 := a1 then renames the outer binder a1 to a11.
    Renaming a1 first would free the name a1 for the inner binder."""
    subject = Lam(
        "a1", A, Pair(Lam("a", A, Pair(Var("n0"), Var("a1"))), Var("n1"))
    )
    mapping = {"n0": Var("a"), "n1": Var("a1")}
    expected = subject
    for name, replacement in mapping.items():
        expected = substitute_one(expected, name, replacement)
    assert str(expected) == "\\a11:A. <\\a2:A. <a, a11>, a1>"
    assert substitute_all(subject, mapping) == expected


def test_substitution_shares_what_it_does_not_change():
    big = gen_closed_term(3)
    t = Pair(big, Lam("y", A, App(Var("x"), Var("y"))))
    out = substitute_all(t, {"x": Var("a"), "zz": Var("b")})
    assert out == Pair(big, Lam("y", A, App(Var("a"), Var("y"))))
    assert out.left is big
    assert out.right.var_type is A
    assert substitute_all(t, {"zz": Var("a")}) is t
    assert substitute(t, "y", Var("a")) is t


def test_free_term_vars():
    t = Lam("x", A, App(Var("x"), App(Var("y"), Var("z"))))
    assert free_term_vars(t) == frozenset({"y", "z"})


def test_alpha_eq_renames_binders():
    s = Lam("x", A, Var("x"))
    t = Lam("y", A, Var("y"))
    assert alpha_eq(s, t)
    assert not alpha_eq(s, Lam("y", A, Var("x")))


def test_alpha_eq_of_one_object_makes_no_walk(monkeypatch):
    t = Lam("x", A, Pair(Var("x"), Force(Choice(Var("a"), Fraction(1, 2), Var("b")))))
    copy = Lam("y", A, Pair(Var("y"), Force(Choice(Var("a"), Fraction(1, 2), Var("b")))))
    calls = []
    every = syntax.children

    def counted(node):
        # the walk is one loop: count the nodes whose children it reads
        calls.append(node)
        return every(node)

    monkeypatch.setattr(syntax, "children", counted)
    assert alpha_eq(t, t)
    assert calls == []
    assert alpha_eq(t, copy)
    assert calls
    # below a binder one shared object can mean two things: x is bound by
    # the outer lambda on the left and by the inner one on the right
    shared = Var("x")
    assert not alpha_eq(
        Lam("x", A, Lam("y", A, shared)), Lam("y", A, Lam("x", A, shared))
    )


def _copy(node):
    """node rebuilt, sharing no object but its leaves."""
    return rebuild(node, tuple(map(_copy, children(node))))


def _gen_sharing_pair(rng, pool, depth):
    """Two terms of one shape around subterms from pool that both hold as
    one object; at each binder the two sides bind one name or two."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        shared = rng.choice(pool)
        return shared, shared
    if roll < 0.4:
        u = _gen_term(rng, MAPPED + OTHERS, 2)
        return u, _copy(u) if rng.random() < 0.5 else rng.choice(pool)
    if roll < 0.7:
        x = rng.choice(OTHERS)
        y = x if rng.random() < 0.5 else rng.choice(OTHERS)
        a, b = _gen_sharing_pair(rng, pool, depth - 1)
        return Lam(x, A, a), Lam(y, A, b)
    (a1, b1), (a2, b2) = (_gen_sharing_pair(rng, pool, depth - 1) for _ in "lr")
    node = App if rng.random() < 0.5 else Pair
    return node(a1, a2), node(b1, b2)


def test_alpha_eq_of_shared_subterms_matches_the_full_walk():
    """Identity settles a comparison only while every binder above binds
    one name on both sides; the full walk (same False) never uses it."""
    shared = Pair(Var("x"), Var("y"))
    assert not alpha_eq(Lam("x", A, shared), Lam("y", A, shared))
    assert alpha_eq(Lam("x", A, shared), Lam("x", A, shared))
    outcomes = Counter()
    for seed in range(3000):
        rng = random.Random(seed)
        pool = [_gen_term(rng, OTHERS, 3) for _ in range(3)]
        a, b = _gen_sharing_pair(rng, pool, 5)
        if a is b:
            continue
        expected = alpha(a, b, {}, {}, [0], False)
        assert alpha_eq(a, b) == expected, seed
        outcomes[expected] += 1
    assert outcomes[True] > 500 and outcomes[False] > 500


def test_alpha_eq_distinguishes_probabilities():
    # every field that is not a child is data: changing it breaks equality
    l, r = Var("a"), Var("b")
    half, third = Fraction(1, 2), Fraction(1, 3)
    pairs = [
        (OracleRef("c"), OracleRef("d")),
        (OracleCall("c", l), OracleCall("d", l)),
        (hole_var(1), hole_var(2)),
        (TypeName("A"), TypeName("B")),
        (Proj(l, 0), Proj(l, 1)),
        (Choice(l, half, r), Choice(l, third, r)),
        (TraceTerm((l, r), half), TraceTerm((l, r), third)),
        (TraceTerm((l, r), half), TraceTerm((l, r), None)),
        (TraceTerm((l, r), half), TraceTerm((l, r, r), half)),
        (MergeTerm(l, ((l,),), r, half), MergeTerm(l, ((l,),), r, third)),
        (MergeTerm(l, ((l, r), (l,)), r), MergeTerm(l, ((l,), (r, l)), r)),
    ]
    for x, y in pairs:
        assert alpha_eq(x, x)
        assert not alpha_eq(x, y)
        assert not alpha_eq(y, x)


def test_canonicalize_is_alpha_invariant():
    s = Lam("x", A, Lam("y", A, App(Var("x"), Var("y"))))
    t = Lam("u", A, Lam("v", A, App(Var("u"), Var("v"))))
    assert canonicalize(s) == canonicalize(t)


def test_term_key_prints_the_canonical_form():
    """term_key renames while it prints; it must print what canonicalize
    builds: binders numbered after their annotations, a shadowing binder
    renamed only in its own body, and a Forall that prints as an arrow
    numbered all the same."""
    P = TypeName("P")
    dependent = Forall("y", A, TypeApp(P, Var("y")))
    arrow = Forall("y", A, A)
    context, _ = decompose_oracle_context(
        App(
            Lam("x", arrow, Pair(Force(OracleRef("c")), Var("x"))),
            Force(OracleCall("c", Var("a"))),
        ),
        "c",
    )
    assert "[_2]" in printer.term_key(context.skeleton)
    x = Var("x")
    shadowed = Lam("x", A, Lam("x", A, App(x, x)))
    terms = [
        Lam("x", A, Pair(shadowed, x)),
        Lam("x", TypeApp(P, x), Lam("y", A, x)),
        Lam("f", arrow, Lam("g", dependent, App(Var("g"), Var("f")))),
        Lam("f", Forall("x", arrow, dependent), Efq(Var("f"), arrow)),
        Lam("f", TypeApp(TypeAbs("x", A, TypeApp(P, x)), x), Var("f")),
        Lam("x", A, TraceTerm((x, shadowed), Fraction(1))),
        MergeTerm(shadowed, ((Lam("x", arrow, x),),), x),
        context.skeleton,
    ]
    terms += [gen_closed_term(seed) for seed in range(1000)]
    terms += [Lam("k", gen_closed_con(seed), Var("k")) for seed in range(1000)]
    for t in terms:
        assert printer.term_key(t) == printer.show(canonicalize(t))


def test_children_and_rebuild_round_trip():
    t = App(Lam("x", A, Var("x")), Pair(Var("a"), Var("b")))
    assert rebuild(t, children(t)) == t


def node_classes():
    """The classes of syntax.py's nodes: those that declare their fields."""
    return {
        cls
        for cls in vars(syntax).values()
        if isinstance(cls, type)
        and issubclass(cls, Node)
        and "__match_args__" in vars(cls)
    }


# each node class's fields in order, its children marked *
SHAPES = {
    Var: "name",
    OracleRef: "oracle",
    OracleCall: "oracle *arg",
    Lam: "var *var_type *body",
    App: "*fun *arg",
    Choice: "*left prob *right",
    Force: "*body",
    Pair: "*left *right",
    Proj: "*pair index",
    Efq: "*body *target",
    TraceTerm: "steps prob labels",
    MergeTerm: "source branches target prob labels",
    TypeName: "name",
    TypeAbs: "var *var_type *body",
    TypeApp: "*con *arg",
    Forall: "var *var_type *body",
    ChoiceType: "*body",
    OpaqueType: "*body",
    Conj: "*left *right",
    Bottom: "",
    Star: "",
    KindPi: "var *var_type *body",
}


def test_node_classes_are_built_from_their_shapes():
    """Each node class has its fields as __slots__ and __match_args__ and no
    __dict__; children reads the fields marked * and rebuild replaces them,
    and the others are the data equality compares.  The recorded
    computations, whose children sit in tuples, read them as
    test_children_order_for_binders shows, and default prob and labels to
    None."""
    assert set(SHAPES) == node_classes()
    for cls, shape in SHAPES.items():
        names = tuple(f.lstrip("*") for f in shape.split())
        assert cls.__match_args__ == cls.__slots__ == names
        values = [f"{n}!" for n in names]
        node = cls(*values)
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.other = 1
        assert [getattr(node, n) for n in names] == values
        if cls in (TraceTerm, MergeTerm):
            continue
        kids = tuple(v for f, v in zip(shape.split(), values) if f[0] == "*")
        data = tuple(v for f, v in zip(shape.split(), values) if f[0] != "*")
        assert children(node) == kids and syntax._DATA[cls](node) == data
        renamed = rebuild(node, tuple(kid.upper() for kid in kids))
        assert type(renamed) is cls and syntax._DATA[cls](renamed) == data
        assert children(renamed) == tuple(kid.upper() for kid in kids)
    for node in (TraceTerm((A,)), MergeTerm(A, (), A)):
        assert node.prob is None and node.labels is None


def test_equality_and_hash_are_structural():
    """Two nodes are equal when they have the same classes and the same data
    at every position, the labels of evidence aside, and equal nodes hash
    alike.  Equality is not alpha-equality."""
    half, third = Fraction(1, 2), Fraction(1, 3)

    def build(x="x", index=0, prob=half):
        choice = Choice(Var("a"), prob, Var("b"))
        return Lam(x, A, Pair(Proj(Var(x), index), choice))

    t = build()
    assert t == build() and not t != build() and hash(t) == hash(build())
    for other in (build(index=1), build(prob=third), build(x="y")):
        assert t != other and not t == other
    assert alpha_eq(t, build(x="y"))
    assert Var("a") != TypeName("a") and Var("a") != "a"
    steps = (t, Var("a"))
    labelled = TraceTerm(steps, half, (((), "beta"),))
    assert labelled == TraceTerm((build(), Var("a")), half)
    assert hash(labelled) == hash(TraceTerm(steps, half))
    assert labelled != TraceTerm(steps, third) and labelled != TraceTerm(steps[:1])
    # the same children, split into branches two ways
    a, b = Var("a"), Var("b")
    assert MergeTerm(a, ((b,), (b, b)), a) != MergeTerm(a, ((b, b), (b,)), a)
    assert {t, build(), labelled, TraceTerm(steps, half)} == {t, labelled}


def test_repr_prints_the_node():
    """repr is the class name around the printed node; a node of any depth
    takes it (test_walks)."""
    f, a = Var("f"), Var("a")
    assert repr(App(f, a)) == "App(f a)"
    assert repr(Star()) == "Star(*)"
    assert repr(TraceTerm((App(f, a), a), Fraction(1))) == "TraceTerm([f a, a]^1)"
    assert repr([Lam("x", A, f)]) == "[Lam(\\x:A. f)]"


# each record class's fields in order: ? defaults to None, and ~ is left out
# of ==, hash and repr
RECORDS = {
    oracles.GuardIndexIn: "indices",
    oracles.GuardIndexMod: "modulus residue",
    oracles.GuardArg: "pattern",
    oracles.GuardContext: "fingerprint",
    oracles.GuardDefault: "",
    oracles.OracleRule: "guard output line?~",
    oracles.OracleDef: "name arity assoc_type rules line?~",
    surface.Token: "kind value line col",
    surface.AtomDecl: "name classifier line",
    surface.Definition: "name ascription term line",
    surface.SourceFile: "atoms oracle_uses definitions",
    reducer.TermRedex: "path kind oracle?",
    reducer.TraceQuadruple: "before after prob label path? parent?~",
    reducer.SampleResult: "term prob trace",
    trust.TrustSpec: "entries epsilon",
    trust.TrustRow: "outcome target derived deviation passed",
    trust.TrustReport: "verdict rows extra extra_mass total epsilon "
    "distribution evidence",
    traces.MapstoJudgment: "source target prob witness",
    traces.StepGraph: "terms texts edges leaves",
    checker.CheckedProgram: "env registry def_types main_term main_type",
    syntax.HoleContext: "skeleton count _fingerprint?~",
}


def test_record_classes_are_built_from_their_fields():
    """Each record class has its fields as __slots__ and __match_args__ and
    no __dict__, takes them in order, and defaults the fields marked ? to
    None.  Two records of one class are equal, and hash alike, when their
    fields not marked ~ are; tokens and steps, unhashable as dataclasses,
    hash too.  repr is the dataclass form, without the fields marked ~."""
    modules = (checker, oracles, reducer, surface, syntax, traces, trust)
    found = {
        cls
        for m in modules
        for cls in vars(m).values()
        if isinstance(cls, type) and issubclass(cls, syntax.Record)
    }
    assert set(RECORDS) == found - {syntax.Record}
    for cls, fields in RECORDS.items():
        marked = fields.split()
        names = tuple(f.strip("?~") for f in marked)
        assert cls.__match_args__ == cls.__slots__ == names, cls
        values = [f"{n}!" for n in names]
        optional = sum("?" in f for f in marked)
        required = values[: len(names) - optional]
        if required:
            with pytest.raises(TypeError):
                cls(*required[:-1])
        short = cls(*required)
        assert [getattr(short, n) for n in names] == required + [None] * optional
        rec = cls(*values)
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.other = 1
        assert [getattr(rec, n) for n in names] == values
        assert rec == cls(*values) and hash(rec) == hash(cls(*values))
        assert rec.__eq__(values) is NotImplemented
        for i, f in enumerate(marked):
            other = cls(*values[:i], "changed", *values[i + 1 :])
            if "~" in f:
                assert rec == other and hash(rec) == hash(other), (cls, f)
            else:
                assert rec != other and not rec == other, (cls, f)
    rule = oracles.OracleRule(oracles.GuardDefault(), Var("a"), 3)
    assert rule == oracles.OracleRule(oracles.GuardDefault(), Var("a"), 4)
    assert repr(oracles.GuardIndexMod(3, 1)) == "GuardIndexMod(modulus=3, residue=1)"
    step = reducer.TraceQuadruple(Var("a"), Var("b"), Fraction(1, 2), "left", (0,), A)
    assert repr(step) == (
        "TraceQuadruple(before=Var(a), after=Var(b), prob=Fraction(1, 2),"
        " label='left', path=(0,))"
    )
    match oracles.GuardIndexMod(3, 1):
        case oracles.GuardIndexMod(modulus, residue):
            assert (modulus, residue) == (3, 1)


def test_children_order_for_binders():
    # one instance of every node class with its children in printed order
    a, b, x = Var("a"), Var("b"), Var("x")
    half = Fraction(1, 2)
    table = [
        (a, ()),
        (OracleRef("c"), ()),
        (OracleCall("c", a), (a,)),
        (Lam("x", A, x), (A, x)),
        (App(a, b), (a, b)),
        (Choice(a, half, b), (a, b)),
        (Force(a), (a,)),
        (Pair(a, b), (a, b)),
        (Proj(a, 1), (a,)),
        (Efq(a, A), (a, A)),
        (TraceTerm((a, b, x), half), (a, b, x)),
        (MergeTerm(a, ((b,), (x, b)), x, half), (a, b, x, b, x)),
        (A, ()),
        (TypeAbs("x", A, TypeApp(A, x)), (A, TypeApp(A, x))),
        (TypeApp(A, a), (A, a)),
        (Forall("x", A, Bottom()), (A, Bottom())),
        (ChoiceType(A), (A,)),
        (OpaqueType(A), (A,)),
        (Conj(A, Bottom()), (A, Bottom())),
        (Bottom(), ()),
        (Star(), ()),
        (KindPi("x", A, Star()), (A, Star())),
    ]
    assert {type(node) for node, _ in table} == node_classes()
    for node, kids in table:
        assert children(node) == kids
        assert rebuild(node, kids) == node
        # rebuild puts each child where children reads it back
        assert children(rebuild(node, kids[::-1])) == kids[::-1]
    for not_a_node in ("a", 1, None, (a, b)):
        with pytest.raises(TypeError):
            children(not_a_node)
        with pytest.raises(TypeError):
            rebuild(not_a_node, ())


def test_subnode_at():
    t = App(Var("f"), Force(Choice(Var("a"), Fraction(1, 2), Var("b"))))
    assert subnode_at(t, ()) == t
    assert subnode_at(t, (1, 0, 0)) == Var("a")
    assert subnode_at(t, (1, 0, 1)) == Var("b")


def test_subnode_at_bad_path():
    with pytest.raises(IndexError):
        subnode_at(Var("a"), (0,))


def test_fresh_name_avoids_collisions():
    assert fresh_name("x", frozenset({"x", "x1"})) not in {"x", "x1"}
    assert fresh_name("x", frozenset()) == "x"


def test_fuel_exhaustion():
    fuel = Fuel(2)
    fuel.spend()
    fuel.spend()
    with pytest.raises(ReductionError) as e:
        fuel.spend()
    assert e.value.code == "FuelExhausted"


def test_make_tuple_right_nested():
    parts = [Var("a"), Var("b"), Var("c")]
    t = make_tuple(parts)
    assert t == Pair(Var("a"), Pair(Var("b"), Var("c")))
    assert pair_spine(t) == parts
    assert tuple_components(t, 3) == parts


def test_tuple_single_component():
    assert make_tuple([Var("a")]) == Var("a")
    assert tuple_components(Var("a"), 1) == [Var("a")]


def test_decompose_fill_identity():
    t = App(Force(OracleRef("c")), Force(OracleCall("c", Var("a"))))
    ctx, args = decompose_oracle_context(t, "c")
    assert len(args) == 2
    assert ctx.count == 2
    assert subnode_at(ctx.skeleton, (0,)) == hole_var(1)
    refilled = ctx.fill(
        {
            i: Force(OracleRef("c")) if arg is None else Force(OracleCall("c", arg))
            for i, arg in enumerate(args, 1)
        }
    )
    assert refilled == t


FILL_BINDERS = ("a", "b", "a1", "x")
FILL_ATOMS = ("a", "b", "a1")


def _gen_context_term(rng, scope, depth):
    """A small term with a forced call of oracle c wherever a hole goes;
    its binders are named from FILL_BINDERS."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return Force(OracleRef("c"))
        return Var(rng.choice(FILL_ATOMS + scope))
    if roll < 0.6:
        x = rng.choice(FILL_BINDERS)
        return Lam(x, A, _gen_context_term(rng, scope + (x,), depth - 1))
    make = Pair if roll < 0.8 else App
    return make(
        _gen_context_term(rng, scope, depth - 1),
        _gen_context_term(rng, scope, depth - 1),
    )


def binder_sequence(node):
    own = [node.var] if isinstance(node, syntax.BINDERS) else []
    return own + [x for kid in children(node) for x in binder_sequence(kid)]


def test_fill_substitutes_each_answer_for_its_hole():
    """fill is substitution of the holes in index order: the same tree as
    substituting them one at a time, and alpha-equal to the fill that
    renamed a binder for any answer's names."""
    renamed = 0
    for seed in range(2000):
        rng = random.Random(seed)
        ctx, _ = decompose_oracle_context(_gen_context_term(rng, (), 4), "c")
        contents = {
            i: Var(rng.choice(FILL_ATOMS)) for i in range(1, ctx.count + 1)
        }
        filled = ctx.fill(contents)
        expected = ctx.skeleton
        for i, answer in contents.items():
            expected = substitute_one(expected, hole_var(i).name, answer)
        assert filled == expected, seed
        assert alpha_eq(filled, fill_renaming_for_all_answers(ctx, contents)), seed
        # answers are atoms, so the binders line up in preorder
        renamed += binder_sequence(filled) != binder_sequence(ctx.skeleton)
    assert renamed > 100


def test_decompose_outermost_only():
    # a forced call inside another forced call is part of the outer redex
    t = Force(OracleCall("d", Force(OracleCall("d", Var("a")))))
    ctx, args = decompose_oracle_context(t, "d")
    assert len(args) == 1
    assert subnode_at(ctx.skeleton, ()) == hole_var(1)
    assert args[0] == Force(OracleCall("d", Var("a")))


def test_decompose_skips_recorded_computations():
    inner = Force(OracleRef("c"))
    t = Pair(TraceTerm((inner, Var("a")), Fraction(1)), inner)
    ctx, _ = decompose_oracle_context(t, "c")
    assert ctx.count == 1
    assert subnode_at(ctx.skeleton, (1,)) == hole_var(1)


def test_decompose_skips_merge_interiors():
    inner = Force(OracleRef("c"))
    m = MergeTerm(inner, ((inner,),), Var("a"), Fraction(1))
    ctx, _ = decompose_oracle_context(Pair(m, inner), "c")
    assert ctx.count == 1
    assert subnode_at(ctx.skeleton, (1,)) == hole_var(1)


def _peak_bytes(run) -> int:
    """The most memory allocated at once while run runs, per tracemalloc.
    A full collection first empties the free lists, whose objects
    tracemalloc would not see allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frequency_table_memory_grows_with_its_width():
    """A width-W table is a tuple nested W deep.  Doubling W at most
    2.5-folds the peak memory of decomposing its context and of checking
    its frequency judgment: a position that carried its path made both
    grow as W squared, 3.9-fold from W = 2000 to 4000."""
    checked = checker.check_program(
        surface.parse_program(
            "atom A : *\natom a : A\natom b : A\nuse c\nmain = #c!\n"
        ),
        surface.parse_oracle_file(
            "oracle c arity 0 type Sigma A\n"
            "  rule index mod 3 = 1 -> a\n  default -> b\n"
        ),
    )
    env, registry = checked.env, checked.registry
    peaks = []
    for width in (2000, 4000):
        table = make_tuple([checked.main_term] * width)
        _, (claim, *_) = traces.oracle_frequency(env, "c", None, width, registry)
        peaks.append(
            (
                _peak_bytes(lambda: decompose_oracle_context(table, "c")),
                _peak_bytes(
                    lambda: traces.check_trace(env, claim.witness, claim, registry)
                ),
            )
        )
    for small, large in zip(*peaks):
        assert large <= 2.5 * small, (small, large)


@given(st.integers(0, 2000))
def test_canonicalize_idempotent(seed):
    t = gen_closed_term(seed)
    c = canonicalize(t)
    assert canonicalize(c) == c
    assert alpha_eq(t, c)


@given(st.integers(0, 2000))
def test_rebuild_identity_everywhere(seed):
    t = gen_closed_term(seed)

    def walk(node):
        assert rebuild(node, children(node)) == node
        for kid in children(node):
            walk(kid)

    walk(t)


@given(st.integers(0, 2000))
def test_substitution_commutation(seed):
    # subject[t/x][s[t/x]/y] == subject[s/y][t/x] with t closed
    subject, x, t, y, s = gen_substitution_instance(seed)
    lhs = substitute(substitute(subject, x, t), y, substitute(s, x, t))
    rhs = substitute(substitute(subject, y, s), x, t)
    assert alpha_eq(lhs, rhs)


@given(st.integers(0, 1000))
def test_substitute_noop_when_absent(seed):
    t = gen_closed_con(seed)
    assert substitute(t, "zz_not_free", Var("a")) == t
