"""One traversal protocol: the walks of syntax, conversion and the printer,
and the parser's term reader, run on explicit stacks.

No function in those modules, nor in the reducer, the oracles or the
CLI, calls itself; every walk takes a node of any depth at the default
recursion limit; and every walk gives what its recursive form, kept in
tests/reference_*.py, gives.  Equality, hashing and repr of nodes are
walks too."""

import ast
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reference_conversion
import reference_printer
import reference_syntax
from generators import gen_closed_con, gen_closed_term, gen_kind
from olam import conversion, printer, surface, syntax
from olam.syntax import (
    App,
    Choice,
    ChoiceType,
    Force,
    Lam,
    OracleRef,
    Pair,
    TypeAbs,
    TypeApp,
    TypeName,
    Var,
    alpha_eq,
    decompose_oracle_context,
    free_term_vars,
    hole_var,
    make_tuple,
    oracle_names,
    substitute,
    substitute_all,
    subnodes,
)
from reference_syntax import subnode_at

SRC = Path(syntax.__file__).parent
A = TypeName("A")
DEPTH = 5000


@pytest.mark.parametrize(
    "module",
    [
        "syntax.py",
        "printer.py",
        "conversion.py",
        "surface.py",
        "reducer.py",
        "oracles.py",
        "cli.py",
    ],
)
def test_no_function_calls_itself(module):
    """Nested closures included: a call of a function's own name anywhere in
    its body, or of self.name in a method, is a self-call."""
    tree = ast.parse((SRC / module).read_text())
    calling = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                calling.append(f"{fn.name} line {call.lineno}")
    assert calling == []


# ---------------------------------------------------------------- deep nodes


def tuple_text(parts):
    return "".join(f"<{p}, " for p in parts[:-1]) + parts[-1] + ">" * (len(parts) - 1)


def g_chain(a):
    t = Var(a)
    for _ in range(DEPTH):
        t = App(Var("g"), t)
    return t


def redexes(a):
    return make_tuple([App(Lam("x", A, Var("x")), Var(a))] * DEPTH)


def lam_chain(a, x="x"):
    t = Pair(Var(f"{x}0"), Var(a))
    for i in reversed(range(DEPTH)):
        t = Lam(f"{x}{i}", A, t)
    return t


def type_chain(a):
    con = TypeName("P")
    for _ in range(DEPTH):
        con = TypeApp(con, Var("x"))
    return Lam("y", TypeApp(TypeAbs("x", A, con), Var(a)), Var("y"))


def oracle_tuple(a):
    c = Force(OracleRef("c"))
    return make_tuple([c] * (DEPTH - 1) + [Pair(c, Var(a))])


N = DEPTH
CON = "P" + " x" * N
# build(a) with a's printed text, its term_key, free names, oracle names,
# and its normal form's printed text when that is not the node itself
DEEP = {
    "g_chain": (
        g_chain,
        lambda a: "g (" * (N - 1) + f"g {a}" + ")" * (N - 1),
        None,
        {"g", "a"},
        set(),
        None,
    ),
    "redexes": (
        redexes,
        lambda a: tuple_text([f"(\\x:A. x) {a}"] * N),
        tuple_text([f"(\\?{i}:A. ?{i}) a" for i in range(N)]),
        {"a"},
        set(),
        None,
    ),
    "lam_chain": (
        lam_chain,
        lambda a: "".join(f"\\x{i}:A. " for i in range(N)) + f"<x0, {a}>",
        "".join(f"\\?{i}:A. " for i in range(N)) + "<?0, a>",
        {"a"},
        set(),
        None,
    ),
    "type_chain": (
        type_chain,
        lambda a: f"\\y:(\\\\x:A. {CON}) {a}. y",
        f"\\?1:(\\\\?0:A. {CON.replace('x', '?0')}) a. ?1",
        {"a"},
        set(),
        f"\\y:{CON.replace('x', 'a')}. y",
    ),
    "oracle_tuple": (
        oracle_tuple,
        lambda a: tuple_text(["#c!"] * (N - 1) + [f"<#c!, {a}>"]),
        None,
        {"a"},
        {"c"},
        None,
    ),
}


@pytest.mark.parametrize("case", list(DEEP))
def test_walks_take_any_depth(case):
    """At the default recursion limit, every walk reads a node 5000 deep."""
    assert sys.getrecursionlimit() <= 1000 < DEPTH
    build, text, key, free, oracles, normal = DEEP[case]
    start = time.perf_counter()
    t = build("a")
    assert printer.show(t) == text("a")
    assert repr(t) == f"{type(t).__name__}({text('a')})"
    twin, other = build("a"), build("b")
    assert t == twin and not t != twin and hash(t) == hash(twin)
    assert t != other and not t == other
    assert printer.term_key(t) == (key or text("a"))
    assert free_term_vars(t) == free
    assert oracle_names(t) == oracles
    assert alpha_eq(t, build("a"))
    assert not alpha_eq(t, build("b"))
    assert printer.show(substitute(t, "a", Var("b"))) == text("b")
    assert substitute(t, "z", Var("b")) is t
    normal_form = conversion.normalize_con(t)
    if normal is None:
        assert normal_form is t
    else:
        assert printer.show(normal_form) == normal
    context, args = decompose_oracle_context(t, "c")
    assert context.count == len(args) == (DEPTH if oracles else 0)
    redex = {i: Force(OracleRef("c")) for i in range(1, len(args) + 1)}
    assert printer.show(context.fill(redex)) == text("a")
    assert time.perf_counter() - start < 5


def choose_chain(a):
    t = Var(a)
    for _ in range(DEPTH):
        t = Choice(t, Fraction(1, 2), Var("b"))
    return t


def force_chain(a):
    t = Var(a)
    for _ in range(DEPTH):
        t = Force(t)
    return t


def oplus_prefix(a):
    con = TypeName("A")
    for _ in range(DEPTH):
        con = ChoiceType(con)
    return Lam("y", con, Var(a))


# build(a) and a's text, for the parser: the cases above and three more
PARSED = {
    **{case: (build, text) for case, (build, text, *_) in DEEP.items()},
    "choose_chain": (choose_chain, lambda a: "choose[1/2]{" * N + a + "}{b}" * N),
    "force_chain": (force_chain, lambda a: a + "!" * N),
    "oplus_prefix": (oplus_prefix, lambda a: "\\y:" + "Oplus " * N + f"A. {a}"),
}


@pytest.mark.parametrize("case", list(PARSED))
def test_parse_term_reads_any_depth(case):
    """At the default recursion limit, the parser reads a term 5000 deep:
    terms on its explicit stack, Oplus and Sigma prefixes in a loop."""
    assert sys.getrecursionlimit() <= 1000 < DEPTH
    build, text = PARSED[case]
    assert surface.parse_term(text("a")) == build("a")


def test_deep_walks_rename_and_compare_binders():
    """A capture-renaming binder deep in a chain, and alpha-equality of two
    chains that bind other names."""
    t = lam_chain("a")
    renamed = printer.show(substitute(t, "a", Var("x3")))
    assert renamed == printer.show(lam_chain("x3")).replace("\\x3:", "\\x31:")
    assert alpha_eq(t, lam_chain("a", "y"))
    assert not alpha_eq(t, lam_chain("y0", "y"))
    context = decompose_oracle_context(oracle_tuple("a"), "c")[0]
    last = (1,) * (DEPTH - 1) + (0,)
    assert subnode_at(context.skeleton, last) == hole_var(context.count)


# ---------------------------------------------------- recursive references


def test_walks_match_their_recursive_references():
    """On seeds 0-1999, each walk gives what its recursive form gives;
    == compares binder names, so renames must agree too."""
    subs = [
        {"a": Var("x1")},
        {"a": App(Var("g"), Var("x0")), "b": Var("x1")},
        {"x0": Var("b"), "g": Lam("x1", A, Var("x0"))},
    ]
    previous = Var("a")
    for seed in range(2000):
        t, c = gen_closed_term(seed), gen_closed_con(seed)
        for node in (t, c, gen_kind(seed)):
            assert sorted(map(id, subnodes(node))) == sorted(
                map(id, reference_syntax.subnodes(node))
            )
            assert free_term_vars(node) == reference_syntax.free_term_vars(node)
            assert oracle_names(node) == reference_syntax.oracle_names(node)
            assert printer.show(node) == reference_printer.show(node)
            assert conversion.normalize_node(
                node
            ) == reference_conversion.normalize_node(node)
            for mapping in subs:
                assert substitute_all(
                    node, mapping
                ) == reference_syntax.substitute_all(node, mapping)
        for u in (t, Lam("k", c, Var("k"))):
            assert printer.term_key(u) == reference_printer.term_key(u)
        for o in ("c", "d"):
            context, args = decompose_oracle_context(t, o)
            expected, occurrences = reference_syntax.decompose_oracle_context(t, o)
            assert context == expected
            assert args == tuple(occ.arg for occ in occurrences)
            for occ in occurrences:
                assert subnode_at(context.skeleton, occ.path) == hole_var(occ.index)
        canonical = reference_syntax.canonicalize(t)
        for u in (canonical, previous, substitute(t, "a", Var("b"))):
            assert alpha_eq(t, u) == reference_syntax.alpha_eq(t, u)
        assert alpha_eq(t, canonical)
        previous = t
