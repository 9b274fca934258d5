"""Kind and type assignment, program checking, skeleton invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import (
    ORACLE_SOURCE,
    connective_skeleton,
    gen_closed_con,
    gen_closed_term,
    gen_kind,
    signature,
)
from olam import cli, surface, syntax
from olam.checker import (
    Environment,
    check_kind,
    check_program,
    check_type,
    infer_kind,
    infer_type,
)
from olam.errors import CheckError, OracleError
from olam.syntax import (
    Bottom,
    Choice,
    ChoiceType,
    Conj,
    Force,
    KindPi,
    MergeTerm,
    OpaqueType,
    Star,
    TraceTerm,
    TypeApp,
    TypeName,
    Var,
    alpha_eq,
    children,
    hole_var,
    substitute,
    substitute_all,
)


SIGNATURE_PREFIX = """\
atom A : *
atom B : *
atom a : A
atom b : A
atom q : B
atom g : A -> A
atom h : A -> B
atom P : pi x:A. *
atom u : forall x:A. P x
use c
use d
"""

ORACLE_DEFS = surface.parse_oracle_file(ORACLE_SOURCE)


def env_and_registry():
    return signature()


def test_check_kind_star_and_pi():
    env, reg = env_and_registry()
    check_kind(env, Star())
    check_kind(env, surface.parse_kind("pi x:A. *"), registry=reg)


def test_check_kind_rejects_nonstar_annotation():
    env, _ = env_and_registry()
    bad = KindPi("x", TypeName("P"), Star())
    with pytest.raises(CheckError) as e:
        check_kind(env, bad)
    assert e.value.code == "KindMismatch"


def test_infer_kind_atoms():
    env, _ = env_and_registry()
    assert infer_kind(env, TypeName("A")) == Star()
    assert infer_kind(env, Bottom()) == Star()
    assert infer_kind(env, TypeName("P")) == KindPi("x", TypeName("A"), Star())


def test_infer_kind_unbound_atom():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_kind(env, TypeName("Z"))
    assert e.value.code == "UnboundConVar"


def test_infer_kind_type_application():
    env, _ = env_and_registry()
    assert infer_kind(env, surface.parse_type("P a")) == Star()


def test_infer_kind_type_application_wrong_argument():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_kind(env, TypeApp(TypeName("P"), Var("q")))
    assert e.value.code == "TypeMismatch"


def test_infer_kind_application_of_star():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_kind(env, TypeApp(TypeName("A"), Var("a")))
    assert e.value.code == "NotAKindFunction"


def test_infer_kind_abstraction():
    env, _ = env_and_registry()
    k = infer_kind(env, surface.parse_type("\\\\x:A. P x"))
    assert k == KindPi("x", TypeName("A"), Star())


def test_infer_kind_connectives():
    env, _ = env_and_registry()
    for src in ("Oplus A", "Sigma B", "A /\\ B", "forall x:A. P x"):
        assert infer_kind(env, surface.parse_type(src)) == Star()


def test_infer_type_atoms_and_vars():
    env, _ = env_and_registry()
    assert infer_type(env, Var("a")) == TypeName("A")
    assert infer_type(env, Var("g")) == surface.parse_type("A -> A")
    with pytest.raises(CheckError) as e:
        infer_type(env, Var("zz"))
    assert e.value.code == "UnboundVar"


def test_infer_type_application():
    env, _ = env_and_registry()
    assert infer_type(env, surface.parse_term("g a")) == TypeName("A")
    assert infer_type(env, surface.parse_term("h (g a)")) == TypeName("B")


def test_infer_type_dependent_application():
    env, _ = env_and_registry()
    assert infer_type(env, surface.parse_term("u a")) == surface.parse_type(
        "P a"
    )
    assert infer_type(env, surface.parse_term("u (g b)")) == surface.parse_type(
        "P (g b)"
    )


def test_infer_type_application_errors():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("a b"))
    assert e.value.code == "NotAFunction"
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("g q"))
    assert e.value.code == "TypeMismatch"


def test_infer_type_lambda():
    env, _ = env_and_registry()
    t = surface.parse_term("\\x:A. h x")
    assert alpha_eq(infer_type(env, t), surface.parse_type("A -> B"))


def test_infer_type_lambda_shadowing_renames():
    env, _ = env_and_registry()
    # binder reuses the signature name a; the result binder is renamed
    t = surface.parse_term("\\a:B. a")
    ty = infer_type(env, t)
    assert alpha_eq(ty, surface.parse_type("B -> B"))


def test_infer_type_lambda_normalizes_annotation():
    env, _ = env_and_registry()
    t = surface.parse_term("\\x:(\\\\y:A. A) a. x")
    assert alpha_eq(infer_type(env, t), surface.parse_type("A -> A"))


def test_infer_type_choice():
    env, _ = env_and_registry()
    t = surface.parse_term("choose[1/3]{a}{b}")
    assert infer_type(env, t) == ChoiceType(TypeName("A"))


def test_infer_type_choice_branch_mismatch():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("choose[1/2]{a}{q}"))
    assert e.value.code == "BranchTypeMismatch"


def test_infer_type_choice_bad_probability():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, Choice(Var("a"), Fraction(3, 2), Var("b")))
    assert e.value.code == "ProbabilityOutOfRange"


def test_infer_type_force():
    env, reg = env_and_registry()
    t = surface.parse_term("choose[1/2]{a}{b}!")
    assert infer_type(env, t) == TypeName("A")
    assert infer_type(env, Force(surface.parse_term("#c")), registry=reg) == TypeName("A")


def test_infer_type_force_non_modal():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("a!"))
    assert e.value.code == "NotAChoice"


def test_infer_type_pair_proj():
    env, _ = env_and_registry()
    t = surface.parse_term("<a, q>")
    assert infer_type(env, t) == Conj(TypeName("A"), TypeName("B"))
    assert infer_type(env, surface.parse_term("<a, q>.0")) == TypeName("A")
    assert infer_type(env, surface.parse_term("<a, q>.1")) == TypeName("B")
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("a.0"))
    assert e.value.code == "NotAPair"


def test_infer_type_dependent_pair_projection():
    env, _ = env_and_registry()
    t = surface.parse_term("<u a, a>.0")
    assert infer_type(env, t) == surface.parse_type("P a")


def test_infer_type_oracle_forms():
    env, reg = env_and_registry()
    assert infer_type(env, surface.parse_term("#c"), registry=reg) == OpaqueType(
        TypeName("A")
    )
    assert infer_type(env, surface.parse_term("#d b"), registry=reg) == OpaqueType(
        TypeName("A")
    )
    assert infer_type(
        env, surface.parse_term("(#d b)!"), registry=reg
    ) == TypeName("A")


def test_infer_type_oracle_without_registry():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("#c"))
    assert e.value.code == "UnknownOracle"


def test_infer_type_nullary_oracle_applied():
    env, reg = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("#c a"), registry=reg)
    assert e.value.code == "NotAFunction"


def test_infer_type_oracle_argument_checked():
    env, reg = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("#d q"), registry=reg)
    assert e.value.code == "TypeMismatch"


def test_infer_type_unary_oracle_without_argument():
    """A unary oracle is written with its argument, as #c is without one:
    a bare #d would type and then reduce to a stuck (#d t)!."""
    env, reg = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("#d"), registry=reg)
    assert (e.value.code, e.value.message) == (
        "ArityMismatch", "unary oracle d used without its argument"
    )


@pytest.mark.parametrize(
    "defs, main, line",
    [
        ("", "(\\f:A -> Sigma A. (f a)!) #d", 12),
        ("f = #d\n", "a", 12),
    ],
    ids=["applied", "defined"],
)
def test_check_program_rejects_a_bare_unary_oracle(defs, main, line):
    src = SIGNATURE_PREFIX + defs + f"main = {main}\n"
    with pytest.raises(CheckError) as e:
        check_program(surface.parse_program(src), ORACLE_DEFS)
    assert (e.value.code, e.value.span) == ("ArityMismatch", (line, 1))


def test_efq_rules():
    env0 = Environment().with_con("A", Star()).with_term("bot", Bottom())
    assert infer_type(env0, surface.parse_term("efq(bot : A)")) == TypeName("A")
    with pytest.raises(CheckError) as e:
        infer_type(env0, surface.parse_term("efq(bot : A -> A)"))
    assert e.value.code == "EfqTargetContainsForall"


def test_efq_on_non_bottom():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, surface.parse_term("efq(a : A)"))
    assert e.value.code == "EfqOnNonBottom"


def test_evidence_terms_rejected_as_values():
    env, _ = env_and_registry()
    t = TraceTerm((Var("a"),), None)
    with pytest.raises(CheckError) as e:
        infer_type(env, t)
    assert e.value.code == "EvidenceTerm"
    m = MergeTerm(Var("a"), (), Var("a"), Fraction(1))
    with pytest.raises(CheckError) as e:
        infer_type(env, m)
    assert e.value.code == "EvidenceTerm"


def test_holes_rejected_as_values():
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        infer_type(env, hole_var(1))
    assert e.value.code == "UnboundVar"


def test_check_type_normalizes_expectation():
    env, _ = env_and_registry()
    check_type(env, Var("a"), surface.parse_type("(\\\\x:A. A) b"))
    with pytest.raises(CheckError) as e:
        check_type(env, Var("q"), TypeName("A"))
    assert e.value.code == "TypeMismatch"


def test_environment_duplicates_rejected():
    env = Environment().with_con("A", Star())
    with pytest.raises(CheckError) as e:
        env.with_con("A", Star())
    assert e.value.code == "DuplicateName"
    with pytest.raises(CheckError):
        env.with_term("A", TypeName("A"))


def test_environment_lookups_check_the_classifier_class():
    # atoms and term names share one namespace; each lookup finds only its own
    env, _ = env_and_registry()
    with pytest.raises(CheckError) as e:
        env.lookup_term("A")
    assert e.value.code == "UnboundVar"
    with pytest.raises(CheckError) as e:
        env.lookup_con("a")
    assert e.value.code == "UnboundConVar"
    assert env.lookup_con("P") == KindPi("x", TypeName("A"), Star())
    assert env.term_names() == ["a", "b", "q", "g", "h", "u"]


def test_connective_skeleton_shapes():
    env, _ = env_and_registry()
    assert connective_skeleton(TypeName("A")) == ("atom", "A")
    assert connective_skeleton(Bottom()) == ("bottom",)
    assert connective_skeleton(surface.parse_type("P a")) == (
        "apply",
        ("atom", "P"),
    )
    # the embedded term is erased: P a and P (g a) share a skeleton
    assert connective_skeleton(
        surface.parse_type("P a")
    ) == connective_skeleton(surface.parse_type("P (g a)"))
    assert connective_skeleton(surface.parse_type("Oplus A /\\ Sigma B")) == (
        "conj",
        ("choice", ("atom", "A")),
        ("opaque", ("atom", "B")),
    )
    assert connective_skeleton(surface.parse_type("forall x:A. P x")) == (
        "forall",
        ("atom", "A"),
        ("apply", ("atom", "P")),
    )


def test_check_program_inlines_definitions():
    src = SIGNATURE_PREFIX + "f = g a\nmain = g f\n"
    checked = check_program(surface.parse_program(src), ORACLE_DEFS)
    assert checked.def_types["f"] == TypeName("A")
    assert checked.def_types["main"] == TypeName("A")
    assert alpha_eq(checked.main_term, surface.parse_term("g (g a)"))
    assert list(checked.def_types) == ["f", "main"]


def test_check_program_ascription_enforced():
    src = SIGNATURE_PREFIX + "f : B = a\nmain = a\n"
    with pytest.raises(CheckError) as e:
        check_program(surface.parse_program(src), ORACLE_DEFS)
    assert e.value.code == "TypeMismatch"


def test_check_program_requires_main():
    src = SIGNATURE_PREFIX + "f = a\n"
    with pytest.raises(CheckError) as e:
        check_program(surface.parse_program(src), ORACLE_DEFS)
    assert e.value.code == "MissingMain"


def test_check_program_environment_is_signature_only():
    src = SIGNATURE_PREFIX + "f = a\nmain = f\n"
    checked = check_program(surface.parse_program(src), ORACLE_DEFS)
    assert "f" not in checked.env.term_names()
    assert "a" in checked.env.term_names()


def test_check_program_without_oracles():
    src = "atom A : *\natom a : A\nmain = a\n"
    checked = check_program(surface.parse_program(src), [])
    assert checked.registry.names() == []


def test_check_program_validates_all_oracle_defs():
    # every supplied oracle is validated against the signature, used or not
    src = "atom A : *\natom a : A\nmain = a\n"
    with pytest.raises(OracleError) as e:
        check_program(surface.parse_program(src), ORACLE_DEFS)
    assert e.value.code == "OutputNotClosed"


def test_check_program_unknown_use():
    src = "atom A : *\natom a : A\nuse nosuch\nmain = a\n"
    with pytest.raises(OracleError) as e:
        check_program(surface.parse_program(src), [])
    assert e.value.code == "UnknownOracle"


# --------------------------------------------- inlining earlier definitions


def inline_every_earlier(source):
    """Reference inliner: substitute every earlier definition into each
    body, mentioned or not."""
    inlined = {}
    for d in source.definitions:
        body = d.term
        for earlier, replacement in inlined.items():
            body = substitute(body, earlier, replacement)
        inlined[d.name] = body
    return inlined["main"]


# a1 is also the first fresh name for a binder a, so the names inlining
# picks depend on the order it substitutes in
CHAIN_SIGNATURE = (
    "atom A : *\natom a : A\natom a1 : A\natom b : A\natom g : A -> A\n"
)


def _chain_value(rng, scope, depth):
    """Text of a term of type A over scope (name -> "A" or "A->A")."""
    values = [n for n, t in scope.items() if t == "A"]
    funs = [n for n, t in scope.items() if t == "A->A"]
    r = rng.random()
    if depth <= 0 or r < 0.25 or not funs:
        return rng.choice(values)
    if r < 0.5:
        return f"{rng.choice(funs)} ({_chain_value(rng, scope, depth - 1)})"
    if r < 0.75:
        fun = _chain_fun(rng, scope, depth - 1)
        return f"({fun}) ({_chain_value(rng, scope, depth - 1)})"
    left = _chain_value(rng, scope, depth - 1)
    right = _chain_value(rng, scope, depth - 1)
    return f"<{left}, {right}>.{rng.randrange(2)}"


def _chain_fun(rng, scope, depth):
    """Text of a term of type A -> A; binders take names of atoms and of
    definitions in scope, so inlining must rename them."""
    funs = [n for n, t in scope.items() if t == "A->A"]
    if funs and (depth <= 0 or rng.random() < 0.3):
        return rng.choice(funs)
    var = rng.choice(["x", "y", "a", "b", "g", *scope])
    inner = {**scope, var: "A"}
    return f"\\{var}:A. {_chain_value(rng, inner, depth - 1)}"


def chain_program(seed, count):
    """count definitions, each mentioning earlier ones, then main."""
    rng = random.Random(seed)
    scope = {"a": "A", "a1": "A", "b": "A", "g": "A->A"}
    lines = []
    for i in range(count):
        kind = rng.choice(["A", "A->A"])
        make = _chain_value if kind == "A" else _chain_fun
        lines.append(f"d{i} = {make(rng, scope, 3)}")
        scope[f"d{i}"] = kind
    lines.append(f"main = {_chain_fun(rng, scope, 4)}")
    return CHAIN_SIGNATURE + "\n".join(lines) + "\n"


def wide_sampling_program(seed, n):
    """Shaped like the benchmark's wide sampling programs: 2n definitions
    of redexes, some through earlier ones and some under ascriptions, n of
    them inlined into a tuple beside one coin."""
    rng = random.Random(seed)
    atoms = [f"a{i}" for i in range(8)]
    lines = ["atom A : *", *(f"atom {x} : A" for x in atoms), "atom g : A -> A"]
    lines += [
        "f0 = \\x:A. x",
        "f1 = \\x:A. g x",
        "f2 : (\\\\y:A. A -> A) a0 = \\x:A. <x, a1>.0",
    ]
    for i in range(2 * n):
        arg = rng.choice(atoms if i == 0 or rng.random() < 0.5 else
                         [f"v{j}" for j in range(i)])
        body = (
            f"(\\x:A. g x) {arg}",
            f"<{arg}, {rng.choice(atoms)}>.0",
            f"f{rng.randrange(3)} {arg}",
            f"(\\x:A. x) {arg}",
        )[i % 4]
        ascription = " : (\\\\y:A. A) a0" if i % 4 == 3 else ""
        lines.append(f"v{i}{ascription} = {body}")
    parts = [f"v{i}" for i in sorted(rng.sample(range(2 * n), n))]
    parts.append("choose[1/3]{(\\x:A. x) a2}{<a3, a4>.1}!")
    main = parts[-1]
    for part in reversed(parts[:-1]):
        main = f"<{part}, {main}>"
    lines.append(f"main = {main}")
    return "\n".join(lines) + "\n"


# bodies whose binders capture a name the inlined definitions mention;
# in the last, substituting h before f would name the binder a11, not a2
CAPTURE_PROGRAMS = [
    CHAIN_SIGNATURE + "f = \\x:A. a\nmain = \\a:A. f\n",
    CHAIN_SIGNATURE + "f = \\x:A. a\nh = \\a:A. f a\nmain = \\f:A. h f\n",
    CHAIN_SIGNATURE + "f = g a\nh = \\a:A. \\a1:A. g f\nmain = \\h:A. h\n",
    CHAIN_SIGNATURE + "f = g a1\nh = g a\nmain = \\a:A. <f, h>.0\n",
]


@pytest.mark.parametrize(
    "text",
    CAPTURE_PROGRAMS
    + [chain_program(seed, 12) for seed in range(40)]
    + [wide_sampling_program(seed, 12) for seed in range(3)],
)
def test_inlining_matches_substituting_every_earlier_definition(text):
    source = surface.parse_program(text)
    checked = check_program(source, [])
    expected = inline_every_earlier(source)
    # equality of trees, not alpha-equality: binder names and so the
    # printed output stay exactly as they were
    assert checked.main_term == expected
    assert str(checked.main_term) == str(expected)


def test_capture_cases_rename_the_shadowing_binder():
    checked = check_program(surface.parse_program(CAPTURE_PROGRAMS[0]), [])
    assert str(checked.main_term) == "\\a1:A. \\x:A. a"


def test_inlining_substitutes_only_the_mentioned_definitions(monkeypatch):
    defs = "".join(f"v{i} = a\n" for i in range(200))
    source = surface.parse_program(CHAIN_SIGNATURE + defs + "main = <v3, v150>\n")
    walks = []

    def counting(node, mapping, free_names):
        walks.append(list(mapping))
        return substitute_all(node, mapping, free_names)

    monkeypatch.setattr("olam.checker.substitute_all", counting)
    checked = check_program(source, [])
    # one walk of main's written body, substituting in definition order
    assert walks == [["v3", "v150"]]
    assert str(checked.main_term) == "<a, a>"


def node_count(node):
    return 1 + sum(map(node_count, children(node)))


def test_inlining_walks_each_written_body_once(monkeypatch):
    defs = "".join(f"v{i} = g a\n" for i in range(200))
    main = "a"
    for i in reversed(range(0, 200, 2)):
        main = f"<v{i}, {main}>"
    source = surface.parse_program(CHAIN_SIGNATURE + defs + f"main = {main}\n")
    written = sum(node_count(d.term) for d in source.definitions)
    calls = []
    every = syntax.children

    def counting(node):
        calls.append(1)
        return every(node)

    monkeypatch.setattr(syntax, "children", counting)
    checked = check_program(source, [])
    # substituting one definition at a time walks main once per mention:
    # 100 walks of a tuple growing from 201 to 401 nodes
    assert len(calls) <= 2 * written
    assert str(checked.main_term).count("g a") == 100


def test_inlining_a_definition_chain_is_linear(monkeypatch):
    """Each definition's inlined free names come from the written body and
    the replacements', so no growing inlined body is walked again."""
    every = syntax.children
    calls = []

    def counting(node):
        calls.append(1)
        return every(node)

    monkeypatch.setattr(syntax, "children", counting)
    counts = []
    for n in (100, 200, 400):
        defs = "d0 = g a\n" + "".join(
            f"d{i} = (\\x:A. g x) d{i - 1}\n" for i in range(1, n)
        )
        source = surface.parse_program(CHAIN_SIGNATURE + defs + f"main = d{n - 1}\n")
        calls.clear()
        checked = check_program(source, [])
        counts.append(len(calls))
        assert str(checked.main_term).count("g") == n
    # walking each inlined body again made 15843, 61693 and 243393 calls
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1]


def test_a_wide_main_loads_within_the_recursion_limit(tmp_path, capsys):
    text = wide_sampling_program(0, 250)
    check_program(surface.parse_program(text), [])
    path = tmp_path / "wide.olam"
    path.write_text(text)
    for command in ("check", "dist"):
        assert cli.main([command, str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out


def test_fresh_binders_do_not_build_the_name_set(monkeypatch):
    calls = []
    all_names = Environment.all_names

    def counting(self):
        calls.append(1)
        return all_names(self)

    monkeypatch.setattr(Environment, "all_names", counting)
    fresh = CHAIN_SIGNATURE + "f = \\x:A. g x\nmain = \\y:A. f y\n"
    check_program(surface.parse_program(fresh), [])
    assert calls == []
    shadowing = CHAIN_SIGNATURE + "main = \\a:A. g a\n"
    check_program(surface.parse_program(shadowing), [])
    assert calls


@given(st.integers(0, 3000))
def test_generated_terms_typecheck(seed):
    env, reg = env_and_registry()
    t = gen_closed_term(seed)
    ty = infer_type(env, t, registry=reg)
    infer_kind(env, ty, registry=reg)


@given(st.integers(0, 2000))
def test_generated_cons_kind_star(seed):
    env, reg = env_and_registry()
    c = gen_closed_con(seed)
    assert infer_kind(env, c, registry=reg) == Star()


@given(st.integers(0, 1000))
def test_generated_kinds_check(seed):
    env, reg = env_and_registry()
    check_kind(env, gen_kind(seed), registry=reg)


def test_ill_formed_nodes_are_named_by_their_repr():
    """A node of the wrong level is refused with its repr, the class name
    around the printed node."""
    env = Environment().with_con("A", Star())
    A = TypeName("A")
    for check, node, code, message in (
        (check_kind, A, "IllFormedKind", "not a kind: TypeName(A)"),
        (infer_kind, Star(), "IllFormedKind", "not a constructor: Star(*)"),
        (infer_type, A, "IllFormedTerm", "not a term: TypeName(A)"),
    ):
        with pytest.raises(CheckError) as e:
            check(env, node)
        assert (e.value.code, e.value.message) == (code, message)
