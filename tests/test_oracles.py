"""Oracle definitions: guard matching, rule-list evaluation, context
fingerprints, and static validation against the program signature."""

import pytest

from generators import signature
from olam import checker, printer, surface, syntax
from olam.errors import OracleError
from olam.oracles import (
    GuardArg,
    GuardContext,
    GuardDefault,
    GuardIndexIn,
    GuardIndexMod,
    OracleDef,
    OracleRegistry,
    OracleRule,
    guard_matches,
    validate_oracle,
)
from olam.syntax import (
    App,
    Forall,
    Force,
    OpaqueType,
    OracleRef,
    Pair,
    TypeApp,
    TypeName,
    Var,
    children,
    decompose_oracle_context,
    hole_var,
    substitute,
)
from olam.traces import oracle_frequency


def c_def():
    _, reg = signature()
    return reg.lookup("c")


def ctx_for(term, oracle):
    ctx, _ = decompose_oracle_context(term, oracle)
    return ctx


def test_registry_names_sorted():
    _, reg = signature()
    assert reg.names() == ["c", "d"]
    with pytest.raises(OracleError) as e:
        reg.lookup("nope")
    assert e.value.code == "UnknownOracle"


def test_registry_rejects_duplicates():
    env, _ = signature()
    d = c_def()
    with pytest.raises(OracleError) as e:
        OracleRegistry.load(env, [d, d])
    assert e.value.code == "DuplicateName"


def test_validation_lets_faults_outside_the_language_through(monkeypatch):
    """Only language errors from the checker become oracle errors."""
    env, _ = signature()
    e = OracleDef(
        "e", 0, OpaqueType(TypeName("A")), (OracleRule(GuardDefault(), Var("a")),)
    )

    def broken(*args):
        raise ZeroDivisionError

    monkeypatch.setattr(checker, "check_type", broken)
    with pytest.raises(ZeroDivisionError):
        OracleRegistry.load(env, [e])


def test_guard_index_forms():
    ctx = ctx_for(Force(OracleRef("c")), "c")
    assert guard_matches(GuardIndexIn(frozenset({1, 3})), ctx, 1, None)
    assert not guard_matches(GuardIndexIn(frozenset({1, 3})), ctx, 2, None)
    assert guard_matches(GuardIndexMod(3, 1), ctx, 4, None)
    assert not guard_matches(GuardIndexMod(3, 1), ctx, 3, None)


def test_guard_arg_alpha_equivalence():
    ctx = ctx_for(Force(OracleRef("c")), "c")
    pat = surface.parse_term("\\x:A. x")
    g = GuardArg(pat)
    assert guard_matches(g, ctx, 1, surface.parse_term("\\y:A. y"))
    assert not guard_matches(g, ctx, 1, Var("a"))
    assert not guard_matches(g, ctx, 1, None)


def test_guard_default():
    ctx = ctx_for(Force(OracleRef("c")), "c")
    assert guard_matches(GuardDefault(), ctx, 99, None)


def test_fingerprint_frozen():
    t = Pair(Force(OracleRef("c")), Force(OracleRef("c")))
    ctx = ctx_for(t, "c")
    assert ctx.fingerprint == "<[_1], [_2]>"


def test_fingerprint_is_alpha_invariant():
    s = surface.parse_term("\\x:A. g #c!")
    t = surface.parse_term("\\y:A. g #c!")
    a = ctx_for(s.body, "c").fingerprint
    b = ctx_for(t.body, "c").fingerprint
    assert a == b == "g [_1]"


def test_fingerprint_printed_once_per_rewrite(monkeypatch):
    # two context rules are tried for each of 30 holes; the shared context
    # is printed once for the whole rewrite
    env, _ = signature()
    e = OracleDef(
        "e",
        0,
        OpaqueType(TypeName("A")),
        (
            OracleRule(GuardContext("g [_1]"), Var("a")),
            OracleRule(GuardContext("h [_1]"), Var("a")),
            OracleRule(GuardDefault(), Var("b")),
        ),
    )
    reg = OracleRegistry.load(env, [e])
    printed = []
    key = printer.term_key
    monkeypatch.setattr(
        printer, "term_key", lambda t: printed.append(t) or key(t)
    )
    dist, _ = oracle_frequency(env, "e", None, 30, reg)
    assert dist.items() == [(Var("b"), 1)]
    assert len(printed) == 1


def test_guard_context_matching():
    ctx = ctx_for(App(Var("g"), Force(OracleRef("c"))), "c")
    assert guard_matches(GuardContext("g [_1]"), ctx, 1, None)
    assert not guard_matches(GuardContext("h [_1]"), ctx, 1, None)


def test_eval_cyclic_oracle():
    env, reg = signature()
    three = Pair(
        Force(OracleRef("c")),
        Pair(Force(OracleRef("c")), Force(OracleRef("c"))),
    )
    ctx = ctx_for(three, "c")
    outs = [reg.eval("c", ctx, i) for i in (1, 2, 3)]
    assert outs == [Var("a"), Var("a"), Var("b")]


def test_eval_argument_sensitive_oracle():
    _, reg = signature()
    ctx = ctx_for(Force(OracleRef("c")), "c")
    assert reg.eval("d", ctx, 1, Var("a")) == Var("b")
    assert reg.eval("d", ctx, 1, Var("b")) == Var("a")
    assert reg.eval("d", ctx, 1, App(Var("g"), Var("a"))) == Var("a")


def test_eval_hole_index_bounds():
    _, reg = signature()
    ctx = ctx_for(Force(OracleRef("c")), "c")
    with pytest.raises(OracleError) as e:
        reg.eval("c", ctx, 2)
    assert e.value.code == "HoleIndexOutOfRange"
    with pytest.raises(OracleError):
        reg.eval("c", ctx, 0)


def test_eval_arity_mismatch():
    _, reg = signature()
    ctx = ctx_for(Force(OracleRef("c")), "c")
    with pytest.raises(OracleError) as e:
        reg.eval("c", ctx, 1, Var("a"))
    assert e.value.code == "ArityMismatch"
    with pytest.raises(OracleError) as e:
        reg.eval("d", ctx, 1, None)
    assert e.value.code == "ArityMismatch"


def test_validate_arity0_needs_opaque_type():
    env, _ = signature()
    bad = OracleDef(
        "e", 0, TypeName("A"), (OracleRule(GuardDefault(), Var("a")),)
    )
    with pytest.raises(OracleError) as e:
        validate_oracle(bad, env)
    assert e.value.code == "OracleTypeInvalid"


def test_validate_arity1_needs_dependent_opaque_type():
    env, _ = signature()
    bad = OracleDef(
        "e",
        1,
        OpaqueType(TypeName("A")),
        (OracleRule(GuardDefault(), Var("a")),),
    )
    with pytest.raises(OracleError) as e:
        validate_oracle(bad, env)
    assert e.value.code == "OracleTypeInvalid"


def test_validate_type_must_be_well_kinded():
    env, _ = signature()
    bad = OracleDef(
        "e",
        0,
        OpaqueType(TypeName("Missing")),
        (OracleRule(GuardDefault(), Var("a")),),
    )
    with pytest.raises(OracleError) as e:
        validate_oracle(bad, env)
    assert e.value.code == "OracleTypeInvalid"


def test_validate_requires_final_default():
    env, _ = signature()
    bad = OracleDef(
        "e",
        0,
        OpaqueType(TypeName("A")),
        (OracleRule(GuardIndexIn(frozenset({1})), Var("a")),),
    )
    with pytest.raises(OracleError) as e:
        validate_oracle(bad, env)
    assert e.value.code == "NoDefaultRule"


def test_validate_output_mentions_oracle():
    env, _ = signature()
    bad = OracleDef(
        "e",
        0,
        OpaqueType(OpaqueType(TypeName("A"))),
        (OracleRule(GuardDefault(), OracleRef("c")),),
    )
    with pytest.raises(OracleError) as e:
        validate_oracle(bad, env)
    assert e.value.code == "OutputContainsOracle"


def test_validate_output_not_closed():
    env, _ = signature()
    bad = OracleDef(
        "e",
        0,
        OpaqueType(TypeName("A")),
        (OracleRule(GuardDefault(), Var("zz")),),
    )
    with pytest.raises(OracleError) as e:
        validate_oracle(bad, env)
    assert e.value.code == "OutputNotClosed"


def test_validate_output_ill_typed():
    env, _ = signature()
    bad = OracleDef(
        "e",
        0,
        OpaqueType(TypeName("A")),
        (OracleRule(GuardDefault(), Var("q")),),
    )
    with pytest.raises(OracleError) as e:
        validate_oracle(bad, env)
    assert e.value.code == "OutputIllTyped"


def test_dependent_obligation_checked_at_call_time():
    # output must inhabit the instantiated family; w : P b fails for arg a
    env, _ = signature()
    env2 = env.with_term("w", TypeApp(TypeName("P"), Var("b")))
    dep = OracleDef(
        "e",
        1,
        Forall("x", TypeName("A"), OpaqueType(TypeApp(TypeName("P"), Var("x")))),
        (OracleRule(GuardDefault(), Var("w")),),
    )
    reg = OracleRegistry.load(env2, [dep])
    ctx = ctx_for(Force(OracleRef("c")), "c")
    assert reg.eval("e", ctx, 1, Var("b")) == Var("w")
    with pytest.raises(OracleError) as e:
        reg.eval("e", ctx, 1, Var("a"))
    assert e.value.code == "OutputIllTyped"


def test_arg_rule_outputs_checked_statically():
    env, _ = signature()
    env2 = env.with_term("w", TypeApp(TypeName("P"), Var("b")))
    dep = OracleDef(
        "e",
        1,
        Forall("x", TypeName("A"), OpaqueType(TypeApp(TypeName("P"), Var("x")))),
        (
            OracleRule(GuardArg(Var("a")), Var("w")),
            OracleRule(GuardDefault(), Var("w")),
        ),
    )
    with pytest.raises(OracleError) as e:
        validate_oracle(dep, env2)
    assert e.value.code == "OutputIllTyped"


def test_arg_rule_pattern_checked_against_the_domain():
    """An arg rule's pattern must have the oracle's argument type, and the
    error names the rule's line."""
    program = surface.parse_program(
        "atom A : *\natom a : A\natom g : A -> A\nuse d\nmain = a\n"
    )
    defs = surface.parse_oracle_file(
        "oracle d arity 1 type forall x:A. Sigma A\n"
        "  rule arg = g -> a\n"
        "  default -> a\n"
    )
    with pytest.raises(OracleError) as e:
        checker.check_program(program, defs)
    assert (e.value.code, e.value.span) == ("OutputIllTyped", (2, 1))
    assert e.value.message == (
        "oracle d rule for g: [TypeMismatch] expected A, found A -> A"
    )


def test_obligations_read_off_the_normalised_type():
    """Load works out each oracle's obligation once.  var names the
    argument only where the normalised result depends on it, so
    Sigma ((\\y:A. A) x) is fixed."""
    env, reg = signature()
    c, d = reg.obligation("c"), reg.obligation("d")
    A = TypeName("A")
    assert (c.type, c.var, c.domain, c.result) == (OpaqueType(A), None, None, A)
    assert (d.var, d.domain, d.result) == (None, A, A)
    assert d.answer_type(Var("b")) is d.result
    reg2 = OracleRegistry.load(
        env,
        surface.parse_oracle_file(
            "oracle e arity 1 type forall x:A. Sigma (P x)\n  default -> a\n"
            "oracle k arity 1 type forall x:A. Sigma ((\\\\y:A. A) x)\n"
            "  default -> a\n"
        ),
    )
    e, k = reg2.obligation("e"), reg2.obligation("k")
    assert (e.var, e.result) == ("x", TypeApp(TypeName("P"), Var("x")))
    assert e.answer_type(Var("b")) == TypeApp(TypeName("P"), Var("b"))
    assert (k.var, k.result) == (None, A)
    with pytest.raises(OracleError) as err:
        reg2.obligation("c")
    assert err.value.code == "UnknownOracle"


@pytest.mark.parametrize(
    "result", ["Sigma A", "Sigma ((\\\\y:A. A) x)"], ids=["plain", "redex"]
)
def test_fixed_obligation_checked_at_load(result):
    """A unary oracle whose answer type does not depend on the argument has
    every output typed at load, at its rule's line, as at arity 0."""
    program = surface.parse_program(
        "atom A : *\natom B : *\natom a : A\natom b : B\nuse d\n"
        "main = (#d a)!\n"
    )
    defs = surface.parse_oracle_file(
        f"oracle d arity 1 type forall x:A. {result}\n  default -> b\n"
    )
    with pytest.raises(OracleError) as e:
        checker.check_program(program, defs)
    assert (e.value.code, e.value.span) == ("OutputIllTyped", (2, 1))
    assert e.value.message == (
        "oracle d output b fails its obligation A: "
        "[TypeMismatch] expected A, found B"
    )


def test_fixed_obligation_rewrite_types_nothing(monkeypatch):
    """Load typed every output of d, whose obligation is fixed, so reading
    it through a width-16 table types no answer."""
    env, reg = signature()
    calls = []
    check_type = checker.check_type

    def counting(*args, **kwargs):
        calls.append(args[1])
        return check_type(*args, **kwargs)

    monkeypatch.setattr(checker, "check_type", counting)
    dist, _ = oracle_frequency(env, "d", Var("b"), 16, reg)
    assert dist.items() == [(Var("a"), 1)]
    assert calls == []


@pytest.mark.parametrize(
    "pattern, code, message",
    [
        ("x", "OutputNotClosed", "oracle d pattern x has free names ['x']"),
        (
            "#c",
            "OutputContainsOracle",
            "oracle d pattern #c mentions an oracle constant",
        ),
    ],
    ids=["free", "oracle"],
)
def test_pattern_errors_name_the_pattern(pattern, code, message):
    program = surface.parse_program("atom A : *\natom a : A\nuse d\nmain = a\n")
    defs = surface.parse_oracle_file(
        "oracle d arity 1 type forall x:A. Sigma A\n"
        f"  rule arg = {pattern} -> a\n"
        "  default -> a\n"
    )
    with pytest.raises(OracleError) as e:
        checker.check_program(program, defs)
    assert (e.value.code, e.value.span, e.value.message) == (code, (2, 1), message)


def test_a_binder_over_many_holes_costs_one_walk(monkeypatch):
    """Hole 1's answer a makes the binder \\a rename; every other answer
    leaves the new name alone, so one walk substitutes all the rest."""
    main = "#c!"
    for _ in range(199):
        main = f"<#c!, {main}>"
    source = surface.parse_program(
        f"atom A : *\natom a : A\natom b : A\n\nuse c\n\nmain = \\a:A. {main}\n"
    )
    oracle = surface.parse_oracle_file(
        "oracle c arity 0 type Sigma A\n"
        "  rule index mod 2 = 1 -> a\n"
        "  default -> b\n"
    )
    checked = checker.check_program(source, oracle)
    t = checked.main_term
    context, _ = decompose_oracle_context(t, "c")
    expected = context.skeleton
    for i in range(1, 201):
        expected = substitute(expected, hole_var(i).name, Var("ab"[(i - 1) % 2]))

    def node_count(node):
        return 1 + sum(map(node_count, children(node)))

    nodes = node_count(t)
    every = syntax.children
    calls = []

    def counting(node):
        calls.append(1)
        return every(node)

    monkeypatch.setattr(syntax, "children", counting)
    _, result = checked.registry.rewrite("c", t)
    # one walk per hole made 40598 calls
    assert len(calls) <= 4 * nodes
    assert result == expected
    assert str(result).startswith("\\a1:A. <a, <b, <a, ")
