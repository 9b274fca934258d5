"""One-step reduction, redex discovery order, simultaneous oracle
rewriting, and seeded sampling runs."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reducer
from generators import gen_closed_term, signature
from olam import reducer, surface, syntax
from olam.errors import OlamError, ReductionError
from olam.reducer import (
    TermRedex,
    deterministic_strategy,
    find_redexes,
    redex_at,
    run_sample,
    sample_seed,
    step,
)
from olam.syntax import (
    Force,
    Lam,
    OracleCall,
    OracleRef,
    Pair,
    TraceTerm,
    TypeApp,
    TypeName,
    Var,
    children,
    decompose_oracle_context,
    hole_var,
    oracle_names,
)
from olam.traces import enumerate_paths
from reference_syntax import subnode_at


def test_find_redexes_kinds_and_paths():
    t = surface.parse_term("(\\x:A. x) (<a, b>.0)")
    found = find_redexes(t)
    assert [(r.path, r.kind) for r in found] == [((), "beta"), ((1,), "proj")]


def test_find_redexes_choice():
    t = surface.parse_term("g choose[1/2]{a}{b}!")
    found = find_redexes(t)
    assert [(r.path, r.kind) for r in found] == [((1,), "choice")]


def test_find_redexes_skips_annotations():
    # the beta redex inside the binder annotation is not a term position
    t = surface.parse_term("\\x:(\\\\y:A. A) a. (\\z:A. z) x")
    found = find_redexes(t)
    assert [(r.path, r.kind) for r in found] == [((1,), "beta")]


def test_find_redexes_skips_evidence():
    inner = surface.parse_term("(\\x:A. x) a")
    t = Pair(TraceTerm((inner, Var("a")), Fraction(1)), inner)
    found = find_redexes(t)
    assert [r.path for r in found] == [(1,)]


def test_redex_at_reads_only_searched_positions():
    inner = surface.parse_term("(\\x:A. x) a")
    t = Pair(TraceTerm((inner, Var("a")), Fraction(1)), inner)
    assert redex_at(t, (1,)) == TermRedex((1,), "beta")
    assert redex_at(t, (0, 0)) is None
    # a term inside a type annotation is not a term position
    lam = surface.parse_term("\\x:P ((\\y:A. y) a). (\\z:A. z) a")
    assert find_redexes(lam) == [TermRedex((1,), "beta")]
    assert redex_at(lam, (0, 1)) is None
    assert redex_at(lam, (1,)) == TermRedex((1,), "beta")


def test_find_redexes_unforced_choice_is_inert():
    t = surface.parse_term("choose[1/2]{a}{b}")
    assert find_redexes(t) == []
    assert find_redexes(surface.parse_term("#c")) == []


def test_find_redexes_oracle_single_redex():
    t = surface.parse_term("<#c!, g #c!>")
    found = find_redexes(t)
    assert len(found) == 1
    r = found[0]
    assert r.kind == "oracle"
    assert r.oracle == "c"
    assert r.path == (0,)


def test_find_redexes_two_oracles_two_redexes():
    t = surface.parse_term("<#c!, (#d a)!>")
    found = find_redexes(t)
    assert [(r.path, r.oracle) for r in found] == [((0,), "c"), ((1,), "d")]


def test_step_beta():
    t = surface.parse_term("(\\x:A. g x) a")
    (out,) = step(t, find_redexes(t)[0])
    assert out.after == surface.parse_term("g a")
    assert out.prob == 1
    assert out.label == "beta"


def test_step_proj():
    t = surface.parse_term("<a, b>.1")
    (out,) = step(t, find_redexes(t)[0])
    assert out.after == Var("b")
    assert out.label == "proj"


def test_step_choice_two_outcomes():
    t = surface.parse_term("choose[1/3]{a}{b}!")
    outs = step(t, find_redexes(t)[0])
    assert [(o.after, o.prob, o.label) for o in outs] == [
        (Var("a"), Fraction(1, 3), "left"),
        (Var("b"), Fraction(2, 3), "right"),
    ]


def test_step_oracle_simultaneous():
    _, reg = signature()
    t = surface.parse_term("<#c!, #c!>")
    (out,) = step(t, find_redexes(t)[0], registry=reg)
    # holes 1 and 2 answered in one step: index rule gives a, a
    assert out.after == surface.parse_term("<a, a>")
    assert out.prob == 1
    assert out.label == "oracle"


def test_step_oracle_nested_outermost_only():
    _, reg = signature()
    t = Force(OracleCall("d", Force(OracleCall("d", Var("a")))))
    (out,) = step(t, find_redexes(t)[0], registry=reg)
    # the inner forced call is swallowed by the outer redex; its argument
    # does not match the arg rule, so the default answers
    assert out.after == Var("a")


def test_step_oracle_requires_registry():
    t = surface.parse_term("#c!")
    with pytest.raises(ReductionError) as e:
        step(t, find_redexes(t)[0])
    assert e.value.code == "MissingRegistry"


def test_step_oracle_fires_only_at_hole_1():
    """The oracle redex of <a, <#c!, #c!>> is the first call, not the
    variable before it and not the second call.  Where that variable is
    spelled like hole 1, no oracle step is taken at all."""
    _, reg = signature()
    calls = Pair(Force(OracleRef("c")), Force(OracleRef("c")))
    t = Pair(Var("a"), calls)
    for path in ((0,), (1, 1)):
        with pytest.raises(ReductionError) as e:
            step(t, TermRedex(path, "oracle", "c"), reg)
        assert e.value.code == "InvalidRedexPath"
    (out,) = step(t, TermRedex((1, 0), "oracle", "c"), reg)
    assert out.path == (1, 0)
    for path in ((0,), (1, 1), (1, 0)):
        with pytest.raises(ReductionError) as e:
            step(Pair(hole_var(1), calls), TermRedex(path, "oracle", "c"), reg)
        assert e.value.code == "ReservedName"


def test_redex_at_reads_an_oracle_redex_at_hole_1_only():
    """Where the variable before the calls is spelled like hole 1, a path
    to either call reads the oracle's context and is refused."""
    calls = Pair(Force(OracleRef("c")), Force(OracleRef("c")))
    t = Pair(Var("a"), calls)
    assert redex_at(t, (0,)) is None
    assert redex_at(t, (1, 1)) is None
    assert [redex_at(t, (1, 0))] == find_redexes(t)
    spelled = Pair(hole_var(1), calls)
    assert redex_at(spelled, (0,)) is None
    for path in ((1, 1), (1, 0)):
        with pytest.raises(ReductionError) as e:
            redex_at(spelled, path)
        assert e.value.code == "ReservedName"


def test_an_oracle_step_refuses_names_spelled_like_holes():
    """A library term's own variable or binder spelled like a hole was
    read as that hole: <[_1], <#c!, #c!>> stepped to <a, <a, a>>,
    <#c!, \\[_2]:A. #c!> to <a, \\[_2]:A. [_2]>, hole 2's answer captured by
    the binder, and <#c!, \\x:P [_1]. x> to <a, \\x:P a. x>, the annotation's
    [_1] rewritten as hole 1.  Each step is a coded error instead."""
    _, reg = signature()
    c = Force(OracleRef("c"))
    terms = [
        Pair(hole_var(1), Pair(c, c)),
        Pair(c, Lam(hole_var(2).name, TypeName("A"), c)),
        Pair(c, Lam("x", TypeApp(TypeName("P"), hole_var(1)), Var("x"))),
    ]
    for t in terms:
        (redex,) = find_redexes(t)
        with pytest.raises(ReductionError) as e:
            step(t, redex, reg)
        assert e.value.code == "ReservedName"
        assert e.value.message.endswith("is spelled like a hole")


def test_step_stale_redex_rejected():
    _, reg = signature()
    t = surface.parse_term("(\\x:A. x) a")
    # a path to a node of another kind, or to a type annotation
    for path in [(1,), (0, 0)]:
        with pytest.raises(ReductionError) as e:
            step(t, TermRedex(path, "beta"))
        assert e.value.code == "InvalidRedexPath"
    # a path past the children of a node
    for path in [(2,), (1, 0), (0, 1, 0), (-1,)]:
        with pytest.raises(ReductionError) as e:
            step(t, TermRedex(path, "beta"))
        assert e.value.code == "InvalidRedexPath"
    # a redex that the search never yields: inside a type annotation, and
    # inside an evidence term
    lam = surface.parse_term("\\y:P ((\\x:A. x) a). y")
    inner = surface.parse_term("(\\x:A. x) a")
    evidence = Pair(TraceTerm((inner, Var("a")), Fraction(1)), inner)
    for s, path in [(lam, (0, 1)), (lam, (5,)), (evidence, (0, 0))]:
        assert redex_at(s, path) is None
        with pytest.raises(ReductionError) as e:
            step(s, TermRedex(path, "beta"))
        assert e.value.code == "InvalidRedexPath"
    with pytest.raises(ReductionError) as e:
        step(
            surface.parse_term("#c!"),
            TermRedex((1,), "oracle", oracle="c"),
            registry=reg,
        )
    assert e.value.code == "InvalidRedexPath"


def test_deterministic_strategy_prefers_outermost():
    t = surface.parse_term("(\\x:A. x) choose[1/2]{a}{b}!")
    r = deterministic_strategy(t)
    assert (r.path, r.kind) == ((), "beta")
    assert deterministic_strategy(Var("a")) is None


def test_deterministic_strategy_force_ancestor_first():
    # the forced choice at (0,) precedes the beta inside its left branch
    t = Force(
        surface.parse_term("choose[1/2]{(\\x:A. x) a}{b}")
    )
    r = deterministic_strategy(t)
    assert (r.path, r.kind) == ((), "choice")


def test_run_sample_deterministic_program():
    env, reg = signature()
    t = surface.parse_term("(\\x:A. <x, h x>) (g a)")
    res = run_sample(t, seed=0, registry=reg)
    assert res.term == surface.parse_term("<g a, h (g a)>")
    assert res.prob == 1
    assert [o.label for o in res.trace] == ["beta"]


def test_run_sample_seed_reproducible():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{b}!")
    first = run_sample(t, seed=7, registry=reg)
    again = run_sample(t, seed=7, registry=reg)
    assert first == again
    assert first.term in (Var("a"), Var("b"))
    assert first.prob == Fraction(1, 2)


def test_run_sample_extreme_probabilities():
    t = surface.parse_term("choose[1]{a}{b}!")
    for seed in range(20):
        assert run_sample(t, seed).term == Var("a")
    t0 = surface.parse_term("choose[0]{a}{b}!")
    for seed in range(20):
        assert run_sample(t0, seed).term == Var("b")


def test_run_sample_tracks_path_probability():
    t = surface.parse_term("<choose[1/3]{a}{b}!, choose[1/2]{a}{b}!>")
    res = run_sample(t, seed=11)
    assert res.prob in (Fraction(1, 6), Fraction(1, 3))
    assert len(res.trace) == 2


def test_run_sample_fuel_exhaustion():
    t = surface.parse_term("(\\x:A. x) ((\\y:A. y) a)")
    with pytest.raises(ReductionError) as e:
        run_sample(t, seed=0, fuel=1)
    assert e.value.code == "FuelExhausted"


def test_sample_seed_frozen_values():
    # the (index+1)-th output of a splitmix64 stream started at seed;
    # the seed-0 values are the published reference sequence
    assert sample_seed(0, 0) == 0xE220A8397B1DCDAF
    assert sample_seed(0, 1) == 0x6E789E6AA1B965F4
    assert sample_seed(42, 0) == 13679457532755275413
    assert sample_seed(42, 1) == 2949826092126892291


def test_sample_seed_distinct_per_index():
    seen = {sample_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000


@given(st.integers(0, 1500))
@settings(max_examples=60, deadline=None)
def test_samples_reach_oracle_free_normal_forms(seed):
    env, reg = signature()
    t = gen_closed_term(seed)
    res = run_sample(t, seed=seed, registry=reg)
    assert deterministic_strategy(res.term) is None
    assert 0 < res.prob <= 1


@given(st.integers(0, 1500))
@settings(max_examples=60, deadline=None)
def test_step_outcome_probabilities_sum_to_one(seed):
    """Every step has positive probability and they sum to 1; a choice
    steps to both sides inside (0, 1) and to one side at 1 or 0."""
    env, reg = signature()
    t = gen_closed_term(seed)
    for redex in find_redexes(t):
        outs = step(t, redex, registry=reg)
        assert all(o.prob > 0 for o in outs)
        assert sum(o.prob for o in outs) == 1
        labels = {o.label for o in outs}
        if redex.kind == "choice":
            p = subnode_at(t, redex.path).body.prob
            if p == 1:
                assert labels == {"left"}
            elif p == 0:
                assert labels == {"right"}
            else:
                assert labels == {"left", "right"}
        else:
            assert labels in ({"beta"}, {"proj"}, {"oracle"})


@given(st.integers(0, 1500))
@settings(max_examples=60, deadline=None)
def test_redex_walk_matches_preorder_and_oracle_contexts(seed):
    t = gen_closed_term(seed)
    found = find_redexes(t)
    paths = [r.path for r in found]
    assert all(a < b for a, b in zip(paths, paths[1:]))
    oracles = {r.oracle: r.path for r in found if r.kind == "oracle"}
    assert len(oracles) == sum(r.kind == "oracle" for r in found)
    for name in oracle_names(t):
        context, _ = decompose_oracle_context(t, name)
        path = oracles.get(name)
        assert (path is not None) == (context.count > 0)
        if path is not None:
            assert subnode_at(context.skeleton, path) == hole_var(1)
    first = deterministic_strategy(t)
    assert first == (found[0] if found else None)


def result_or_code(run, *args):
    try:
        return "ok", run(*args)
    except OlamError as err:
        return "error", err.code


def test_resumed_runs_match_the_whole_term_loop():
    """run_sample and enumerate_paths resume the redex search after each
    step; the reference searches the whole term again.  Their results,
    and their errors, are the same: small fuel ends some runs early."""
    env, reg = signature()
    codes = set()
    for seed in range(3000):
        t = gen_closed_term(seed)
        fuel = 2 + seed % 30
        for sample in (seed, seed + 3000):
            got = result_or_code(run_sample, t, sample, fuel, reg)
            assert got == result_or_code(
                reference_reducer.run_sample, t, sample, fuel, reg
            ), seed
            codes.add(got[1] if got[0] == "error" else got[0])
        got = result_or_code(enumerate_paths, env, t, reg, fuel)
        assert got == result_or_code(
            reference_reducer.enumerate_paths, t, reg, fuel
        ), seed
    assert codes == {"ok", "FuelExhausted"}


@pytest.mark.parametrize(
    "text",
    [
        # the contractum makes its parent a beta, proj or choice redex
        "(((\\x:A. \\y:A. <y, x>) a) b).1",
        "((\\x:A. <x, choose[1/3]{x}{b}!>) choose[1/4]{a}{b}!).1",
        "((\\x:A. choose[1/2]{x}{b}) a)!",
        # and the positions pending under the parent go with it
        "((\\x:A. \\y:A. y) a) ((\\z:A. z) choose[1/3]{a}{b}!)",
        # positions after the redex stay pending across steps
        "<<(\\x:A. x) a, <a, b>.1>, <choose[1/2]{a}{b}!, (\\x:A. g x) a>>",
        # an oracle step rewrites every occurrence, so the search restarts
        "<(\\x:A. x) #c!, <#c!, (#d ((\\x:A. x) a))!>>",
        "<(#d #c!)!, choose[1/3]{#c!}{a}!>",
    ],
)
def test_resumed_runs_fire_what_the_whole_term_loop_fires(text):
    env, reg = signature()
    t = surface.parse_term(text)
    for seed in range(8):
        assert run_sample(t, seed, registry=reg) == reference_reducer.run_sample(
            t, seed, registry=reg
        )
    assert enumerate_paths(env, t, reg) == reference_reducer.enumerate_paths(
        t, reg
    )


def balanced_tuple(parts):
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return Pair(balanced_tuple(parts[:mid]), balanced_tuple(parts[mid:]))


def node_count(node):
    return 1 + sum(map(node_count, children(node)))


def test_a_run_costs_its_redex_paths_not_the_whole_term(monkeypatch):
    t = balanced_tuple([surface.parse_term("(\\x:A. x) a")] * 400)
    nodes = node_count(t)
    calls = []
    every = syntax.children

    def counting(node):
        calls.append(1)
        return every(node)

    monkeypatch.setattr(syntax, "children", counting)
    monkeypatch.setattr(reducer, "children", counting)
    res = run_sample(t, seed=0)
    assert res.term == balanced_tuple([Var("a")] * 400)
    # searching the whole term before each of the 400 steps makes about
    # 400 * 1600 / 2 calls; resuming it visits each node once, and each
    # step rebuilds its path, 10 levels deep
    assert len(calls) <= 6 * (nodes + len(res.trace))


@given(st.integers(0, 1500))
@settings(max_examples=60, deadline=None)
def test_redex_at_reads_a_local_redex_along_its_path(seed):
    t = gen_closed_term(seed)
    local = {
        r.path: r for r in find_redexes(t) if r.kind != "oracle"
    }
    positions = [()]
    for path in positions:
        node = subnode_at(t, path)
        positions.extend(path + (i,) for i in range(len(children(node))))
    for path in positions + [(0,) * 12, (5,), (-1,)]:
        redex = redex_at(t, path)
        if redex is not None and redex.kind == "oracle":
            redex = None
        assert redex == local.get(path), path


@given(st.integers(0, 1500))
@settings(max_examples=60, deadline=None)
def test_step_rebuilds_the_path_and_hands_back_its_parent(seed):
    """Each outcome has its new node at the redex path, keeps every node
    off the path as the same object, and hands back the rebuilt node
    above the redex as parent."""
    t = gen_closed_term(seed)
    for redex in find_redexes(t):
        if redex.kind == "oracle":
            continue
        path = redex.path
        for outcome in step(t, redex):
            out = outcome.after
            if not path:
                assert outcome.parent is None
                continue
            assert outcome.parent is subnode_at(out, path[:-1])
            for depth in range(len(path)):
                old = children(subnode_at(t, path[:depth]))
                new = children(subnode_at(out, path[:depth]))
                assert type(new) is type(old) and len(new) == len(old)
                for j, kid in enumerate(old):
                    if j != path[depth]:
                        assert new[j] is kid


def right_nested_wide_beta(n):
    return syntax.make_tuple([surface.parse_term("(\\x:A. x) a")] * n)


@pytest.mark.parametrize("n", [75, 150, 300])
def test_each_step_walks_its_fired_path_once(monkeypatch, n):
    """Outside the redex search, a run reads the children of each node on
    the fired path at most once per step: the redex's ancestors while
    stepping, and then the rebuilt parent."""
    env, reg = signature()
    t = right_nested_wide_beta(n)
    ((_, quads),) = enumerate_paths(env, t, reg)
    assert len(quads) == n
    bound = sum(len(q.path) + 1 for q in quads)
    walks = []
    every = syntax.children

    def counting(node):
        if sys._getframe(1).f_code.co_name != "_search":
            walks.append(node)
        return every(node)

    monkeypatch.setattr(syntax, "children", counting)
    monkeypatch.setattr(reducer, "children", counting)
    res = run_sample(t, seed=0, registry=reg)
    assert res.term == syntax.make_tuple([Var("a")] * n)
    assert len(walks) <= bound
    walks.clear()
    assert enumerate_paths(env, t, reg) == [(1, quads)]
    assert len(walks) <= bound
