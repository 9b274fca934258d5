"""Evidence checking: distributions, traces, merges, divergence tests,
frequency tables, and exact enumeration with witnesses."""

import itertools
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import gen_closed_term, signature
from olam import reducer, surface, traces
from olam.errors import OlamError, ReductionError, TraceError
from olam.reducer import RULE_KIND, find_redexes, run_sample, step
from olam.traces import (
    Distribution,
    MapstoJudgment,
    TraceQuadruple,
    check_trace,
    derive_judgment,
    enumerate_distribution,
    enumerate_paths,
    forced_oracle_form,
    not_equiv_nd,
    oracle_frequency,
)
from olam.traces import _achievable, _readings, _sums
from olam.printer import term_key
from olam.syntax import (
    DEFAULT_FUEL,
    App,
    Choice,
    Force,
    Fuel,
    Lam,
    MergeTerm,
    OracleCall,
    OracleRef,
    Pair,
    TraceTerm,
    TypeName,
    Var,
    alpha_eq,
    children,
    hole_var,
    make_tuple,
)
from reference_syntax import subnode_at

HALF = Fraction(1, 2)
COIN = "choose[1/3]{a}{b}!"


def test_distribution_accumulates_alpha_classes():
    d = Distribution()
    d.add(surface.parse_term("(\\x:A. x)"), HALF)
    d.add(surface.parse_term("(\\y:A. y)"), HALF)
    assert len(d) == 1
    assert d.as_key_map() == {term_key(surface.parse_term("\\z:A. z")): 1}


def test_distribution_drops_zero_mass():
    d = Distribution()
    d.add(Var("a"), Fraction(0))
    assert len(d) == 0
    assert d.as_key_map() == {}


def test_distribution_items_sorted_and_total():
    d = Distribution()
    d.add(Var("b"), Fraction(2, 3))
    d.add(Var("a"), Fraction(1, 3))
    assert [str(p) for _, p in d.items()] == ["1/3", "2/3"]
    assert [rep for rep, _ in d.items()] == [Var("a"), Var("b")]
    assert d.total() == 1
    assert d.as_key_map() == {"a": Fraction(1, 3), "b": Fraction(2, 3)}


def test_distribution_equality():
    d1, d2 = Distribution(), Distribution()
    d1.add(Var("a"), HALF)
    d2.add(Var("a"), Fraction(2, 4))
    assert d1 == d2
    d2.add(Var("b"), HALF)
    assert d1 != d2


def quad(src, tgt, p, label):
    return TraceQuadruple(
        surface.parse_term(src), surface.parse_term(tgt), p, label
    )


def test_not_equiv_nd_opposite_branches():
    p1 = [quad(COIN, "a", Fraction(1, 3), "left")]
    p2 = [quad(COIN, "b", Fraction(2, 3), "right")]
    assert not_equiv_nd(p1, p2)
    assert not_equiv_nd(p2, p1)


def test_not_equiv_nd_rejects_same_side():
    p1 = [quad(COIN, "a", Fraction(1, 3), "left")]
    assert not not_equiv_nd(p1, p1)
    p2 = [quad(COIN, "a", Fraction(1, 3), "left"), quad("a", "a", HALF, "left")]
    assert not not_equiv_nd(p1, p2)


def test_not_equiv_nd_rejects_oracle_paths():
    p1 = [quad("#c!", "a", Fraction(1), "oracle")]
    p2 = [quad(COIN, "b", Fraction(2, 3), "right")]
    assert not not_equiv_nd(p1, p2)
    assert not not_equiv_nd(p2, p1)


def test_not_equiv_nd_rejects_different_starts():
    p1 = [quad(COIN, "a", Fraction(1, 3), "left")]
    p2 = [quad("choose[1/2]{a}{b}!", "b", HALF, "right")]
    assert not not_equiv_nd(p1, p2)


def test_not_equiv_nd_rejects_noncomplementary_probabilities():
    p1 = [quad(COIN, "a", Fraction(1, 3), "left")]
    p2 = [quad(COIN, "b", HALF, "right")]
    assert not not_equiv_nd(p1, p2)


def test_not_equiv_nd_requires_shared_prefix_then_split():
    common = quad("g choose[1/2]{a}{b}!", "g a", HALF, "left")
    p1 = [common, quad("g a", "g a", Fraction(1), "beta")]
    p2 = [common, quad("g a", "g a", Fraction(1), "beta")]
    assert not not_equiv_nd(p1, p2)
    assert not not_equiv_nd([], p1)


def test_check_trace_simple_chain():
    env, reg = signature()
    t = surface.parse_term("(\\x:A. x) choose[1/2]{a}{b}!")
    steps = (t, surface.parse_term("choose[1/2]{a}{b}!"), Var("a"))
    claim = MapstoJudgment(t, Var("a"), HALF, TraceTerm(steps, HALF))
    assert check_trace(env, claim.witness, claim, reg)


def test_check_trace_singleton_chain():
    env, reg = signature()
    w = TraceTerm((Var("a"),), None)
    claim = MapstoJudgment(Var("a"), Var("a"), Fraction(1), w)
    assert check_trace(env, w, claim, reg)


def test_check_trace_claim_type_mismatch():
    env, reg = signature()
    w = TraceTerm((Var("a"),), None)
    claim = MapstoJudgment(Var("a"), Var("q"), Fraction(1), w)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, claim, reg)
    assert e.value.code == "ClaimTypeMismatch"


def test_check_trace_probability_out_of_range():
    env, reg = signature()
    w = TraceTerm((Var("a"),), None)
    claim = MapstoJudgment(Var("a"), Var("a"), Fraction(3, 2), w)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, claim, reg)
    assert e.value.code == "ProbabilityMismatch"


def test_check_trace_empty_and_broken_chains():
    env, reg = signature()
    coin = surface.parse_term(COIN)
    with pytest.raises(TraceError) as e:
        check_trace(
            env,
            TraceTerm((), None),
            MapstoJudgment(Var("a"), Var("a"), Fraction(1), TraceTerm((), None)),
            reg,
        )
    assert e.value.code == "BrokenChain"
    w = TraceTerm((coin, Var("a")), None)
    with pytest.raises(TraceError) as e:
        check_trace(
            env, w, MapstoJudgment(Var("b"), Var("a"), Fraction(1, 3), w), reg
        )
    assert e.value.code == "BrokenChain"
    with pytest.raises(TraceError) as e:
        check_trace(
            env, w, MapstoJudgment(coin, Var("b"), Fraction(1, 3), w), reg
        )
    assert e.value.code == "BrokenChain"


def test_check_trace_annotation_must_match_claim():
    env, reg = signature()
    coin = surface.parse_term(COIN)
    w = TraceTerm((coin, Var("a")), Fraction(1, 3))
    with pytest.raises(TraceError) as e:
        check_trace(
            env, w, MapstoJudgment(coin, Var("a"), Fraction(2, 3), w), reg
        )
    assert e.value.code == "ProbabilityMismatch"


def test_check_trace_unachievable_probability():
    env, reg = signature()
    coin = surface.parse_term(COIN)
    w = TraceTerm((coin, Var("a")), None)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(coin, Var("a"), HALF, w), reg)
    assert e.value.code == "ProbabilityMismatch"


def test_check_trace_rule_mismatch():
    env, reg = signature()
    w = TraceTerm((Var("a"), Var("b")), None)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(Var("a"), Var("b"), Fraction(1), w), reg)
    assert e.value.code == "RuleMismatch"


def test_check_trace_oracle_replay_mismatch():
    env, reg = signature()
    src = surface.parse_term("#c!")
    w = TraceTerm((src, Var("b")), None)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(src, Var("b"), Fraction(1), w), reg)
    assert e.value.code == "OracleReplayMismatch"


def test_labelled_oracle_step_with_a_wrong_answer():
    """A failed labelled oracle step is a wrong oracle answer, whatever the
    shape of the term it claims to reach."""
    env, reg = signature()
    src = surface.parse_term("<#c!, #c!>")
    mid = surface.parse_term("(\\y:A. <y, y>) a")
    end = surface.parse_term("<a, a>")
    w = TraceTerm((src, mid, end), None, (((0,), "oracle"), ((), "beta")))
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(src, end, Fraction(1), w), reg)
    assert e.value.code == "OracleReplayMismatch"


def test_check_trace_oracle_step_replays():
    env, reg = signature()
    src = surface.parse_term("#c!")
    w = TraceTerm((src, Var("a")), None)
    claim = MapstoJudgment(src, Var("a"), Fraction(1), w)
    assert check_trace(env, w, claim, reg)


def test_check_trace_merge_of_identical_outcomes():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{a}!")
    w = MergeTerm(t, ((), ()), Var("a"), Fraction(1))
    claim = MapstoJudgment(t, Var("a"), Fraction(1), w)
    assert check_trace(env, w, claim, reg)


def test_check_trace_merge_nd_condition_violated():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{b}!")
    w = MergeTerm(t, ((), ()), Var("a"), Fraction(1))
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(t, Var("a"), Fraction(1), w), reg)
    assert e.value.code == "NDConditionViolated"


def test_check_trace_merge_without_branches():
    env, reg = signature()
    w = MergeTerm(Var("a"), (), Var("a"), Fraction(1))
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(Var("a"), Var("a"), Fraction(1), w), reg)
    assert e.value.code == "IncompleteWitnesses"


def test_check_trace_merge_wrong_sum():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{a}!")
    w = MergeTerm(t, ((), ()), Var("a"), None)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(t, Var("a"), HALF, w), reg)
    assert e.value.code == "ProbabilityMismatch"


def test_check_trace_merge_oracle_paths_never_merge():
    env, reg = signature()
    t = surface.parse_term("#c!")
    w = MergeTerm(t, ((), ()), Var("a"), Fraction(1))
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(t, Var("a"), Fraction(1), w), reg)
    assert e.value.code == "NDConditionViolated"


def test_check_trace_rejects_non_evidence():
    env, reg = signature()
    with pytest.raises(TraceError) as e:
        check_trace(
            env, Var("a"), MapstoJudgment(Var("a"), Var("a"), Fraction(1), Var("a")), reg
        )
    assert e.value.code == "NotEvidence"


def test_check_trace_frequency_table():
    env, reg = signature()
    dist, judgments = oracle_frequency(env, "c", None, 3, reg)
    for j in judgments:
        assert check_trace(env, j.witness, j, reg)


def test_check_trace_frequency_share_mismatch():
    env, reg = signature()
    _, judgments = oracle_frequency(env, "c", None, 3, reg)
    j = next(j for j in judgments if alpha_eq(j.target, Var("a")))
    bad = MapstoJudgment(j.source, j.target, Fraction(1, 3), j.witness)
    with pytest.raises(TraceError) as e:
        check_trace(env, bad.witness, bad, reg)
    assert e.value.code == "ProbabilityMismatch"
    assert "2 of 3" in str(e.value)


def test_check_trace_frequency_tampered_result():
    env, reg = signature()
    _, judgments = oracle_frequency(env, "c", None, 3, reg)
    j = next(j for j in judgments if alpha_eq(j.target, Var("b")))
    tampered = TraceTerm(
        (j.witness.steps[0], surface.parse_term("<b, <b, b>>")),
        j.witness.prob,
    )
    bad = MapstoJudgment(j.source, j.target, Fraction(1), tampered)
    with pytest.raises(TraceError) as e:
        check_trace(env, tampered, bad, reg)
    assert e.value.code == "OracleReplayMismatch"


@pytest.mark.parametrize("width", [1, 2])
def test_check_trace_frequency_step_is_the_oracle_step(width):
    """A beta step inside the call's argument does not stand in for the
    oracle step of a frequency table."""
    env, reg = signature()
    src = surface.parse_term("(#d ((\\x:A. x) a))!")
    stepped = surface.parse_term("(#d a)!")
    w = TraceTerm(
        (
            make_tuple([src] * width),
            make_tuple([stepped] + [src] * (width - 1)),
        ),
        Fraction(1),
    )
    claim = MapstoJudgment(src, stepped, Fraction(1, width), w)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, claim, reg)
    assert e.value.code == "OracleReplayMismatch"


def test_check_trace_frequency_result_of_another_shape():
    """A table whose result is not a tuple of its width fails as a wrong
    oracle answer."""
    env, reg = signature()
    src = surface.parse_term("#c!")
    w = TraceTerm((make_tuple([src] * 3), Var("a")), Fraction(1))
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(src, Var("a"), Fraction(1, 3), w), reg)
    assert e.value.code == "OracleReplayMismatch"


def test_check_trace_frequency_table_carries_probability_1():
    """A frequency table is one trace of the whole tuple, so an annotation
    other than 1 is refused."""
    env, reg = signature()
    _, judgments = oracle_frequency(env, "c", None, 3, reg)
    j = judgments[0]
    w = TraceTerm(j.witness.steps, HALF)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(j.source, j.target, j.prob, w), reg)
    assert (e.value.code, e.value.message) == (
        "ProbabilityMismatch",
        "frequency evidence carries probability 1/2, not 1",
    )


def test_check_trace_two_terms_not_all_source_are_a_chain():
    """A two-term trace whose first term is a tuple with a part other than
    the source is no frequency table: it is read as an ordinary trace,
    which must start at the source."""
    env, reg = signature()
    src = surface.parse_term("#c!")
    w = TraceTerm((surface.parse_term("<#c!, a>"), Var("a")), None)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(src, Var("a"), HALF, w), reg)
    assert (e.value.code, e.value.message) == (
        "BrokenChain",
        "evidence does not start at the source",
    )


def test_derive_judgment_unique_probability():
    env, reg = signature()
    coin = surface.parse_term(COIN)
    j = derive_judgment(env, TraceTerm((coin, Var("b")), None), reg)
    assert j.prob == Fraction(2, 3)
    assert alpha_eq(j.source, coin)
    assert alpha_eq(j.target, Var("b"))


def test_derive_judgment_ambiguous_needs_annotation():
    env, reg = signature()
    t = surface.parse_term("choose[1/3]{a}{a}!")
    w = TraceTerm((t, Var("a")), None)
    with pytest.raises(TraceError) as e:
        derive_judgment(env, w, reg)
    assert e.value.code == "ProbabilityMismatch"
    assert "candidates" in str(e.value)
    annotated = TraceTerm((t, Var("a")), Fraction(1, 3))
    assert derive_judgment(env, annotated, reg).prob == Fraction(1, 3)


def test_derive_judgment_merge():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{a}!")
    j = derive_judgment(env, MergeTerm(t, ((), ()), Var("a"), None), reg)
    assert j.prob == 1


def test_derive_judgment_rejects_values():
    env, reg = signature()
    with pytest.raises(TraceError) as e:
        derive_judgment(env, Var("a"), reg)
    assert e.value.code == "NotEvidence"


def test_forced_oracle_form():
    assert forced_oracle_form(Force(OracleRef("c"))) == ("c", None)
    assert forced_oracle_form(Force(OracleCall("d", Var("a")))) == ("d", Var("a"))
    assert forced_oracle_form(Var("a")) is None
    assert forced_oracle_form(OracleRef("c")) is None


def test_enumerate_paths_left_first():
    env, reg = signature()
    coin = surface.parse_term(COIN)
    paths = enumerate_paths(env, coin, reg)
    assert [(p, q[-1].after) for p, q in paths] == [
        (Fraction(1, 3), Var("a")),
        (Fraction(2, 3), Var("b")),
    ]
    assert [q[0].label for _, q in paths] == ["left", "right"]


def test_enumerate_paths_drops_zero_probability():
    env, reg = signature()
    paths = enumerate_paths(env, surface.parse_term("choose[1]{a}{b}!"), reg)
    assert [(p, q[-1].after) for p, q in paths] == [(Fraction(1), Var("a"))]


def test_enumerate_paths_fuel():
    env, reg = signature()
    from olam.errors import ReductionError

    with pytest.raises(ReductionError) as e:
        enumerate_paths(env, surface.parse_term("(\\x:A. x) ((\\y:A. y) a)"), reg, fuel=1)
    assert e.value.code == "FuelExhausted"


def test_enumerate_distribution_coin():
    env, reg = signature()
    dist, judgments = enumerate_distribution(
        env, surface.parse_term(COIN), registry=reg
    )
    assert dist.as_key_map() == {"a": Fraction(1, 3), "b": Fraction(2, 3)}
    assert all(isinstance(j.witness, TraceTerm) for j in judgments)
    assert [str(j.prob) for j in judgments] == ["1/3", "2/3"]


def test_enumerate_distribution_collapsing_choice():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{a}!")
    dist, judgments = enumerate_distribution(env, t, registry=reg)
    assert dist.as_key_map() == {"a": Fraction(1)}
    (j,) = judgments
    assert isinstance(j.witness, MergeTerm)
    assert j.witness.branches == ((), ())
    assert j.prob == 1


def test_enumerate_distribution_nested_merge():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{choose[1/2]{a}{b}!}!")
    dist, judgments = enumerate_distribution(env, t, registry=reg)
    assert dist.as_key_map() == {"a": Fraction(3, 4), "b": Fraction(1, 4)}
    merged = next(j for j in judgments if alpha_eq(j.target, Var("a")))
    assert isinstance(merged.witness, MergeTerm)
    assert len(merged.witness.branches) == 2
    single = next(j for j in judgments if alpha_eq(j.target, Var("b")))
    assert isinstance(single.witness, TraceTerm)


def test_enumerate_distribution_oracle_paths_not_merged():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{#c!}{#c!}!")
    dist, judgments = enumerate_distribution(env, t, registry=reg)
    # both paths land on a, but oracle steps keep per-path traces
    assert dist.as_key_map() == {"a": Fraction(1)}
    assert len(judgments) == 2
    assert all(isinstance(j.witness, TraceTerm) for j in judgments)
    assert [str(j.prob) for j in judgments] == ["1/2", "1/2"]


def test_enumerate_distribution_simultaneous_oracle():
    env, reg = signature()
    t = surface.parse_term("<#c!, <#c!, #c!>>")
    dist, judgments = enumerate_distribution(env, t, registry=reg)
    assert dist.as_key_map() == {"<a, <a, b>>": Fraction(1)}
    (j,) = judgments
    assert len(j.witness.steps) == 2


def test_enumerate_distribution_argument_sensitive_oracle():
    env, reg = signature()
    t = surface.parse_term("(#d a)!")
    dist, _ = enumerate_distribution(env, t, registry=reg)
    assert dist.as_key_map() == {"b": Fraction(1)}
    t2 = surface.parse_term("(#d (g a))!")
    dist2, _ = enumerate_distribution(env, t2, registry=reg)
    assert dist2.as_key_map() == {"a": Fraction(1)}


def test_enumerate_distribution_normal_form_is_point_mass():
    env, reg = signature()
    dist, judgments = enumerate_distribution(env, Var("a"), registry=reg)
    assert dist.as_key_map() == {"a": Fraction(1)}
    (j,) = judgments
    assert j.witness == TraceTerm((Var("a"),), Fraction(1))


def unfolded_walks(graph):
    """Every walk of a step graph from node 0 to a node without edges, as
    its probability, its labels and its node texts, in left-first order."""
    edges = {}
    for node, label, prob, child in graph.edges:
        edges.setdefault(node, []).append((label, prob, child))
    walks = []
    stack = [(0, Fraction(1), (), (graph.texts[0],))]
    while stack:
        node, prob, labels, texts = stack.pop()
        if node not in edges:
            walks.append((prob, labels, texts))
        for label, p, child in reversed(edges.get(node, [])):
            stack.append(
                (child, prob * p, labels + (label,), texts + (graph.texts[child],))
            )
    return walks


def test_step_graph_folds_the_enumerated_paths():
    """Unfolding the step graph gives enumerate_paths' paths, in their
    order, and its distribution is enumerate_distribution's, with the
    same printed outcomes.  The graph spends one unit of fuel per edge, no
    more than the paths spend, so at a fuel that ends the paths early
    the graph either ends with the same code or finishes with the whole
    distribution."""
    env, reg = signature()
    codes = set()
    for seed in range(1500):
        t = gen_closed_term(seed)
        budget = Fuel(DEFAULT_FUEL)
        dist, graph = traces.step_graph(t, reg, budget)
        assert DEFAULT_FUEL - budget.left == len(graph.edges), seed
        paths = enumerate_paths(env, t, reg)
        assert unfolded_walks(graph) == [
            (
                prob,
                tuple((q.path, q.label) for q in quads),
                (str(t), *(str(q.after) for q in quads)),
            )
            for prob, quads in paths
        ], seed
        expected, _ = enumerate_distribution(env, t, reg)
        assert dist == expected, seed
        assert list(map(str, dist.items())) == list(map(str, expected.items()))
        assert sorted(graph.texts) == sorted(set(graph.texts))
        # nodes are numbered as the paths, read left-first, first reach them
        assert graph.texts == tuple(
            dict.fromkeys(
                text
                for _, quads in paths
                for text in (str(t), *(str(q.after) for q in quads))
            )
        ), seed
        fuel = 2 + seed % 30
        got = result_or_code(traces.step_graph, t, reg, fuel)
        want = result_or_code(enumerate_paths, env, t, reg, fuel)
        codes.add((got[0], want[0]))
        if got[0] == "error":
            assert got == want, seed
        else:
            assert got[1][0] == dist, seed
    assert codes == {("ok", "ok"), ("ok", "error"), ("error", "error")}


def result_or_code(run, *args):
    try:
        return "ok", run(*args)
    except OlamError as err:
        return "error", err.code


def collapse(n):
    """n nested applications of a fair choice between two equal sides."""
    t = Var("a")
    for _ in range(n):
        t = App(surface.parse_term("\\x:A. choose[1/2]{x}{x}!"), t)
    return t


@pytest.mark.parametrize("n", [8, 14, 20])
def test_step_graph_of_collapse_grows_linearly(n, monkeypatch):
    """collapse(n) has 2^n paths to one outcome, but 2n + 1 distinct
    terms: the graph steps each non-leaf node once and prints the term
    and each edge's target once."""
    env, reg = signature()
    calls = {"step": 0, "show": 0}
    for name in calls:
        original = getattr(traces, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(traces, name, counted)
    dist, graph = traces.step_graph(collapse(n), reg)
    assert dist.as_key_map() == {"a": 1}
    assert len(graph.texts) == 2 * n + 1
    assert len(graph.edges) == 3 * n
    assert calls == {"step": 2 * n, "show": 3 * n + 1}
    assert graph.leaves == ((2 * n, 1),)


def test_step_graph_merges_paths_by_their_printed_terms():
    """Both sides of a choice between equal terms lead to one node, whose
    mass is the sum; alpha-variant normal forms are two leaves of one
    outcome, and the outcome's term is the first of them."""
    env, reg = signature()
    t = surface.parse_term("choose[1/3]{\\x:A. x}{choose[1/2]{\\y:A. y}{\\x:A. x}!}!")
    dist, graph = traces.step_graph(t, reg)
    assert graph.texts == (
        str(t), "\\x:A. x", "choose[1/2]{\\y:A. y}{\\x:A. x}!", "\\y:A. y"
    )
    assert graph.edges == (
        (0, ((), "left"), Fraction(1, 3), 1),
        (0, ((), "right"), Fraction(2, 3), 2),
        (2, ((), "left"), HALF, 3),
        (2, ((), "right"), HALF, 1),
    )
    assert graph.leaves == ((1, Fraction(2, 3)), (3, Fraction(1, 3)))
    assert dist.as_key_map() == {"\\?0:A. ?0": 1}
    assert [str(rep) for rep, _ in dist.items()] == ["\\x:A. x"]


def test_a_cycle_spends_all_the_fuel():
    """A term that steps back to itself (possible only untyped) has
    paths that never end, at the root or below it: the graph spends
    every unit of fuel and fails as the paths do."""
    env, reg = signature()
    omega = "(\\x:A. x x) (\\x:A. x x)"
    for source in (
        omega,
        # the cycle comes after a closed sibling leaf
        f"choose[1/2]{{a}}{{{omega}}}!",
        # the cycle is under a stepped node
        f"<choose[1/2]{{a}}{{b}}!, {omega}>",
    ):
        t = surface.parse_term(source)
        for run, args in (
            (traces.step_graph, (t, reg)),
            (enumerate_paths, (env, t, reg)),
        ):
            budget = Fuel(50)
            with pytest.raises(OlamError) as e:
                run(*args, budget)
            assert e.value.code == "FuelExhausted", source
            assert budget.left == 0, source


def test_oracle_frequency_cyclic():
    env, reg = signature()
    dist, judgments = oracle_frequency(env, "c", None, 3, reg)
    assert dist.as_key_map() == {"a": Fraction(2, 3), "b": Fraction(1, 3)}
    assert [str(j.prob) for j in judgments] == ["2/3", "1/3"]
    assert all(len(j.witness.steps) == 2 for j in judgments)


def test_oracle_frequency_600_wide_in_process():
    """Every walk of the 600-deep batched call takes one frame per level:
    the library call returns, with no RecursionError."""
    env, reg = signature()
    dist, judgments = oracle_frequency(env, "c", None, 600, reg)
    assert dist.as_key_map() == {"a": Fraction(2, 3), "b": Fraction(1, 3)}
    assert len(judgments) == 2


def test_oracle_frequency_width_one():
    env, reg = signature()
    dist, _ = oracle_frequency(env, "c", None, 1, reg)
    assert dist.as_key_map() == {"a": Fraction(1)}


def test_oracle_frequency_with_argument():
    env, reg = signature()
    dist, _ = oracle_frequency(env, "d", Var("a"), 4, reg)
    assert dist.as_key_map() == {"b": Fraction(1)}


def test_oracle_frequency_bad_width():
    env, reg = signature()
    with pytest.raises(TraceError) as e:
        oracle_frequency(env, "c", None, 0, reg)
    assert e.value.code == "FrequencyWidth"


def brute_force_merge_sums(sequences, registry):
    """Independent reference: cross every reading per branch, each step
    with its redex path, and keep assignments whose paths pairwise
    diverge oppositely."""

    def branch_readings(seq):
        pairs = list(zip(seq, seq[1:]))
        candidate_sets = [_readings(u, v, None, registry) for u, v in pairs]
        readings = []
        for combo in itertools.product(*candidate_sets):
            quads = tuple(
                TraceQuadruple(u, v, p, rule, path)
                for (u, v), (p, (path, rule)) in zip(pairs, combo)
            )
            if quads not in readings:
                readings.append(quads)
        return readings

    per_branch = [branch_readings(seq) for seq in sequences]
    sums, found = set(), False
    for assignment in itertools.product(*per_branch):
        if all(
            not_equiv_nd(assignment[i], assignment[j])
            for i in range(len(assignment))
            for j in range(i + 1, len(assignment))
        ):
            found = True
            total = Fraction(0)
            for reading in assignment:
                branch_prob = Fraction(1)
                for q in reading:
                    branch_prob *= q.prob
                total += branch_prob
            sums.add(total)
    if not found:
        raise TraceError("NDConditionViolated", "no valid labeling")
    return sums


SMALL_PROBS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4)]


def random_choice_term(rng, depth):
    if depth == 0:
        return Var(rng.choice("ab"))
    r = rng.random()
    if r < 0.15:
        # two choices side by side can split at different paths
        return Pair(
            random_choice_term(rng, depth - 1),
            random_choice_term(rng, depth - 1),
        )
    if r < 0.65:
        return Force(
            Choice(
                random_choice_term(rng, depth - 1),
                rng.choice(SMALL_PROBS),
                random_choice_term(rng, depth - 1),
            )
        )
    if r < 0.8:
        return App(
            Lam("x", TypeName("A"), Var("x")), random_choice_term(rng, depth - 1)
        )
    return Var(rng.choice("ab"))


def random_walk(rng, t, registry):
    """A reduction path of t that fires a random redex at each step, so
    two walks may take the choices of a pair in either order."""
    seq = [t]
    while redexes := find_redexes(seq[-1]):
        outs = [
            o for o in step(seq[-1], rng.choice(redexes), registry) if o.prob > 0
        ]
        seq.append(rng.choice(outs).after)
    return tuple(seq)


def readings_by_search(u, v, label, registry):
    """_readings as it was written over find_redexes: a label must name one
    of the redexes a whole-term search of u finds."""
    redexes = find_redexes(u)
    if label is not None:
        path, rule = label
        redexes = [
            r for r in redexes if r.path == path and r.kind == RULE_KIND.get(rule)
        ]
        if not redexes:
            raise TraceError("LabelMismatch", "no such redex")
    found = []
    for redex in redexes:
        for outcome in step(u, redex, registry):
            reading = (Fraction(outcome.prob), (redex.path, outcome.label))
            if (
                outcome.prob != 0
                and label in (None, reading[1])
                and reading not in found
                and alpha_eq(outcome.after, v)
            ):
                found.append(reading)
    if found:
        return found
    if label is None:
        traces._diagnose_failed_step(u, v)
        raise TraceError("RuleMismatch", "no rule")
    raise TraceError(
        "OracleReplayMismatch" if rule == "oracle" else "RuleMismatch", "no step"
    )


def readings_or_code(read, u, v, label, registry):
    try:
        return "ok", read(u, v, label, registry)
    except OlamError as err:
        return "error", err.code


@given(st.integers(0, 3000))
@settings(max_examples=100, deadline=None)
def test_readings_match_the_whole_term_search(seed):
    """Labels on the steps of random walks, right and wrong: a beta, proj
    or choice label read along its path gives the readings, and the
    errors, of the whole-term search."""
    env, reg = signature()
    rng = random.Random(seed)
    t = gen_closed_term(seed, depth=5)
    seq = random_walk(rng, t, reg)
    pairs = list(zip(seq, seq[1:]))
    for u, v in rng.sample(pairs, min(3, len(pairs))) + [(t, seq[-1])]:
        positions = [()]
        for path in positions:
            kids = children(subnode_at(u, path))
            positions.extend(path + (i,) for i in range(len(kids)))
        labels = [None] + [
            (path, rule)
            for path in rng.sample(positions, min(4, len(positions)))
            for rule in RULE_KIND
        ]
        labels += [(r.path, rule) for r in find_redexes(u) for rule in RULE_KIND]
        labels.append(((0,) * 9, "beta"))
        for label in labels:
            for registry in (reg, None):
                assert readings_or_code(_readings, u, v, label, registry) == (
                    readings_or_code(readings_by_search, u, v, label, registry)
                ), (seed, label, registry)


def test_a_variable_spelled_like_hole_1_names_no_oracle_step():
    """Before the first forced call of <a, <#c!, #c!>> stands a variable.
    A label at it or at the second call names no redex, with or without a
    registry; a failed unlabelled step is told apart as a wrong answer or
    as no rule, by the shape of v.  Where the variable is spelled like
    hole 1, a label at either call and an unlabelled step read the
    oracle's context, which refuses the name."""
    _, reg = signature()
    calls = Pair(Force(OracleRef("c")), Force(OracleRef("c")))
    t = Pair(Var("a"), calls)
    v = surface.parse_term("<a, <b, a>>")
    for path in ((0,), (1, 1)):
        for registry in (reg, None):
            with pytest.raises(TraceError) as e:
                _readings(t, v, (path, "oracle"), registry)
            assert e.value.code == "LabelMismatch"
            assert e.value.message == (
                f"no oracle redex at position {list(path)} of {t}"
            )
    codes = {"<a, <b, a>>": "OracleReplayMismatch", "<a, a>": "RuleMismatch"}
    for text, code in codes.items():
        with pytest.raises(TraceError) as e:
            _readings(t, surface.parse_term(text), None, reg)
        assert e.value.code == code
    spelled = Pair(hole_var(1), calls)
    v = surface.parse_term("<b, <b, a>>")
    for registry in (reg, None):
        with pytest.raises(TraceError) as e:
            _readings(spelled, v, ((0,), "oracle"), registry)
        assert e.value.code == "LabelMismatch"
        for path in ((1, 0), (1, 1)):
            with pytest.raises(ReductionError) as e:
                _readings(spelled, v, (path, "oracle"), registry)
            assert e.value.code == "ReservedName"
    for text in codes:
        with pytest.raises(ReductionError) as e:
            _readings(spelled, surface.parse_term(text), None, reg)
        assert e.value.code == "ReservedName"


def test_labelled_local_steps_make_no_whole_term_search(monkeypatch):
    env, reg = signature()
    calls = []

    def counting(t):
        calls.append(t)
        return find_redexes(t)

    monkeypatch.setattr(traces, "find_redexes", counting)
    u = surface.parse_term(f"<(\\x:A. x) <a, {COIN}>.1, #c!>")
    steps = [
        ((0,), "beta", "<<a, choose[1/3]{a}{b}!>.1, #c!>"),
        ((0, 1), "proj", "<(\\x:A. x) choose[1/3]{a}{b}!, #c!>"),
    ]
    for path, rule, after in steps:
        v = surface.parse_term(after)
        assert _readings(u, v, (path, rule), reg) == [(1, (path, rule))]
    coin = surface.parse_term(f"<a, {COIN}>")
    for rule, prob in (("left", Fraction(1, 3)), ("right", Fraction(2, 3))):
        v = surface.parse_term("<a, a>" if rule == "left" else "<a, b>")
        assert _readings(coin, v, ((1,), rule), reg) == [(prob, ((1,), rule))]
    with pytest.raises(TraceError) as e:
        _readings(coin, coin, ((0,), "beta"), reg)
    assert e.value.code == "LabelMismatch"
    assert calls == []
    # an oracle label is read along its path and its oracle's context
    v = surface.parse_term("<(\\x:A. x) <a, choose[1/3]{a}{b}!>.1, a>")
    assert _readings(u, v, ((1,), "oracle"), reg) == [(1, ((1,), "oracle"))]
    assert calls == []


@given(st.integers(0, 600))
@settings(max_examples=120, deadline=None)
def test_merge_search_matches_brute_force(trial):
    env, reg = signature()
    rng = random.Random(trial)
    t = random_choice_term(rng, rng.randint(1, 3))
    sequences = [random_walk(rng, t, reg) for _ in range(rng.randint(1, 3))]
    # repeated walks are interchangeable branches for the search
    sequences += rng.choices(sequences, k=rng.randint(0, 2))
    try:
        expected = ("ok", brute_force_merge_sums(sequences, reg))
    except TraceError as e:
        expected = ("err", e.code)
    try:
        got = ("ok", _sums(sequences, None, reg, Fuel(DEFAULT_FUEL)))
    except TraceError as e:
        got = ("err", e.code)
    assert got == expected


@given(st.integers(0, 700))
@settings(max_examples=80, deadline=None)
def test_enumerated_evidence_rechecks(seed):
    env, reg = signature()
    t = gen_closed_term(seed)
    dist, judgments = enumerate_distribution(env, t, registry=reg)
    assert dist.total() == 1
    mass = Fraction(0)
    for j in judgments:
        assert alpha_eq(j.source, t)
        assert check_trace(env, j.witness, j, registry=reg)
        mass += j.prob
    assert mass == 1


def test_enumerate_paths_records_redex_paths():
    env, reg = signature()
    t = surface.parse_term(f"<a, {COIN}>")
    paths = enumerate_paths(env, t, reg)
    assert [[(q.path, q.label) for q in quads] for _, quads in paths] == [
        [((1,), "left")],
        [((1,), "right")],
    ]


def test_walks_keep_the_records_step_returns(monkeypatch):
    """Every step of an enumerated path and of a sampled run is a record
    that step returned, not a copy of one."""
    env, reg = signature()
    # id -> record; holding each record keeps its id from being reused
    returned = {}

    def recording(original):
        def wrapper(*args, **kwargs):
            records = original(*args, **kwargs)
            returned.update((id(r), r) for r in records)
            return records

        return wrapper

    monkeypatch.setattr(traces, "step", recording(traces.step))
    monkeypatch.setattr(reducer, "step", recording(reducer.step))
    kept = []
    for seed in range(300):
        t = gen_closed_term(seed)
        for _, quads in enumerate_paths(env, t, reg):
            kept.extend(quads)
        kept.extend(run_sample(t, seed, registry=reg).trace)
    assert kept
    assert all(returned.get(id(q)) is q for q in kept)


def test_only_the_reducer_builds_step_records():
    src = Path(traces.__file__).parent
    builders = sorted(
        path.name
        for path in src.glob("*.py")
        if re.search(r"\bTraceQuadruple\(", path.read_text())
    )
    assert builders == ["reducer.py"]


def test_labelled_merge_rejects_what_the_pass_cannot_split():
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{a}!")
    left, right = ((), "left"), ((), "right")

    def check(w):
        return check_trace(
            env, w, MapstoJudgment(w.source, w.target, w.prob, w), reg
        )

    def merge(*labels):
        branches = ((),) * len(labels)
        return MergeTerm(t, branches, Var("a"), Fraction(1), labels)

    assert check(merge((left,), (right,)))
    for w, code in (
        # two branches that never part
        (merge((left,), (left,)), "NDConditionViolated"),
        # three branches from one choice
        (merge((left,), (right,), (left,)), "NDConditionViolated"),
        # a label list per branch, a label per step
        (MergeTerm(t, ((), ()), Var("a"), Fraction(1), ((left,),)), "LabelMismatch"),
        (merge((left,), ()), "LabelMismatch"),
        # a label naming no redex of its term
        (merge((left,), (((0,), "right"),)), "LabelMismatch"),
    ):
        with pytest.raises(TraceError) as e:
            check(w)
        assert e.value.code == code
    # the two sides of one choice, not of two choices at two paths
    pair = surface.parse_term("<choose[1/2]{a}{a}!, choose[1/2]{a}{a}!>")
    aa = surface.parse_term("<a, a>")
    w = MergeTerm(
        pair,
        ((surface.parse_term("<a, choose[1/2]{a}{a}!>"),),
         (surface.parse_term("<choose[1/2]{a}{a}!, a>"),)),
        aa, Fraction(1, 2),
        ((((0,), "left"), ((1,), "left")), (((1,), "right"), ((0,), "left"))),
    )
    with pytest.raises(TraceError) as e:
        check(w)
    assert e.value.code == "NDConditionViolated"
    # a branch sharing another's label must share its next term: the left
    # side of s is x, never z, though z then steps to a as x does
    s = surface.parse_term("choose[1/3]{choose[1/2]{a}{b}!}{choose[1/2]{b}{a}!}!")
    x = surface.parse_term("choose[1/2]{a}{b}!")
    z = surface.parse_term("choose[1/2]{b}{a}!")
    w = MergeTerm(
        s, ((x,), (z,)), Var("a"), Fraction(1, 3), ((left, left), (left, right))
    )
    with pytest.raises(TraceError) as e:
        check(w)
    assert e.value.code == "RuleMismatch"
    # oracle steps never merge, with or without labels
    o = surface.parse_term("choose[1/2]{#c!}{#c!}!")
    forced = (surface.parse_term("#c!"),)
    oracle = ((), "oracle")
    w = MergeTerm(
        o, (forced, forced), Var("a"), Fraction(1),
        ((left, oracle), (right, oracle)),
    )
    with pytest.raises(TraceError) as e:
        check(w)
    assert e.value.code == "NDConditionViolated"


def test_merge_of_two_different_choices_is_rejected():
    """Left at one choice and right at another are overlapping events:
    <a, b> has probability 1/4, not the 1/2 that summing them gives."""
    env, reg = signature()
    coin = "choose[1/2]{a}{b}!"
    t = surface.parse_term(f"<{coin}, {coin}>")
    ab = surface.parse_term("<a, b>")
    branches = (
        (surface.parse_term(f"<a, {coin}>"),),
        (surface.parse_term(f"<{coin}, b>"),),
    )
    dist, _ = enumerate_distribution(env, t, reg)
    assert dist.as_key_map()[term_key(ab)] == Fraction(1, 4)
    w = MergeTerm(t, branches, ab, HALF)
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(t, ab, HALF, w), reg)
    assert e.value.code == "NDConditionViolated"
    with pytest.raises(TraceError) as e:
        derive_judgment(env, MergeTerm(t, branches, ab), reg)
    assert e.value.code == "NDConditionViolated"


def test_alpha_equal_branches_are_interchangeable():
    """The 32 branches of a five-fold collapse, each written out on its
    own, share no term objects; alpha-equal ones still form one class, so
    the search divides counts instead of naming 32 branches."""
    env, reg = signature()
    src = "a"
    for _ in range(5):
        src = f"(\\x:A. choose[1/2]{{x}}{{x}}!) ({src})"
    _, (j,) = enumerate_distribution(env, surface.parse_term(src), reg)
    branches = tuple(
        tuple(surface.parse_term(str(t)) for t in branch)
        for branch in j.witness.branches
    )
    assert len(branches) == 32
    w = MergeTerm(surface.parse_term(src), branches, Var("a"))
    assert derive_judgment(env, w, reg).prob == 1


def balanced_tuple(parts):
    """The parts, left to right, as the leaves of a balanced pair tree."""
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return Pair(balanced_tuple(parts[:half]), balanced_tuple(parts[half:]))


def test_shared_steps_take_no_stack():
    """Two branches share 160 beta steps before the choice that parts
    them.  The check loops over shared steps, labelled or not, so a stack
    that a check of a shallow term needs is enough; a search recursing
    once per shared step would need 160 frames more."""
    env, reg = signature()
    five_betas = surface.parse_term(
        "(\\x:A. \\y:A. \\z:A. \\u:A. \\w:A. x) a a a a a"
    )
    choice = surface.parse_term("choose[1/2]{a}{a}!")
    t = balanced_tuple([five_betas] * 32 + [choice])
    (_, left), (_, right) = enumerate_paths(env, t, reg)
    assert len(left) == len(right) == 161
    middle = tuple(q.after for q in left[:-1])
    target = left[-1].after
    labels = tuple(tuple((q.path, q.label) for q in p) for p in (left, right))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        for w in (
            MergeTerm(t, (middle, middle), target, None, labels),
            MergeTerm(t, (middle, middle), target),
        ):
            assert derive_judgment(env, w, reg).prob == 1
    finally:
        sys.setrecursionlimit(limit)


@given(st.integers(0, 700))
@settings(max_examples=60, deadline=None)
def test_labels_give_a_probability_the_search_finds(seed):
    env, reg = signature()
    t = gen_closed_term(seed)
    _, judgments = enumerate_distribution(env, t, registry=reg)
    for j in judgments:
        w = j.witness
        assert w.labels is not None
        assert _achievable(w, reg, Fuel(DEFAULT_FUEL)) == {j.prob}
        if isinstance(w, MergeTerm):
            bare = MergeTerm(w.source, w.branches, w.target, w.prob)
        else:
            bare = TraceTerm(w.steps, w.prob)
        assert j.prob in _achievable(bare, reg, Fuel(DEFAULT_FUEL))


@given(st.integers(0, 700))
@settings(max_examples=60, deadline=None)
def test_sampling_stays_inside_support(seed):
    env, reg = signature()
    t = gen_closed_term(seed)
    dist, _ = enumerate_distribution(env, t, registry=reg)
    res = run_sample(t, seed=seed * 31 + 7, registry=reg)
    assert dist.as_key_map()[term_key(res.term)] >= res.prob
