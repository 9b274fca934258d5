"""Trust verdicts, tolerance semantics, and certificate replay."""

import copy
import dataclasses
import hashlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import signature
from olam import surface, syntax, traces, trust
from olam.errors import (
    CheckError,
    OlamError,
    ParseError,
    ReductionError,
    TraceError,
    TrustError,
)
from olam.oracles import OracleRegistry
from olam.syntax import MergeTerm, TraceTerm, Var
from olam.traces import MapstoJudgment, check_trace, enumerate_distribution
from olam.trust import (
    TrustSpec,
    build_certificate,
    replay_certificate,
    trust_check,
)

COIN = "choose[1/3]{a}{b}!"


def spec_ab(pa, pb, eps):
    return TrustSpec(((Var("a"), pa), (Var("b"), pb)), eps)


def test_trusted_on_exact_match():
    env, reg = signature()
    t = surface.parse_term(COIN)
    report = trust_check(env, t, spec_ab(Fraction(1, 3), Fraction(2, 3), Fraction(1, 100)), reg)
    assert report.verdict == "trusted"
    assert report.mode == "enumerate"
    assert all(row.passed for row in report.rows)
    assert report.extra == ()
    assert report.extra_mass == 0
    assert report.total == 1
    assert report.distribution.as_key_map() == {
        "a": Fraction(1, 3),
        "b": Fraction(2, 3),
    }


def test_untrusted_on_wrong_target():
    env, reg = signature()
    t = surface.parse_term(COIN)
    report = trust_check(env, t, spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100)), reg)
    assert report.verdict == "untrusted"
    assert [row.passed for row in report.rows] == [False, False]
    assert report.rows[0].deviation == Fraction(1, 3)


def test_tolerance_is_strict():
    env, reg = signature()
    t = surface.parse_term("choose[99/100]{a}{b}!")
    near = TrustSpec(((Var("a"), Fraction(1)),), Fraction(1, 100))
    report = trust_check(env, t, near, reg)
    # deviation and stray mass are both exactly 1/100, not under it
    assert report.verdict == "untrusted"
    assert report.rows[0].deviation == Fraction(1, 100)
    assert report.extra_mass == Fraction(1, 100)
    wider = TrustSpec(((Var("a"), Fraction(1)),), Fraction(1, 50))
    assert trust_check(env, t, wider, reg).verdict == "trusted"


def test_zero_target_row_passes_vacuously():
    env, reg = signature()
    t = surface.parse_term(COIN)
    report = trust_check(env, t, spec_ab(Fraction(1), Fraction(0), Fraction(1, 100)), reg)
    by_outcome = {row.outcome: row for row in report.rows}
    assert by_outcome[Var("b")].passed
    assert by_outcome[Var("b")].deviation == Fraction(2, 3)
    assert not by_outcome[Var("a")].passed
    assert report.verdict == "untrusted"


def test_zero_target_with_zero_mass():
    env, reg = signature()
    report = trust_check(
        env, Var("a"), spec_ab(Fraction(1), Fraction(0), Fraction(1, 100)), reg
    )
    assert report.verdict == "trusted"


def test_listing_an_outcome_at_zero_is_the_same_as_omitting_it():
    env, reg = signature()
    t = surface.parse_term("choose[49/100]{a}{choose[49/51]{b}{g a}!}!")
    half = ((Var("a"), Fraction(1, 2)), (Var("b"), Fraction(1, 2)))
    listed = (*half, (surface.parse_term("g a"), Fraction(0)))
    for eps, verdict in (
        (Fraction(1, 50), "untrusted"),
        (Fraction(1, 49), "trusted"),
        (Fraction(1, 10), "trusted"),
    ):
        omitted = trust_check(env, t, TrustSpec(half, eps), reg)
        at_zero = trust_check(env, t, TrustSpec(listed, eps), reg)
        assert omitted.verdict == at_zero.verdict == verdict
        assert omitted.extra_mass == at_zero.extra_mass == Fraction(1, 50)
        assert len(omitted.extra) == 1
        assert at_zero.extra == ()


def test_unlisted_mass_counts_as_extra():
    env, reg = signature()
    t = surface.parse_term("choose[99/100]{a}{b}!")
    spec = TrustSpec(((Var("a"), Fraction(1)),), Fraction(1, 50))
    report = trust_check(env, t, spec, reg)
    assert report.extra == ((Var("b"), Fraction(1, 100)),)
    assert report.extra_mass == Fraction(1, 100)
    assert report.verdict == "trusted"


def test_epsilon_range_codes():
    env, reg = signature()
    t = surface.parse_term(COIN)
    for eps in (Fraction(0), Fraction(2), Fraction(-1, 2)):
        with pytest.raises(TrustError) as e:
            trust_check(env, t, spec_ab(Fraction(1, 3), Fraction(2, 3), eps), reg)
        assert e.value.code == "EpsilonRange"


def test_target_range_code():
    env, reg = signature()
    t = surface.parse_term(COIN)
    with pytest.raises(TrustError) as e:
        trust_check(env, t, spec_ab(Fraction(3, 2), Fraction(-1, 2), Fraction(1, 100)), reg)
    assert e.value.code == "TargetRange"


def test_duplicate_outcome_code():
    env, reg = signature()
    t = surface.parse_term(COIN)
    spec = TrustSpec(
        ((Var("a"), Fraction(1, 2)), (Var("a"), Fraction(1, 2))), Fraction(1, 100)
    )
    with pytest.raises(TrustError) as e:
        trust_check(env, t, spec, reg)
    assert e.value.code == "DuplicateOutcome"
    # alpha-variants are one outcome
    identity = surface.parse_term("\\z:A. z")
    renamed = TrustSpec(
        (
            (surface.parse_term("\\x:A. x"), Fraction(1, 2)),
            (surface.parse_term("\\y:A. y"), Fraction(1, 2)),
        ),
        Fraction(1, 100),
    )
    with pytest.raises(TrustError) as e:
        trust_check(env, identity, renamed, reg)
    assert e.value.code == "DuplicateOutcome"


def test_unknown_outcome_wrong_type():
    env, reg = signature()
    t = surface.parse_term(COIN)
    spec = TrustSpec(((Var("q"), Fraction(1)),), Fraction(1, 100))
    with pytest.raises(TrustError) as e:
        trust_check(env, t, spec, reg)
    assert e.value.code == "UnknownOutcome"


def test_unknown_outcome_not_normal():
    env, reg = signature()
    t = surface.parse_term(COIN)
    reducible = surface.parse_term("(\\x:A. x) a")
    spec = TrustSpec(((reducible, Fraction(1)),), Fraction(1, 100))
    with pytest.raises(TrustError) as e:
        trust_check(env, t, spec, reg)
    assert e.value.code == "UnknownOutcome"


def test_target_not_total_code():
    env, reg = signature()
    t = surface.parse_term(COIN)
    with pytest.raises(TrustError) as e:
        trust_check(env, t, spec_ab(Fraction(1, 2), Fraction(1, 3), Fraction(1, 100)), reg)
    assert e.value.code == "TargetNotTotal"


def test_reached_dependent_outcome_is_trusted():
    """The program's type mentions the redex its outcome reduced away, so
    the two types differ by a beta step inside the type; the outcome is
    still one the program reaches."""
    env, reg = signature()
    t = surface.parse_term("u ((\\x:A. x) a)")
    outcome = surface.parse_term("u a")
    spec = TrustSpec(((outcome, Fraction(1)),), Fraction(1, 100))
    report = trust_check(env, t, spec, reg)
    assert report.verdict == "trusted"
    assert report.distribution.as_key_map() == {"u a": 1}
    cert = json.loads(json.dumps(build_certificate(env, t, report)))
    assert replay_certificate(env, reg, cert).verdict == "trusted"


def coins(n):
    return syntax.make_tuple([surface.parse_term("choose[1/2]{a}{b}!")] * n)


def test_trust_check_keys_each_outcome_once_and_types_nothing(monkeypatch):
    """One key per listed outcome and one per derived path; the program
    comes typed, and every listed outcome is reached, so nothing is
    typed."""
    env, reg = signature()
    t = coins(10)
    dist, _ = enumerate_distribution(env, t, registry=reg)
    spec = TrustSpec(tuple(dist.items()), Fraction(1, 100))
    keyed = []
    typed = []
    for module in (traces, trust):
        key, infer = module.term_key, module.infer_type
        monkeypatch.setattr(
            module,
            "term_key",
            lambda term, key=key: keyed.append(term) or key(term),
        )
        monkeypatch.setattr(
            module,
            "infer_type",
            lambda e, term, r=None, infer=infer: (
                typed.append(term is t) or infer(e, term, r)
            ),
        )
    report = trust_check(env, t, spec, reg)
    assert report.verdict == "trusted"
    assert len(dist) == 1024
    assert len(keyed) <= 2 * 1024
    assert typed == []


def test_spec_errors_come_before_the_derivation():
    """With two faults, the spec's total is reported before an unknown
    outcome, and a derivation that runs out of fuel before an outcome
    the derivation would have had to reach."""
    env, reg = signature()
    t = surface.parse_term(COIN)
    stray = TrustSpec(
        ((Var("q"), Fraction(1, 2)), (Var("a"), Fraction(1, 3))),
        Fraction(1, 100),
    )
    with pytest.raises(TrustError) as e:
        trust_check(env, t, stray, reg)
    assert e.value.code == "TargetNotTotal"
    unknown = TrustSpec(((Var("q"), Fraction(1)),), Fraction(1, 100))
    with pytest.raises(ReductionError) as e:
        trust_check(env, coins(3), unknown, reg, fuel=2)
    assert e.value.code == "FuelExhausted"


def test_frequency_mode_reads_cyclic_table():
    env, reg = signature()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100))
    report = trust_check(env, t, spec, reg, freq_width=3)
    assert report.mode == "frequency"
    assert report.verdict == "trusted"
    assert report.distribution.as_key_map() == {
        "a": Fraction(2, 3),
        "b": Fraction(1, 3),
    }


def test_frequency_width_ignored_for_plain_terms():
    env, reg = signature()
    t = surface.parse_term(COIN)
    report = trust_check(
        env, t, spec_ab(Fraction(1, 3), Fraction(2, 3), Fraction(1, 100)), reg, freq_width=3
    )
    assert report.mode == "enumerate"
    assert report.verdict == "trusted"


def test_oracle_without_width_is_enumerated():
    env, reg = signature()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(1), Fraction(0), Fraction(1, 100))
    report = trust_check(env, t, spec, reg)
    assert report.mode == "enumerate"
    assert report.distribution.as_key_map() == {"a": Fraction(1)}


@given(
    st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)]),
    st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]),
    st.sampled_from([Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)]),
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
)
@settings(max_examples=40, deadline=None)
def test_widening_tolerance_preserves_trust(p, ta, eps, wider):
    env, reg = signature()
    t = surface.parse_term(f"choose[{p}]{{a}}{{b}}!")
    spec_small = spec_ab(ta, 1 - ta, eps)
    spec_large = spec_ab(ta, 1 - ta, min(Fraction(1), eps + wider))
    if trust_check(env, t, spec_small, reg).verdict == "trusted":
        assert trust_check(env, t, spec_large, reg).verdict == "trusted"


def trusted_coin_certificate():
    env, reg = signature()
    t = surface.parse_term(COIN)
    report = trust_check(env, t, spec_ab(Fraction(1, 3), Fraction(2, 3), Fraction(1, 100)), reg)
    return env, reg, t, build_certificate(env, t, report)


def test_certificate_shape_and_replay():
    env, reg, t, cert = trusted_coin_certificate()
    json.dumps(cert)
    assert cert["schema"] == 2
    assert cert["mode"] == "enumerate"
    assert cert["seedless"] is True
    assert cert["verdict"] == "trusted"
    assert cert["totality"] == "1"
    assert cert["nodes"] == [COIN, "a", "b"]
    assert cert["edges"] == [[0, "left", "1/3", 1], [0, "right", "2/3", 2]]
    assert cert["claims"] == [[1, "1/3"], [2, "2/3"]]
    assert "distribution" not in cert and "table" not in cert
    replayed = replay_certificate(env, reg, cert)
    assert replayed.verdict == "trusted"


def test_certificate_with_merging_paths_replays():
    """Both sides of the choice lead to one node, and the outcome's claim
    names it with the sum of their masses."""
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{a}{a}!")
    spec = TrustSpec(((Var("a"), Fraction(1)),), Fraction(1, 100))
    report = trust_check(env, t, spec, reg)
    cert = build_certificate(env, t, report)
    assert cert["nodes"] == ["choose[1/2]{a}{a}!", "a"]
    assert cert["edges"] == [[0, "left", "1/2", 1], [0, "right", "1/2", 1]]
    assert cert["claims"] == [[1, "1"]]
    assert replay_certificate(env, reg, cert).verdict == "trusted"


def count_calls(monkeypatch, calls, owner, name):
    """Count in calls[name] every call of owner.name from now on."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def node_classes(cls=syntax.Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from node_classes(sub)


def count_node_hashes(monkeypatch):
    """A counter of __hash__ calls on nodes, by class, from now on."""
    hashed = Counter()
    for cls in node_classes():
        if "__hash__" in vars(cls) and cls.__hash__ is not None:
            original = cls.__hash__

            def counted(node, original=original):
                hashed[type(node).__name__] += 1
                return original(node)

            monkeypatch.setattr(cls, "__hash__", counted)
    hash(Var("a"))
    assert hashed == Counter({"Var": 1})
    hashed.clear()
    return hashed


def six_coins():
    """The six-coin tuple, its signature and its exact trust report."""
    env, reg = signature()
    t = syntax.make_tuple([surface.parse_term("choose[1/2]{a}{b}!")] * 6)
    dist, _ = enumerate_distribution(env, t, registry=reg)
    spec = TrustSpec(tuple(dist.items()), Fraction(1, 100))
    return env, reg, t, trust_check(env, t, spec, reg)


def test_certificate_prints_each_term_object_once(monkeypatch):
    """The derivation prints each node of the six coins' step graph once,
    and writing the certificate prints only each listed outcome; no node
    is hashed.  A frequency table's certificate prints the program, the
    table's two terms, each outcome and each listed outcome once each."""
    env, reg = signature()
    t = syntax.make_tuple([surface.parse_term("choose[1/2]{a}{b}!")] * 6)
    dist, _ = enumerate_distribution(env, t, registry=reg)
    spec = TrustSpec(tuple(dist.items()), Fraction(1, 100))
    printed = []
    for module in (traces, trust):
        show = module.show
        monkeypatch.setattr(
            module,
            "show",
            lambda term, show=show: printed.append(term) or show(term),
        )
    hashed = count_node_hashes(monkeypatch)
    report = trust_check(env, t, spec, reg)
    assert len(report.graph.terms) == 127
    assert sorted(map(id, printed)) == sorted(map(id, report.graph.terms))
    printed.clear()
    build_certificate(env, t, report)
    outcomes = [row.outcome for row in report.rows]
    assert sorted(map(id, printed)) == sorted(map(id, outcomes))
    assert hashed == Counter()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100))
    report = trust_check(env, t, spec, reg, freq_width=3)
    printed.clear()
    build_certificate(env, t, report)
    table = report.judgments[0].witness.steps
    assert len(table) == 2 and len(report.rows) == 2
    written = [
        t,
        *table,
        *(rep for rep, _ in report.distribution.items()),
        *(row.outcome for row in report.rows),
    ]
    assert sorted(map(id, printed)) == sorted(map(id, written))


def test_certificate_replay_hashes_no_node(monkeypatch):
    env, reg, t, report = six_coins()
    cert = json.loads(json.dumps(build_certificate(env, t, report)))
    hashed = count_node_hashes(monkeypatch)
    assert replay_certificate(env, reg, cert).verdict == "trusted"
    assert hashed == Counter()


def exact_certificate(src):
    """Certificate for the program src against its own distribution."""
    env, reg = signature()
    t = surface.parse_term(src)
    dist, _ = enumerate_distribution(env, t, registry=reg)
    spec = TrustSpec(tuple(dist.items()), Fraction(1, 100))
    return env, reg, build_certificate(env, t, trust_check(env, t, spec, reg))


def test_frequency_certificate_replays(monkeypatch):
    env, reg = signature()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100))
    report = trust_check(env, t, spec, reg, freq_width=3)
    cert = build_certificate(env, t, report)
    assert cert["mode"] == "frequency"
    assert cert["table"] == ["<#c!, <#c!, #c!>>", "<a, <a, b>>"]
    assert "witnesses" not in cert
    calls = Counter()
    count_calls(monkeypatch, calls, OracleRegistry, "rewrite")
    count_calls(monkeypatch, calls, surface, "parse_term")
    replayed = replay_certificate(env, reg, cert)
    assert replayed.verdict == "trusted"
    assert replayed.mode == "frequency"
    # the table is rewritten once, by the derivation; its evidence is the
    # text that derivation writes, and no step is read again; replay
    # parses the program, and no table term, and each listed outcome is
    # one the table reached, printed as the distribution prints it
    assert calls == {"rewrite": 1, "parse_term": 1}


def test_frequency_table_of_width_5000_replays():
    """A table's width is read off the length of its tuple of calls, so a
    tuple of 5000 calls, nested 5000 deep, replays at the default
    recursion limit."""
    assert sys.getrecursionlimit() <= 1000
    env, reg = signature()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100))
    report = trust_check(env, t, spec, reg, freq_width=5000)
    cert = json.loads(json.dumps(build_certificate(env, t, report)))
    assert len(cert["table"][0]) == 5000 * len("#c!") + 4999 * len("<, >")
    start = time.perf_counter()
    replayed = replay_certificate(env, reg, cert)
    assert time.perf_counter() - start < 2
    assert replayed.verdict == "trusted"
    assert replayed.distribution.as_key_map() == {
        "a": Fraction(1667, 2500),
        "b": Fraction(833, 2500),
    }


def test_frequency_table_of_no_width_differs_at_its_first_term():
    """A first table term whose length fits no tuple of calls, whether it
    does not parse, is the rewritten tuple, or is empty, differs at [0],
    and so does an empty table; a term of the right length that is not
    the tuple of calls differs there too, found by the comparison."""
    env, reg, cert = frequency_certificate()
    calls, rewritten = cert["table"]
    firsts = ("<#c!, <#c!,, #c!>>", rewritten, "", calls.replace(",", ";"))
    for table in [[first, rewritten] for first in firsts] + [[]]:
        broken = dict(cert, table=table)
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert str(e.value) == f"[CertificateMismatch] {differs('table')} at [0]"


def record_readings(monkeypatch):
    """The label of every step reading from now on, in order."""
    labels = []
    readings = traces._readings

    def recorded(u, v, label, registry):
        labels.append(label)
        return readings(u, v, label, registry)

    monkeypatch.setattr(traces, "_readings", recorded)
    return labels


def test_frequency_certificate_step_is_read_as_one_oracle_step(monkeypatch):
    """check_trace reads a frequency table's one step as the oracle step at
    the tuple's first call site; replay reads no step at all."""
    env, reg = signature()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100))
    report = trust_check(env, t, spec, reg, freq_width=3)
    cert = build_certificate(env, t, report)
    assert len(report.judgments) == 2
    labels = record_readings(monkeypatch)
    for j in report.judgments:
        assert check_trace(env, j.witness, j, reg)
    assert labels == [((0,), "oracle")] * 2
    labels.clear()
    assert replay_certificate(env, reg, cert).verdict == "trusted"
    assert labels == []


def test_frequency_table_of_another_width_is_rejected():
    """A width-6 table gives each outcome the mass the width-3 one does (2
    of 6 is 1/3), but the table is the one of the width its tuple of
    calls has: a table whose two terms have different widths is
    rejected."""
    env, reg = signature()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100))
    narrow, wide = (
        build_certificate(env, t, trust_check(env, t, spec, reg, freq_width=n))
        for n in (3, 6)
    )
    assert narrow["distribution"] == wide["distribution"]
    assert narrow["table"][1] == "<a, <a, b>>"
    for i in (0, 1):
        mixed = copy.deepcopy(narrow)
        mixed["table"][i] = wide["table"][i]
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, mixed)
        assert str(e.value) == (
            f"[CertificateMismatch] {differs('table')} at [1]"
        )
    for cert in (narrow, wide):
        assert replay_certificate(env, reg, cert).verdict == "trusted"


def test_replay_rejects_schema_change():
    env, reg, _, cert = trusted_coin_certificate()
    cert["schema"] = 1
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert e.value.code == "CertificateMismatch"


def test_replay_rejects_seeded_certificate():
    env, reg, _, cert = trusted_coin_certificate()
    cert["seedless"] = False
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert e.value.code == "CertificateMismatch"


def test_collapse_certificates_replay_within_bound():
    """collapse(n) has 2^n paths with identical term sequences; its
    certificate lists the 2n + 1 terms on them and 3n edges."""
    env, reg = signature()
    spec = TrustSpec(((Var("a"), Fraction(1)),), Fraction(1, 100))
    start = time.perf_counter()
    for n in (4, 5, 6):
        src = "a"
        for _ in range(n):
            src = f"(\\x:A. choose[1/2]{{x}}{{x}}!) ({src})"
        t = surface.parse_term(src)
        report = trust_check(env, t, spec, reg)
        assert report.verdict == "trusted"
        cert = build_certificate(env, t, report)
        assert len(cert["nodes"]) == 2 * n + 1
        assert len(cert["edges"]) == 3 * n
        assert cert["claims"] == [[2 * n, "1"]]
        assert replay_certificate(env, reg, cert).verdict == "trusted"
    assert time.perf_counter() - start < 10


def collapse(n):
    """n nested applications of a fair choice between two equal sides."""
    src = "a"
    for _ in range(n):
        src = f"(\\x:A. choose[1/2]{{x}}{{x}}!) ({src})"
    return src


def strip_labels(cert):
    """A copy of cert with the step labels taken out of its edges."""
    bare = copy.deepcopy(cert)
    for edge in bare["edges"]:
        del edge[1]
    return bare


def test_collapse_8_replays_within_two_seconds():
    env, reg, cert = exact_certificate(collapse(8))
    assert [edge[1] for edge in cert["edges"][:3]] == ["beta", "left", "right"]
    start = time.perf_counter()
    assert replay_certificate(env, reg, cert).verdict == "trusted"
    assert time.perf_counter() - start < 2


def test_collapse_20_is_written_and_replayed_within_a_second_each():
    """2^20 paths, 41 distinct terms: writing and replaying cost the
    graph, not the paths."""
    env, reg = signature()
    t = surface.parse_term(collapse(20))
    spec = TrustSpec(((Var("a"), Fraction(1)),), Fraction(1, 100))
    start = time.perf_counter()
    report = trust_check(env, t, spec, reg)
    text = json.dumps(build_certificate(env, t, report), indent=2)
    written = time.perf_counter() - start
    start = time.perf_counter()
    assert replay_certificate(env, reg, json.loads(text)).verdict == "trusted"
    replayed = time.perf_counter() - start
    assert len(json.loads(text)["nodes"]) == 41
    assert written < 1 and replayed < 1


def test_coins_10_certificate_is_a_fifth_of_the_path_form():
    """Each of the 2047 terms is listed once, not once per path through
    it: the certificate trust writes is at most a fifth of the 2702767
    bytes the certificate of one witness per path took."""
    env, reg, cert = exact_certificate(str(coins(10)))
    assert len(cert["nodes"]) == 2047 and len(cert["claims"]) == 1024
    assert 5 * len((json.dumps(cert, indent=2) + "\n").encode()) <= 2702767


def label_from_text(text):
    """A step label written as its rule and then its redex path."""
    rule, *path = text.split(" ")
    return tuple(map(int, path)), rule


def relabelled(witness, labels):
    """witness with its labels given as text, one list per branch of a
    merge."""
    if isinstance(witness, MergeTerm):
        labels = tuple(tuple(map(label_from_text, br)) for br in labels)
    else:
        labels = tuple(map(label_from_text, labels))
    return dataclasses.replace(witness, labels=labels)


def test_replay_checks_labels():
    """A certificate with labels other than trust writes does not replay,
    and check_trace rejects the paper-form evidence with those labels by
    its code."""
    env, reg, coin_cert = exact_certificate(COIN)
    _, _, merge_cert = exact_certificate(collapse(1))
    annotated = "(\\y:P ((\\z:A. z) a). b) (u ((\\z:A. z) a))"
    _, _, annotated_cert = exact_certificate(annotated)
    assert [edge[1] for edge in coin_cert["edges"]] == ["left", "right"]
    assert [edge[1] for edge in merge_cert["edges"]] == ["beta", "left", "right"]
    assert [edge[1] for edge in annotated_cert["edges"]] == ["beta"]
    # each case relabels one edge, and the first path or merge through it
    for cert, edge, label, labels, code in (
        # the flipped side leads elsewhere, or merges two branches on one
        (coin_cert, 0, "right", ["right"], "RuleMismatch"),
        (
            merge_cert, 2, "left",
            [["beta", "left"], ["beta", "left"]], "NDConditionViolated",
        ),
        # the choice sits below the force at the root, not at its path
        (coin_cert, 0, "left 0", ["left 0"], "LabelMismatch"),
        # a beta redex of the type annotation is no term redex
        (annotated_cert, 0, "beta 0 0 1", ["beta 0 0 1"], "LabelMismatch"),
    ):
        t = surface.parse_term(cert["program"])
        claim = enumerate_distribution(env, t, registry=reg)[1][0]
        broken = copy.deepcopy(cert)
        broken["edges"][edge][1] = label
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert str(e.value) == (
            "[CertificateMismatch] certificate field 'edges' differs from "
            f"the recomputed one at [{edge}][1]"
        )
        with pytest.raises(TraceError) as e:
            check_trace(env, relabelled(claim.witness, labels), claim, reg)
        assert e.value.code == code
    # firing the annotation's redex reaches the next term, but the label
    # still points at no redex the reduction rules may fire
    t = surface.parse_term(annotated)
    reduced = surface.parse_term("(\\y:P a. b) (u ((\\z:A. z) a))")
    w = TraceTerm(
        (t, reduced, Var("b")), Fraction(1), (((0, 0, 1), "beta"), ((), "beta"))
    )
    with pytest.raises(TraceError) as e:
        check_trace(env, w, MapstoJudgment(t, Var("b"), Fraction(1), w), reg)
    assert e.value.code == "LabelMismatch"


def test_unlabelled_evidence_is_checked_through_the_search(monkeypatch):
    """Evidence in the paper's form, without labels, is checked by
    check_trace's search; a certificate whose edges carry no labels is
    not the text trust writes, so it does not replay."""
    labels = record_readings(monkeypatch)
    for src in (COIN, f"<{COIN}, {COIN}>", collapse(3)):
        env, reg, cert = exact_certificate(src)
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, strip_labels(cert))
        assert e.value.code == "CertificateMismatch"
        assert replay_certificate(env, reg, cert).verdict == "trusted"
        t = surface.parse_term(src)
        for j in enumerate_distribution(env, t, registry=reg)[1]:
            bare = dataclasses.replace(j.witness, labels=None)
            assert check_trace(env, bare, j, reg)
    assert labels and all(label is None for label in labels)


def test_unlabelled_merge_search_spends_fuel():
    env, reg = signature()
    t = surface.parse_term(collapse(8))
    (claim,) = enumerate_distribution(env, t, registry=reg)[1]
    bare = dataclasses.replace(claim.witness, labels=None)
    assert len(bare.branches) == 2**8
    # the search also pays for each split and sum, beyond the default fuel
    with pytest.raises(ReductionError) as e:
        check_trace(env, bare, claim, reg)
    assert e.value.code == "FuelExhausted"


def test_malformed_certificates_fail_with_a_code():
    env, reg, cert = exact_certificate(f"<{COIN}, {COIN}>")
    _, _, merge_cert = exact_certificate(collapse(1))
    _, _, table_cert = frequency_certificate()

    def drop(key):
        return lambda c: c.pop(key)

    def put(value, *path):
        def mutate(c):
            for key in path[:-1]:
                c = c[key]
            c[path[-1]] = value

        return mutate

    def label(text):
        return put(text, "edges", 2, 1)

    mutations = [
        drop("nodes"),
        drop("edges"),
        drop("claims"),
        drop("program"),
        lambda c: c["claims"][0].pop(),
        put(5, "nodes"),
        put(["a", 5], "nodes"),
        put("tree", "edges", 0),
        put(1, "edges", 0, 2),
        put([["a", "1/9", "x"]], "claims"),
        put("yes", "threshold_checks", 0, "passed"),
        put(True, "schema"),
        # an edge's length, and its step label: unknown rule, non-integer
        # paths, wrong spacing, not text
        put([0, "left 0", "1/2"], "edges", 0),
        put([0, "left 0", "left 1", "1/2", 1], "edges", 0),
        label("sideways 1"),
        label("left x"),
        label("left 1.5"),
        label("left -1"),
        label("left  1"),
        label(["left", 1]),
        # a compare-only field is missing, or true written as 1
        drop("verdict"),
        put(1, "threshold_checks", 0, "passed"),
    ]
    merge_mutations = [
        lambda c: c["edges"].pop(),
        put([[0, "beta", "1", 1]], "edges"),
        put([0, ["beta"], "1", 1], "edges", 0),
        put([["a"], 5], "nodes"),
    ]
    # the frequency table
    table_mutations = [
        drop("table"),
        put(5, "table"),
        put([5, "<a, <a, b>>"], "table"),
        put(["<#c!, <#c!, #c!>>", 5], "table"),
        put([], "table"),
        lambda c: c["table"].append("<a, <a, b>>"),
        put({"kind": "steps", "terms": ["<#c!, <#c!, #c!>>"]}, "table"),
        put([["a", "1/9", "x"]], "distribution"),
        # the per-outcome witnesses of the earlier layout, for the table
        lambda c: c.update(witnesses=[{"witness": {"terms": c.pop("table")}}]),
    ]
    for original in (cert, merge_cert, table_cert):
        replay_certificate(env, reg, copy.deepcopy(original))
    for original, mutate in (
        [(cert, m) for m in mutations]
        + [(merge_cert, m) for m in merge_mutations]
        + [(table_cert, m) for m in table_mutations]
    ):
        broken = copy.deepcopy(original)
        mutate(broken)
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert e.value.code == "CertificateMismatch"
    for not_a_certificate in ([], "cert", None):
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, not_a_certificate)
        assert e.value.code == "CertificateMismatch"


def differs(field):
    return f"certificate field {field!r} differs from the recomputed one"


def test_replay_error_names_the_witness():
    """A field that differs is named with the place of its first
    differing value: in a frequency certificate, the table's term or the
    distribution's entry; in a step graph, the place in it."""
    env, reg, cert = frequency_certificate()
    assert cert["table"][1] == "<a, <a, b>>"
    rewritten = copy.deepcopy(cert)
    rewritten["table"][1] = "<a, <a, a>>"
    retargeted = copy.deepcopy(cert)
    retargeted["distribution"][1][0] = "a"
    for broken, message in (
        (rewritten, f"{differs('table')} at [1]"),
        (retargeted, f"{differs('distribution')} at [1][0]"),
    ):
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert str(e.value) == f"[CertificateMismatch] {message}"
    _, _, pair_cert = exact_certificate(f"<{COIN}, {COIN}>")
    _, _, merge_cert = exact_certificate(collapse(1))
    assert pair_cert["nodes"][1] == f"<a, {COIN}>"
    for cert, mutate, message in (
        (pair_cert, retarget_first_claim, f"{differs('claims')} at [0][0]"),
        (merge_cert, swap_second_side, f"{differs('edges')} at [2][3]"),
        (strip_labels(merge_cert), lambda c: None, f"{differs('edges')} at [0][1]"),
    ):
        broken = copy.deepcopy(cert)
        mutate(broken)
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert str(e.value) == f"[CertificateMismatch] {message}"


def retarget_first_claim(cert):
    """Make the first outcome's claim name the leaf <b, b>."""
    cert["claims"][0][0] = cert["nodes"].index("<b, b>")


def swap_second_side(cert):
    """Lead the right side of the choice back to the choice."""
    cert["edges"][2][3] = 1


def test_replay_rejects_flipped_verdict():
    env, reg, _, cert = trusted_coin_certificate()
    cert["verdict"] = "untrusted"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert e.value.code == "CertificateMismatch"


def test_replay_rejects_swapped_program():
    env, reg, _, cert = trusted_coin_certificate()
    cert["program"] = "choose[1/2]{a}{b}!"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert e.value.code == "CertificateMismatch"


def test_replay_rejects_tampered_distribution():
    """The claims are the step graph's distribution; a frequency table
    writes its own."""
    env, reg, _, cert = trusted_coin_certificate()
    cert["claims"][0][1] = "1/2"
    _, _, table_cert = frequency_certificate()
    table_cert["distribution"][0][1] = "1/2"
    for broken in (cert, table_cert):
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert e.value.code == "CertificateMismatch"


def test_replay_rejects_tampered_witness_probability():
    env, reg, _, cert = trusted_coin_certificate()
    cert["edges"][0][2] = "1/2"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert str(e.value) == f"[CertificateMismatch] {differs('edges')} at [0][2]"
    # a frequency table's outcome probabilities are its distribution
    _, _, table_cert = frequency_certificate()
    table_cert["distribution"][0][1] = "1/2"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, table_cert)
    assert str(e.value) == (
        f"[CertificateMismatch] {differs('distribution')} at [0][1]"
    )


def test_replay_rejects_tampered_witness_steps():
    env, reg, _, coin_cert = trusted_coin_certificate()
    _, _, pair_cert = exact_certificate(f"<{COIN}, {COIN}>")
    # node 1 of the pair lies on the paths to <a, a> and to <a, b>
    assert pair_cert["nodes"][1] == f"<a, {COIN}>"
    for cert, position, text in (
        (coin_cert, 1, "q"),
        (pair_cert, 1, f"<b, {COIN}>"),
    ):
        replay_certificate(env, reg, copy.deepcopy(cert))
        cert["nodes"][position] = text
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, cert)
        assert str(e.value) == (
            f"[CertificateMismatch] {differs('nodes')} at [{position}]"
        )
    # the table's rewritten tuple is compared like a node
    env, reg, table_cert = frequency_certificate()
    table_cert["table"][1] = "<b, <a, b>>"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, table_cert)
    assert str(e.value) == f"[CertificateMismatch] {differs('table')} at [1]"


def test_replay_derives_once_and_reads_no_witness(monkeypatch):
    """Replaying the eight outcomes of a three-coin tuple parses the
    program, builds the step graph once, and neither parses a node nor
    reads a step; each threshold outcome is a leaf the graph reached."""
    env, reg, cert = exact_certificate(f"<{COIN}, <{COIN}, {COIN}>>")
    assert len(cert["claims"]) == 8
    calls = Counter()
    count_calls(monkeypatch, calls, surface, "parse_term")
    count_calls(monkeypatch, calls, traces, "_readings")
    count_calls(monkeypatch, calls, trust, "step_graph")
    count_calls(monkeypatch, calls, trust, "enumerate_distribution")
    assert replay_certificate(env, reg, cert).verdict == "trusted"
    assert calls == {"parse_term": 1, "step_graph": 1}


def test_replay_types_the_parsed_program_once(typings):
    env, reg, cert = exact_certificate(f"<{COIN}, (\\x:A. {COIN}) a>")
    typings.clear()
    assert replay_certificate(env, reg, cert).verdict == "trusted"
    assert typings == [("olam.trust", cert["program"])]


def test_replay_types_the_program_once_beside_an_unreached_row(typings):
    """A listed outcome the derivation did not reach is typed and its
    type compared with the program's, which replay has typed already."""
    env, reg = signature()
    t = surface.parse_term("choose[1/3]{a}{a}!")
    spec = TrustSpec(((Var("a"), Fraction(1)), (Var("b"), Fraction(0))), Fraction(1, 100))
    cert = build_certificate(env, t, trust_check(env, t, spec, reg))
    typings.clear()
    assert replay_certificate(env, reg, cert).verdict == "trusted"
    assert typings == [("olam.trust", cert["program"]), ("olam.trust", "b")]


def test_replay_parses_a_row_spelled_unlike_its_outcome(monkeypatch):
    """A row alpha-equal to a reached outcome but printed otherwise is
    parsed, keyed to that outcome, and replays trusted."""
    env, reg = signature()
    t = surface.parse_term("choose[1/2]{\\x:A. x}{\\x:A. a}!")
    spec = TrustSpec(
        (
            (surface.parse_term("\\y:A. y"), Fraction(1, 2)),
            (surface.parse_term("\\x:A. a"), Fraction(1, 2)),
        ),
        Fraction(1, 100),
    )
    cert = build_certificate(env, t, trust_check(env, t, spec, reg))
    assert "\\x:A. x" in [cert["nodes"][leaf] for leaf, _ in cert["claims"]]
    assert cert["threshold_checks"][0]["outcome"] == "\\y:A. y"
    calls = Counter()
    count_calls(monkeypatch, calls, surface, "parse_term")
    report = replay_certificate(env, reg, cert)
    assert report.verdict == "trusted"
    assert calls == {"parse_term": 2}
    assert str(report.rows[0].outcome) == "\\y:A. y"
    assert report.rows[0].derived == Fraction(1, 2)


def test_replay_rejects_a_reached_row_with_a_tampered_target():
    """A row taken from the derivation still has its target parsed: a
    target spelled otherwise is written back as the derivation prints it,
    and one that does not parse fails; moved within the tolerance, the
    targets keep the verdict, and the row's deviation differs."""
    env, reg, _, cert = trusted_coin_certificate()
    assert cert["threshold_checks"][0]["outcome"] == "a"
    assert cert["threshold_checks"][0]["target"] == "1/3"
    for target, error in (
        ("2/6", f"[CertificateMismatch] {differs('threshold_checks')} at [0].target"),
        ("1/0", "[MalformedRational] bad rational '1/0'"),
    ):
        broken = copy.deepcopy(cert)
        broken["threshold_checks"][0]["target"] = target
        with pytest.raises(OlamError) as e:
            replay_certificate(env, reg, broken)
        assert str(e.value) == error
    cert["threshold_checks"][0]["target"] = "67/200"
    cert["threshold_checks"][1]["target"] = "133/200"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert str(e.value) == (
        f"[CertificateMismatch] {differs('threshold_checks')} at [0].deviation"
    )


def test_replay_types_and_reduces_an_unreached_row():
    """A row the derivation did not reach is parsed, typed against the
    program, and checked to be a normal form, as trust_check does."""
    env, reg, _, cert = trusted_coin_certificate()
    for text, message in (
        ("\\x:A. x", "outcome \\x:A. x has type A -> A, the program has type A"),
        ("(\\x:A. x) a", "outcome (\\x:A. x) a is not in normal form"),
    ):
        broken = copy.deepcopy(cert)
        broken["threshold_checks"].append({"outcome": text, "target": "0"})
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert str(e.value) == f"[UnknownOutcome] {message}"


def test_replay_of_coins_10_reads_no_reached_row(monkeypatch):
    """Every one of the 1024 rows is a reached outcome: replay parses one
    term, the program, and prints and keys no row, so it prints and keys
    no more terms than writing the certificate did."""
    env, reg = signature()
    t = coins(10)
    dist, _ = traces.step_graph(t, reg)
    spec = TrustSpec(tuple(dist.items()), Fraction(1, 100))
    calls = Counter()
    for module in (traces, trust):
        for name in ("show", "term_key"):
            original = getattr(module, name)

            def counted(term, original=original, at=(module.__name__, name)):
                calls[at] += 1
                return original(term)

            monkeypatch.setattr(module, name, counted)
    cert = build_certificate(env, t, trust_check(env, t, spec, reg))
    written = sum(calls.values())
    assert len(cert["threshold_checks"]) == 1024
    calls.clear()
    count_calls(monkeypatch, calls, surface, "parse_term")
    assert replay_certificate(env, reg, cert).verdict == "trusted"
    assert calls.pop("parse_term") == 1
    assert calls[("olam.trust", "show")] == calls[("olam.trust", "term_key")] == 0
    assert sum(calls.values()) <= written


OMEGA = "(\\x:A. x x x) (\\x:A. x x x)"


def test_replay_types_an_ill_typed_program_before_deriving():
    """Reducing the program would not end: typing stops it at once."""
    env, reg, _, cert = trusted_coin_certificate()
    cert["program"] = OMEGA
    start = time.perf_counter()
    with pytest.raises(CheckError) as e:
        replay_certificate(env, reg, cert)
    assert time.perf_counter() - start < 1
    assert e.value.code == "NotAFunction"


def test_replay_error_order_type_then_tolerance_then_derivation_then_rows():
    """Replay parses the program and the tolerance, types the program,
    checks the tolerance's range, derives, then reads the threshold rows:
    a tolerance that does not parse is reported before an ill-typed
    program, that before an out-of-range tolerance, that before a
    derivation out of fuel, and that before a listed outcome that does
    not parse."""
    env, reg, _, cert = trusted_coin_certificate()
    cert["threshold_checks"][1]["outcome"] = "a ("
    with pytest.raises(ParseError):
        replay_certificate(env, reg, copy.deepcopy(cert))
    with pytest.raises(ReductionError) as e:
        replay_certificate(env, reg, copy.deepcopy(cert), fuel=1)
    assert e.value.code == "FuelExhausted"
    cert["epsilon"] = "2"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, copy.deepcopy(cert), fuel=1)
    assert e.value.code == "EpsilonRange"
    cert["program"] = OMEGA
    with pytest.raises(CheckError):
        replay_certificate(env, reg, copy.deepcopy(cert), fuel=1)
    cert["epsilon"] = "x"
    with pytest.raises(ParseError) as e:
        replay_certificate(env, reg, cert, fuel=1)
    assert e.value.code == "MalformedRational"


def test_replay_error_order_table_then_type_then_rows():
    """A frequency table's width is read after parsing the program and
    before typing it: a first table term that does not parse is a table
    that differs, not a parse error, and it is reported before an
    ill-typed program, which is reported before a listed outcome that
    does not parse."""
    env, reg, cert = frequency_certificate()
    cert["threshold_checks"][0]["outcome"] = "a ("
    with pytest.raises(ParseError):
        replay_certificate(env, reg, copy.deepcopy(cert))
    # a table of one call is the program's own text
    cert["program"] = cert["table"][0] = OMEGA
    with pytest.raises(CheckError):
        replay_certificate(env, reg, copy.deepcopy(cert))
    cert["table"][0] = "<#c!, <#c!"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert str(e.value) == f"[CertificateMismatch] {differs('table')} at [0]"


def test_replay_rejects_tampered_threshold_row():
    env, reg, _, cert = trusted_coin_certificate()
    cert["threshold_checks"][0]["derived"] = "1/2"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert e.value.code == "CertificateMismatch"


def test_replay_rejects_tampered_totality():
    env, reg, _, cert = trusted_coin_certificate()
    cert["totality"] = "1/2"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert e.value.code == "CertificateMismatch"


def test_replay_rejects_epsilon_that_flips_a_check():
    env, reg = signature()
    t = surface.parse_term(COIN)
    report = trust_check(env, t, spec_ab(Fraction(1, 4), Fraction(3, 4), Fraction(1, 100)), reg)
    assert report.verdict == "untrusted"
    cert = build_certificate(env, t, report)
    cert["epsilon"] = "1/3"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, cert)
    assert e.value.code == "CertificateMismatch"


def test_replay_rejects_mode_swap():
    env, reg, _, coin_cert = trusted_coin_certificate()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100))
    report = trust_check(env, t, spec, reg, freq_width=3)
    freq_cert = build_certificate(env, t, report)
    for cert, swapped in ((coin_cert, "frequency"), (freq_cert, "enumerate")):
        cert["mode"] = swapped
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, cert)
        assert e.value.code == "CertificateMismatch"


def test_replay_requires_the_text_trust_writes():
    """Every field must equal what trust writes: rows in another order, an
    equal fraction, an equivalent program text or edges without their
    labels is a different certificate, and the error names the field."""
    env, reg, _, cert = trusted_coin_certificate()
    swapped = copy.deepcopy(cert)
    swapped["claims"].reverse()
    unreduced_mass = copy.deepcopy(cert)
    unreduced_mass["claims"][0][1] = "2/6"
    unreduced_derived = copy.deepcopy(cert)
    unreduced_derived["threshold_checks"][0]["derived"] = "2/6"
    bracketed = copy.deepcopy(cert)
    bracketed["program"] = "choose[1/3]{(a)}{b}!"
    for broken, field in (
        (swapped, "claims"),
        (unreduced_mass, "claims"),
        (unreduced_derived, "threshold_checks"),
        (bracketed, "program"),
    ):
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert e.value.code == "CertificateMismatch"
        assert repr(field) in e.value.message
    assert replay_certificate(env, reg, copy.deepcopy(cert)).verdict == "trusted"
    with pytest.raises(TrustError) as e:
        replay_certificate(env, reg, strip_labels(cert))
    assert e.value.code == "CertificateMismatch"
    assert repr("edges") in e.value.message


def test_replay_requires_the_witness_claims_trust_writes():
    """Each claim and each term of a frequency table must be the text
    trust writes, in its order: claims or table terms reordered or
    repeated, or a term in brackets, is a different certificate even when
    every step it lists is one."""
    env, reg, _, cert = trusted_coin_certificate()
    _, _, table_cert = frequency_certificate()
    cases = []
    # the reversed table's first term is the rewritten tuple, which is no
    # tuple of calls: it differs at [0] before the verdict is compared
    for original, field in ((cert, "claims"), (table_cert, "table")):
        reordered = copy.deepcopy(original)
        reordered[field].reverse()
        repeated = copy.deepcopy(original)
        repeated[field].append(copy.deepcopy(original[field][0]))
        cases += [(reordered, field), (repeated, field)]
    bracketed_node = copy.deepcopy(cert)
    bracketed_node["nodes"][1] = "(a)"
    cases.append((bracketed_node, "nodes"))
    for i in (0, 1):
        bracketed_term = copy.deepcopy(table_cert)
        bracketed_term["table"][i] = f"({table_cert['table'][i]})"
        cases.append((bracketed_term, "table"))
    for broken, field in cases:
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert e.value.code == "CertificateMismatch"
        assert repr(field) in e.value.message
    # the key order of an object is no part of the comparison
    resorted = json.loads(json.dumps(cert, sort_keys=True))
    assert list(resorted) != list(cert)
    assert replay_certificate(env, reg, resorted).verdict == "trusted"


def test_replay_survives_json_round_trip():
    env, reg, _, cert = trusted_coin_certificate()
    wire = json.loads(json.dumps(cert))
    assert replay_certificate(env, reg, wire).verdict == "trusted"


def test_untampered_copies_keep_replaying():
    env, reg, _, cert = trusted_coin_certificate()
    replay_certificate(env, reg, copy.deepcopy(cert))
    replay_certificate(env, reg, cert)


def frequency_certificate():
    """The width-3 table certificate for #c! against its cyclic rules."""
    env, reg = signature()
    t = surface.parse_term("#c!")
    spec = spec_ab(Fraction(2, 3), Fraction(1, 3), Fraction(1, 100))
    return env, reg, build_certificate(env, t, trust_check(env, t, spec, reg, freq_width=3))


def leaf_replacements(value):
    """Each value a single-leaf tamper puts in place of value."""
    if isinstance(value, str):
        return [value + " ", "(" + value + ")"]
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value + 1, True]
    if value is None:
        return ["1"]
    if isinstance(value, list) and value:
        return [value[:-1]]
    return []


DELETE = object()


def single_leaf_tampers(cert):
    """(top-level field, tampered copy) for every replacement of a value
    and every deletion of a key or item, at every position below the root
    of cert."""
    stack = [(key,) for key in cert]
    while stack:
        path = stack.pop()
        value = cert
        for key in path:
            value = value[key]
        if isinstance(value, (dict, list)):
            keys = value if isinstance(value, dict) else range(len(value))
            stack.extend(path + (key,) for key in keys)
        for new in leaf_replacements(value) + [DELETE]:
            broken = copy.deepcopy(cert)
            parent = broken
            for key in path[:-1]:
                parent = parent[key]
            if new is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
            yield path[0], broken


# top-level fields whose every tamper must read as a certificate that
# differs from the one trust writes
COMPARED = {
    "table", "distribution", "schema", "seedless", "verdict", "totality", "mode",
    "nodes", "edges", "claims",
}


def test_every_single_leaf_tamper_is_rejected():
    """No tamper of one value of a certificate replays: each raises an
    OlamError, and under the compared fields a CertificateMismatch."""
    certificates = [
        exact_certificate(f"<{COIN}, {COIN}>"),
        exact_certificate(collapse(1)),
        frequency_certificate(),
    ]
    tampers = 0
    for env, reg, cert in certificates:
        assert replay_certificate(env, reg, copy.deepcopy(cert)).verdict == "trusted"
        for field, broken in single_leaf_tampers(cert):
            tampers += 1
            with pytest.raises(OlamError) as e:
                replay_certificate(env, reg, broken)
            if field in COMPARED:
                assert e.value.code == "CertificateMismatch", (field, broken)
    assert tampers == 415


def test_graph_tampers_are_rejected():
    """A step graph that is not the one trust derives does not replay,
    whatever the change to its nodes or edges."""
    env, reg, cert = exact_certificate("choose[1/2]{a}{choose[1/3]{a}{b}!}!")
    assert cert["nodes"][1:] == ["a", "choose[1/3]{a}{b}!", "b"]
    assert cert["edges"] == [
        [0, "left", "1/2", 1],
        [0, "right", "1/2", 2],
        [2, "left", "1/3", 1],
        [2, "right", "2/3", 3],
    ]
    assert cert["claims"] == [[1, "2/3"], [3, "1/3"]]

    def dropped_edge(c):
        c["edges"].pop(2)

    def extra_edge(c):
        c["edges"].append([2, "left", "1/3", 1])

    def wrong_probability(c):
        c["edges"][3][2] = "1/3"

    def wrong_node(c):
        c["edges"][2][3] = 3

    def cycle(c):
        c["edges"][3][3] = 0

    def out_of_a_normal_form(c):
        c["edges"].append([1, "beta", "1", 3])

    def swapped_nodes(c):
        c["nodes"][1], c["nodes"][3] = c["nodes"][3], c["nodes"][1]

    for mutate, field in (
        (dropped_edge, "edges"),
        (extra_edge, "edges"),
        (wrong_probability, "edges"),
        (wrong_node, "edges"),
        (cycle, "edges"),
        (out_of_a_normal_form, "edges"),
        (swapped_nodes, "nodes"),
    ):
        broken = copy.deepcopy(cert)
        mutate(broken)
        with pytest.raises(TrustError) as e:
            replay_certificate(env, reg, broken)
        assert e.value.code == "CertificateMismatch", mutate.__name__
        assert repr(field) in e.value.message


def certificate_sha256(cert):
    return hashlib.sha256(json.dumps(cert, indent=2).encode()).hexdigest()


def test_certificate_bytes_are_pinned():
    """The text trust writes for a step graph and for a frequency table."""
    _, _, merge_cert = exact_certificate(collapse(1))
    _, _, table_cert = frequency_certificate()
    assert certificate_sha256(merge_cert) == (
        "8de0996e89f97e131acda8f61a72031841a406aad8ee962a117f9fccd62f17d2"
    )
    assert certificate_sha256(table_cert) == (
        "321c65533844a62f6af4809b7aaf7cb2e9dddb0dbfc7cffb994f23870b60642f"
    )
