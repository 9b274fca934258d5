"""End-to-end acceptance checks.

One test per criterion: exact desk-scale distributions, trust verdicts
with certificate replay, and bulk property sweeps over generated
programs.  Each test prints a single PASS or FAIL line.
"""

import copy
import re
import time
from fractions import Fraction

from generators import (
    connective_skeleton,
    gen_closed_con,
    gen_closed_term,
    gen_kind,
    gen_substitution_instance,
    signature,
)
from olam import surface
from olam.checker import infer_type
from olam.cli import main
from olam.conversion import normalize_con
from olam.errors import OlamError, ReductionError
from olam.reducer import find_redexes, run_sample, step
from olam.syntax import Var, alpha_eq, substitute
from olam.traces import enumerate_distribution, oracle_frequency
from olam.trust import (
    TrustSpec,
    build_certificate,
    replay_certificate,
    trust_check,
)
from reference_conversion import (
    LEFTMOST_OUTERMOST,
    RIGHTMOST_INNERMOST,
    find_con_redexes,
    normalize_stepwise,
)


def report(number, name, ok, detail=""):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def test_exact_distribution_of_biased_coin():
    env, reg = signature()
    start = time.perf_counter()
    dist, _ = enumerate_distribution(
        env, surface.parse_term("choose[1/3]{a}{b}!"), registry=reg
    )
    elapsed = time.perf_counter() - start
    ok = (
        dist.as_key_map() == {"a": Fraction(1, 3), "b": Fraction(2, 3)}
        and dist.total() == 1
        and elapsed < 1.0
    )
    report(1, "exact distribution", ok, f"{elapsed:.3f}s")


def test_merged_branches_sum_exactly():
    env, reg = signature()
    dist, judgments = enumerate_distribution(
        env, surface.parse_term("choose[1/2]{a}{a}!"), registry=reg
    )
    ok = dist.as_key_map() == {"a": Fraction(1)} and len(judgments) == 1
    report(2, "merge rule", ok)


def test_cyclic_oracle_frequency():
    env, reg = signature()
    dist, judgments = oracle_frequency(env, "c", None, 3, reg)
    shares = {
        "a": next(j.prob for j in judgments if alpha_eq(j.target, Var("a"))),
        "b": next(j.prob for j in judgments if alpha_eq(j.target, Var("b"))),
    }
    ok = (
        dist.as_key_map() == {"a": Fraction(2, 3), "b": Fraction(1, 3)}
        and shares == {"a": Fraction(2, 3), "b": Fraction(1, 3)}
    )
    report(3, "oracle frequency", ok)


def test_trust_verdicts_and_certificate_integrity():
    env, reg = signature()
    t = surface.parse_term("choose[1/3]{a}{b}!")
    eps = Fraction(1, 100)

    start = time.perf_counter()
    good = trust_check(
        env, t,
        TrustSpec(((Var("a"), Fraction(1, 3)), (Var("b"), Fraction(2, 3))), eps),
        reg,
    )
    good_time = time.perf_counter() - start
    start = time.perf_counter()
    bad = trust_check(
        env, t,
        TrustSpec(((Var("a"), Fraction(1, 2)), (Var("b"), Fraction(1, 2))), eps),
        reg,
    )
    bad_time = time.perf_counter() - start

    cert = build_certificate(env, t, good)
    replayed = replay_certificate(env, reg, cert)

    def mutate(path, value):
        broken = copy.deepcopy(cert)
        node = broken
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return broken

    mutations = [
        mutate(("verdict",), "untrusted"),
        mutate(("schema",), 1),
        mutate(("program",), "choose[1/2]{a}{b}!"),
        mutate(("epsilon",), "0"),
        mutate(("totality",), "1/2"),
        mutate(("mode",), "frequency"),
        mutate(("claims", 0, 1), "1/2"),
        mutate(("edges", 0, 2), "1/2"),
        mutate(("claims", 0, 0), 2),
        mutate(("threshold_checks", 0, "derived"), "1/2"),
        mutate(("threshold_checks", 0, "passed"), False),
    ]
    rejected = 0
    for broken in mutations:
        try:
            replay_certificate(env, reg, broken)
        except OlamError:
            rejected += 1
    ok = (
        good.verdict == "trusted"
        and bad.verdict == "untrusted"
        and replayed.verdict == "trusted"
        and rejected == len(mutations)
        and good_time < 1.0
        and bad_time < 1.0
    )
    report(
        4, "trust verdicts", ok,
        f"{rejected}/{len(mutations)} mutations rejected, "
        f"{good_time:.3f}s/{bad_time:.3f}s",
    )


def test_one_step_reducts_keep_type_skeleton():
    env, reg = signature()
    failures = 0
    start = time.perf_counter()
    for seed in range(500):
        t = gen_closed_term(seed)
        skeleton = connective_skeleton(infer_type(env, t, reg))
        for redex in find_redexes(t):
            for outcome in step(t, redex, reg):
                after = connective_skeleton(infer_type(env, outcome.after, reg))
                if after != skeleton:
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(5, "subject reduction", ok, f"{failures} failures, {elapsed:.1f}s")


def test_generated_terms_normalize_within_fuel():
    env, reg = signature()
    exhaustions = 0
    for seed in range(500):
        t = gen_closed_term(seed)
        try:
            run_sample(t, seed, 10**5, reg)
            enumerate_distribution(env, t, reg, 10**5)
        except ReductionError:
            exhaustions += 1
    ok = exhaustions == 0
    report(6, "normalization", ok, f"{exhaustions} fuel exhaustions")


def test_constructor_normalization_is_order_independent():
    disagreements = 0
    for seed in range(200):
        con = gen_closed_con(seed)
        one = normalize_con(con)
        lo = normalize_stepwise(con, LEFTMOST_OUTERMOST)
        ri = normalize_stepwise(con, RIGHTMOST_INNERMOST)
        if one != lo or not alpha_eq(one, ri) or find_con_redexes(one):
            disagreements += 1
    ok = disagreements == 0
    report(7, "constructor confluence", ok, f"{disagreements} disagreements")


def test_substitutions_commute():
    failures = 0
    for seed in range(1000):
        subject, x, t, y, s = gen_substitution_instance(seed)
        lhs = substitute(substitute(subject, x, t), y, substitute(s, x, t))
        rhs = substitute(substitute(subject, y, s), x, t)
        if not alpha_eq(lhs, rhs):
            failures += 1
    ok = failures == 0
    report(8, "substitution lemma", ok, f"{failures} failures")


def test_sampled_frequency_tracks_exact_mass(tmp_path, capsys):
    program = tmp_path / "coin.olam"
    program.write_text(
        "atom A : *\natom a : A\natom b : A\n\nmain = choose[1/2]{a}{b}!\n"
    )
    start = time.perf_counter()
    code = main(
        ["eval", str(program), "--samples", "10000", "--seed", "42"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    match = re.search(r"^a = (\d+)/10000$", out, re.MULTILINE)
    frequency = int(match.group(1)) / 10000 if match else -1.0
    ok = code == 0 and 0.47 <= frequency <= 0.53 and elapsed < 5.0
    with capsys.disabled():
        report(9, "sampling agreement", ok, f"a at {frequency}, {elapsed:.2f}s")


def test_printed_syntax_parses_back():
    env, reg = signature()
    failures = 0
    for seed in range(400):
        t = gen_closed_term(seed)
        if not alpha_eq(surface.parse_term(str(t)), t):
            failures += 1
    for seed in range(300):
        c = gen_closed_con(seed)
        if not alpha_eq(surface.parse_type(str(c)), c):
            failures += 1
    for seed in range(300):
        k = gen_kind(seed)
        if not alpha_eq(surface.parse_kind(str(k)), k):
            failures += 1
    ok = failures == 0
    report(10, "round trip", ok, f"{failures} failures")
