"""The five commands the benchmark drives, run in-process.

Each command starts from text and ends at the text or certificate JSON
that `olam` would print, calling the same public functions as the
handlers in `olam.cli`.  Functions are looked up on the package at call
time, so wrappers installed by the traced run are seen.  Each command
returns its rendered output and raises `WrongOutput` when that output
disagrees with the reference the generator derived.
"""

from __future__ import annotations

import json
from collections import Counter

from workloads import EPSILON, Program

FUEL = 100_000
EVAL_SAMPLES = 4
COMMANDS = ("check", "eval", "dist", "trust", "replay")


class WrongOutput(Exception):
    pass


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongOutput(what)


def load(olam, program: Program):
    """Parse and check the program and its oracle file, as `olam` does
    before every command."""
    source = olam.surface.parse_program(program.source)
    oracle_defs = olam.surface.parse_oracle_file(program.oracles)
    return olam.checker.check_program(source, oracle_defs)


def cmd_check(olam, program: Program, seed: int) -> str:
    checked = load(olam, program)
    lines = [f"{n} : {t}" for n, t in checked.def_types.items() if n != "main"]
    lines.append(f"main : {checked.main_type}")
    _expect(tuple(lines) == program.check_lines, "check output differs")
    return "\n".join(lines) + "\n"


def cmd_eval(olam, program: Program, seed: int) -> str:
    checked = load(olam, program)
    counts: Counter[str] = Counter()
    reps = {}
    for i in range(EVAL_SAMPLES):
        result = olam.reducer.run_sample(
            checked.main_term,
            olam.reducer.sample_seed(seed, i),
            FUEL,
            checked.registry,
        )
        key = olam.printer.term_key(result.term)
        counts[key] += 1
        reps.setdefault(key, result.term)
    lines = [f"samples: {EVAL_SAMPLES}  seed: {seed}"]
    lines += [f"{reps[k]} = {counts[k]}/{EVAL_SAMPLES}" for k in sorted(counts)]
    if program.freq_width is None:
        support = {outcome for outcome, _ in program.dist}
    else:
        # one forced call stands alone: hole 1 of 1, context [_1]
        support = {program.single_answer}
    _expect(
        all(str(reps[k]) in support for k in counts),
        "eval sampled an outcome outside the support",
    )
    return "\n".join(lines) + "\n"


def cmd_dist(olam, program: Program, seed: int) -> str:
    checked = load(olam, program)
    if program.freq_width is None:
        dist, _ = olam.traces.enumerate_distribution(
            checked.env, checked.main_term, checked.registry, FUEL
        )
    else:
        name, arg = olam.traces.forced_oracle_form(checked.main_term)
        dist, _ = olam.traces.oracle_frequency(
            checked.env, name, arg, program.freq_width, checked.registry
        )
    lines = [f"{rep} = {prob}" for rep, prob in dist.items()]
    _expect(lines == program.dist_lines(), "distribution differs")
    return "\n".join(lines) + "\n"


def cmd_trust(olam, program: Program, seed: int) -> tuple[str, str]:
    """The verdict text and the certificate JSON."""
    checked = load(olam, program)
    entries = olam.surface.parse_distribution(program.target_text())
    spec = olam.trust.TrustSpec(tuple(entries), EPSILON)
    report = olam.trust.trust_check(
        checked.env,
        checked.main_term,
        spec,
        checked.registry,
        FUEL,
        program.freq_width or 10,
    )
    certificate = olam.trust.build_certificate(
        checked.env, checked.main_term, report
    )
    cert_text = json.dumps(certificate, indent=2) + "\n"
    lines = [
        f"verdict: {report.verdict}",
        f"epsilon: {report.epsilon}",
        f"mode: {report.mode}",
    ]
    for row in report.rows:
        status = "pass" if row.passed else "fail"
        lines.append(
            f"{row.outcome}: target {row.target} derived {row.derived} "
            f"deviation {row.deviation} {status}"
        )
    lines += [f"extra {rep} = {prob}" for rep, prob in report.extra]
    lines.append(f"extra mass: {report.extra_mass}")
    lines.append(f"totality: {report.total}")
    lines.append(f"certificate: {program.ident}.trust.json")
    _expect(lines == expected_trust_lines(program), "trust output differs")
    return "\n".join(lines) + "\n", cert_text


def cmd_replay(olam, program: Program, cert_text: str) -> str:
    """The auditor's path: read the certificate, load the program, replay."""
    cert = json.loads(cert_text)
    checked = load(olam, program)
    report = olam.trust.replay_certificate(
        checked.env, checked.registry, cert, FUEL
    )
    lines = [f"verdict: {report.verdict}"]
    lines += [f"{rep} = {prob}" for rep, prob in report.distribution.items()]
    _expect(lines[0] == "verdict: trusted", "replayed verdict differs")
    _expect(lines[1:] == program.dist_lines(), "replayed distribution differs")
    return "\n".join(lines) + "\n"


def expected_trust_lines(program: Program) -> list[str]:
    mode = "enumerate" if program.freq_width is None else "frequency"
    lines = ["verdict: trusted", f"epsilon: {EPSILON}", f"mode: {mode}"]
    lines += [
        f"{outcome}: target {prob} derived {prob} deviation 0 pass"
        for outcome, prob in program.dist
    ]
    lines += ["extra mass: 0", "totality: 1"]
    lines.append(f"certificate: {program.ident}.trust.json")
    return lines
