"""Command line front end.

Commands: check (types), eval (seeded sampling), dist (exact
distribution), trace (all reduction paths), trust (verdict against a
target, with certificate), oracle-freq (an oracle's frequency table).
Output is deterministic for fixed inputs; exit status is 0 on success,
1 on a language-level error or an untrusted verdict, 2 on usage or IO
problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from pathlib import Path

from . import checker, surface, trust
from .checker import CheckedProgram
from .errors import OlamError, TraceError
from .printer import show, show_label, term_key
from .reducer import run_sample, sample_seed
from .syntax import DEFAULT_FUEL, Term
from .traces import (
    Distribution,
    enumerate_distribution,
    enumerate_paths,
    forced_oracle_form,
    oracle_frequency,
)

__all__ = ["main"]


def _epsilon_arg(text: str) -> Fraction:
    try:
        value = surface.parse_rational_text(text)
    except OlamError:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"epsilon {value} outside (0, 1]")
    return value


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value

    return parse


class _UsageError(Exception):
    """An input file the command cannot use; exit status 2."""


def _read(path: str) -> str:
    """The text of a UTF-8 file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise _UsageError(
            f"{path} is not UTF-8 text: {err.reason} at byte {err.start}"
        ) from err


def _load(args: argparse.Namespace) -> CheckedProgram:
    text = _read(args.program)
    oracle_defs = []
    for path in args.oracles:
        oracle_defs.extend(surface.parse_oracle_file(_read(path)))
    return checker.check_program(surface.parse_program(text), oracle_defs)


_Output = tuple[str, int]  # a command's output text and exit status


def _render(
    args: argparse.Namespace,
    payload: Callable[[], object],
    lines: Callable[[], Iterable[str]],
    status: int = 0,
) -> _Output:
    """A command's output text in args.format, and its exit status: the
    object payload() builds as indented JSON (a str it returns is that
    JSON already), or the lines lines() yields.  Only the chosen format's
    builder runs."""
    if args.format == "json":
        out = payload()
        return out if isinstance(out, str) else _json(out), status
    return "".join(f"{line}\n" for line in lines()), status


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


# -------------------------------------------------------------- commands
# each computes its _Output from its arguments and the loaded program


def _cmd_check(args: argparse.Namespace, checked: CheckedProgram) -> _Output:
    names = [n for n in checked.def_types if n != "main"]
    return _render(args, lambda: {
        "schema": 1,
        "definitions": [
            {"name": n, "type": show(checked.def_types[n])} for n in names
        ],
        "main": {
            "term": show(checked.main_term),
            "type": show(checked.main_type),
        },
    }, lambda: [
        *(f"{n} : {checked.def_types[n]}" for n in names),
        f"main : {checked.main_type}",
    ])


def _cmd_eval(args: argparse.Namespace, checked: CheckedProgram) -> _Output:
    counts: Counter[str] = Counter()
    reps: dict[str, Term] = {}
    for i in range(args.samples):
        result = run_sample(
            checked.main_term,
            sample_seed(args.seed, i),
            args.fuel,
            checked.registry,
        )
        key = term_key(result.term)
        counts[key] += 1
        reps.setdefault(key, result.term)
    rows = [(show(reps[key]), counts[key]) for key in sorted(counts)]
    return _render(args, lambda: {
        "schema": 1,
        "samples": args.samples,
        "seed": args.seed,
        "counts": [list(row) for row in rows],
    }, lambda: [
        f"samples: {args.samples}  seed: {args.seed}",
        *(f"{rep} = {count}/{args.samples}" for rep, count in rows),
    ])


def _render_distribution(
    args: argparse.Namespace,
    dist: Distribution,
    payload: Callable[[list], dict],
) -> _Output:
    """dist as a "rep = prob" line per outcome, or in JSON the object that
    payload builds around its [rep, prob] rows."""
    rows = [[show(rep), str(prob)] for rep, prob in dist.items()]
    return _render(
        args, lambda: payload(rows), lambda: (f"{r} = {p}" for r, p in rows)
    )


def _cmd_dist(args: argparse.Namespace, checked: CheckedProgram) -> _Output:
    dist, _ = enumerate_distribution(
        checked.env, checked.main_term, checked.registry, args.fuel
    )
    return _render_distribution(args, dist, lambda rows: {
        "schema": 1,
        "main": show(checked.main_term),
        "distribution": rows,
        "total": str(dist.total()),
    })


def _cmd_trace(args: argparse.Namespace, checked: CheckedProgram) -> _Output:
    paths = enumerate_paths(
        checked.env, checked.main_term, checked.registry, args.fuel
    )
    # each path's terms, main first and its outcome last: a step's before
    # is its after's predecessor, so every term is printed once
    main_text = show(checked.main_term)
    texts = [[main_text, *(show(q.after) for q in qs)] for _, qs in paths]

    def payload() -> dict:
        return {
            "schema": 1,
            "main": main_text,
            "paths": [
                {
                    "probability": str(prob),
                    "outcome": terms[-1],
                    "steps": [
                        {
                            "before": before,
                            "after": after,
                            "label": q.label,
                            "probability": str(q.prob),
                        }
                        for q, before, after in zip(quads, terms, terms[1:])
                    ],
                }
                for (prob, quads), terms in zip(paths, texts)
            ],
        }

    def lines() -> Iterator[str]:
        yield f"main: {main_text}"
        for number, ((prob, quads), terms) in enumerate(zip(paths, texts), 1):
            yield f"path {number}: probability {prob}, outcome {terms[-1]}"
            yield f"  {main_text}"
            for q, after in zip(quads, terms[1:]):
                yield f"  -> {after}  [{show_label(q.label)} {q.prob}]"

    return _render(args, payload, lines)


def _cmd_trust(args: argparse.Namespace, checked: CheckedProgram) -> _Output:
    entries = surface.parse_distribution(_read(args.target))
    spec = trust.TrustSpec(tuple(entries), args.epsilon)
    env, t = checked.env, checked.main_term
    report = trust.trust_check(
        env, t, spec, checked.registry, args.fuel, args.samples
    )
    certificate = trust.build_certificate(env, t, report)
    # the certificate is written whatever the verdict, before any output
    cert_path = Path(args.program).with_suffix(".trust.json")
    cert_text = _json(certificate)
    cert_path.write_text(cert_text)
    return _render(args, lambda: cert_text, lambda: [
        f"verdict: {report.verdict}",
        f"epsilon: {report.epsilon}",
        f"mode: {report.mode}",
        *(
            f"{row.outcome}: target {row.target} derived {row.derived} "
            f"deviation {row.deviation} {'pass' if row.passed else 'fail'}"
            for row in report.rows
        ),
        *(f"extra {rep} = {prob}" for rep, prob in report.extra),
        f"extra mass: {report.extra_mass}",
        f"totality: {report.total}",
        f"certificate: {cert_path}",
    ], 0 if report.verdict == "trusted" else 1)


def _cmd_freq(args: argparse.Namespace, checked: CheckedProgram) -> _Output:
    oracle = forced_oracle_form(checked.main_term)
    if oracle is None:
        raise TraceError(
            "NotAnOracleProgram", "oracle-freq needs a forced oracle as main"
        )
    name, arg = oracle
    dist, _ = oracle_frequency(
        checked.env, name, arg, args.samples, checked.registry
    )
    return _render_distribution(args, dist, lambda rows: {
        "schema": 1,
        "oracle": name,
        "width": args.samples,
        "distribution": rows,
    })


# ------------------------------------------------------------ the parser


def _samples(what: str) -> tuple[str, dict]:
    return "--samples", dict(
        type=_at_least(1), default=10, help=f"{what} (default 10)"
    )


# every command's arguments, before its own options
_COMMON = (
    ("program", dict(help="program file")),
    ("--oracles", dict(
        metavar="FILE", nargs="+", action="extend", default=[],
        help="oracle definition files",
    )),
    ("--fuel", dict(
        type=_at_least(0), default=DEFAULT_FUEL,
        help=f"step budget (default {DEFAULT_FUEL})",
    )),
    ("--format", dict(
        choices=("text", "json"), default="text",
        help="output format (default text)",
    )),
)

# (name, help, handler, its own options)
_COMMANDS = (
    ("check", "type check a program", _cmd_check, ()),
    ("eval", "sample runs and report frequencies", _cmd_eval, (
        ("--seed", dict(type=int, default=0, help="base seed")),
        _samples("number of runs"),
    )),
    ("dist", "exact output distribution", _cmd_dist, ()),
    ("trace", "all reduction paths with labels", _cmd_trace, ()),
    ("trust", "verdict against a target distribution", _cmd_trust, (
        ("--target", dict(
            required=True, metavar="FILE", help="target distribution"
        )),
        ("--epsilon", dict(
            required=True, type=_epsilon_arg, help="tolerance p/q"
        )),
        _samples("frequency width for oracle programs"),
    )),
    ("oracle-freq", "frequency table of an oracle program", _cmd_freq, (
        _samples("table width"),
    )),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olam",
        description="Type check, run, and audit probabilistic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag, settings in _COMMON + options:
            command.add_argument(flag, **settings)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args, _load(args))
        sys.stdout.write(text)
        # a reader that closed stdout early is found here, not at exit
        sys.stdout.flush()
        return code
    except (OlamError, RecursionError) as err:
        if isinstance(err, RecursionError):
            # the recursive walks ran out of stack on deeply nested input
            err = OlamError("DepthExceeded", "input is nested too deeply")
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away: nothing to report, but the output was not
        # all written, so not 0, which would hide an untrusted verdict
        _discard_stdout()
        return 2
    except (OSError, _UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device,
    so the flush at exit writes what is left nowhere instead of failing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
