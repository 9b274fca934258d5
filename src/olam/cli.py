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
from collections.abc import Callable
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olam",
        description="Type check, run, and audit probabilistic programs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("program", help="program file")
    common.add_argument(
        "--oracles",
        metavar="FILE",
        nargs="+",
        action="extend",
        default=[],
        help="oracle definition files",
    )
    common.add_argument(
        "--fuel",
        type=_at_least(0),
        default=DEFAULT_FUEL,
        help=f"step budget (default {DEFAULT_FUEL})",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[common], help="type check a program"
    )
    p_check.set_defaults(handler=_cmd_check)

    p_eval = sub.add_parser(
        "eval", parents=[common], help="sample runs and report frequencies"
    )
    p_eval.add_argument("--seed", type=int, default=0, help="base seed")
    p_eval.add_argument(
        "--samples",
        type=_at_least(1),
        default=10,
        help="number of runs (default 10)",
    )
    p_eval.set_defaults(handler=_cmd_eval)

    p_dist = sub.add_parser(
        "dist", parents=[common], help="exact output distribution"
    )
    p_dist.set_defaults(handler=_cmd_dist)

    p_trace = sub.add_parser(
        "trace", parents=[common], help="all reduction paths with labels"
    )
    p_trace.set_defaults(handler=_cmd_trace)

    p_trust = sub.add_parser(
        "trust", parents=[common], help="verdict against a target distribution"
    )
    p_trust.add_argument(
        "--target", required=True, metavar="FILE", help="target distribution"
    )
    p_trust.add_argument(
        "--epsilon", required=True, type=_epsilon_arg, help="tolerance p/q"
    )
    p_trust.add_argument(
        "--samples",
        type=_at_least(1),
        default=10,
        help="frequency width for oracle programs (default 10)",
    )
    p_trust.set_defaults(handler=_cmd_trust)

    p_freq = sub.add_parser(
        "oracle-freq",
        parents=[common],
        help="frequency table of an oracle program",
    )
    p_freq.add_argument(
        "--samples",
        type=_at_least(1),
        default=10,
        help="table width (default 10)",
    )
    p_freq.set_defaults(handler=_cmd_freq)
    return parser


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


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# -------------------------------------------------------------- commands


def _cmd_check(args: argparse.Namespace) -> int:
    checked = _load(args)
    names = [n for n in checked.def_types if n != "main"]
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "definitions": [
                    {"name": n, "type": show(checked.def_types[n])}
                    for n in names
                ],
                "main": {
                    "term": show(checked.main_term),
                    "type": show(checked.main_type),
                },
            }
        )
        return 0
    for n in names:
        print(f"{n} : {checked.def_types[n]}")
    print(f"main : {checked.main_type}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    checked = _load(args)
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
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "samples": args.samples,
                "seed": args.seed,
                "counts": [
                    [show(reps[key]), counts[key]] for key in sorted(counts)
                ],
            }
        )
        return 0
    print(f"samples: {args.samples}  seed: {args.seed}")
    for key in sorted(counts):
        print(f"{reps[key]} = {counts[key]}/{args.samples}")
    return 0


def _print_distribution(
    args: argparse.Namespace, dist: Distribution, payload: Callable[[list], dict]
) -> int:
    """Print dist, a "rep = prob" line per outcome, or in JSON the object
    that payload builds around its [rep, prob] rows."""
    if args.format == "json":
        _emit_json(payload([[show(rep), str(p)] for rep, p in dist.items()]))
        return 0
    for rep, prob in dist.items():
        print(f"{rep} = {prob}")
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    checked = _load(args)
    dist, _ = enumerate_distribution(
        checked.env, checked.main_term, checked.registry, args.fuel
    )
    return _print_distribution(args, dist, lambda rows: {
        "schema": 1,
        "main": show(checked.main_term),
        "distribution": rows,
        "total": str(dist.total()),
    })


def _cmd_trace(args: argparse.Namespace) -> int:
    checked = _load(args)
    paths = enumerate_paths(
        checked.env, checked.main_term, checked.registry, args.fuel
    )
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "main": show(checked.main_term),
                "paths": [
                    {
                        "probability": str(prob),
                        "outcome": show(
                            quads[-1].after if quads else checked.main_term
                        ),
                        "steps": [
                            {
                                "before": show(q.before),
                                "after": show(q.after),
                                "label": q.label,
                                "probability": str(q.prob),
                            }
                            for q in quads
                        ],
                    }
                    for prob, quads in paths
                ],
            }
        )
        return 0
    print(f"main: {checked.main_term}")
    for number, (prob, quads) in enumerate(paths, start=1):
        outcome = quads[-1].after if quads else checked.main_term
        print(f"path {number}: probability {prob}, outcome {outcome}")
        print(f"  {checked.main_term}")
        for q in quads:
            print(f"  -> {q.after}  [{show_label(q.label)} {q.prob}]")
    return 0


def _cmd_trust(args: argparse.Namespace) -> int:
    checked = _load(args)
    entries = surface.parse_distribution(_read(args.target))
    spec = trust.TrustSpec(tuple(entries), args.epsilon)
    report = trust.trust_check(
        checked.env,
        checked.main_term,
        spec,
        checked.registry,
        args.fuel,
        args.samples,
    )
    certificate = trust.build_certificate(
        checked.env, checked.main_term, report
    )
    cert_path = Path(args.program).with_suffix(".trust.json")
    cert_text = json.dumps(certificate, indent=2) + "\n"
    cert_path.write_text(cert_text)
    if args.format == "json":
        print(cert_text, end="")
    else:
        print(f"verdict: {report.verdict}")
        print(f"epsilon: {report.epsilon}")
        print(f"mode: {report.mode}")
        for row in report.rows:
            status = "pass" if row.passed else "fail"
            print(
                f"{row.outcome}: target {row.target} derived {row.derived} "
                f"deviation {row.deviation} {status}"
            )
        for rep, prob in report.extra:
            print(f"extra {rep} = {prob}")
        print(f"extra mass: {report.extra_mass}")
        print(f"totality: {report.total}")
        print(f"certificate: {cert_path}")
    return 0 if report.verdict == "trusted" else 1


def _cmd_freq(args: argparse.Namespace) -> int:
    checked = _load(args)
    oracle = forced_oracle_form(checked.main_term)
    if oracle is None:
        raise TraceError(
            "NotAnOracleProgram", "oracle-freq needs a forced oracle as main"
        )
    name, arg = oracle
    dist, _ = oracle_frequency(
        checked.env, name, arg, args.samples, checked.registry
    )
    return _print_distribution(args, dist, lambda rows: {
        "schema": 1,
        "oracle": name,
        "width": args.samples,
        "distribution": rows,
    })


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
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
