"""Smoke test of the benchmark itself, at minimal sizes.

    python3 bench/smoke.py        (or: python3 -m pytest bench/smoke.py)

Checks that every metric BENCHMARK.json names is reported with its unit
on every workload, traced and untraced; that no command fails on the
current code; and that a wrong reference distribution counts as a
failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import run
import workloads

# every program at these sizes has at least two outcomes
SMALL_SIZES = {
    "branching": (1, 2),
    "merging": (1, 2),
    "wide_sampling": (1, 2),
    "oracle_table": (4, 6),
}


def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_spec():
    names = [w["name"] for w in spec()["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)


def test_every_metric_reported_and_nothing_fails():
    benchmark = spec()
    for name, sizes in SMALL_SIZES.items():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            details, line = run.result(name, 0, 0, trace, sizes=sizes, min_programs=4)
            units = {m: v["unit"] for m, v in line["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in benchmark[kind]}
            assert units == expected, (name, kind)
            assert line["correct"] and line["failed"] == 0, (name, details)
            assert details["failed_ratio"] == 0
            assert line["attempted"] >= 4 * len(run.commands.COMMANDS)


def test_wrong_reference_is_a_failure():
    olam = run.import_olam()
    run.install_alarm()
    for name, sizes in SMALL_SIZES.items():
        program = workloads.program(workloads.WORKLOADS[name], 0, 0, sizes)
        failures = run.run_program(olam, program, 0)[2]
        assert failures == [], failures
        (first, p), (second, q), *rest = program.dist
        shift = Fraction(1, 1000)
        wrong = dataclasses.replace(
            program, dist=((first, p - shift), (second, q + shift), *rest)
        )
        failures = run.run_program(olam, wrong, 0)[2]
        failed = {f["command"] for f in failures}
        assert {"dist", "trust", "replay"} <= failed, (name, failures)


def main() -> int:
    for test in (
        test_workloads_match_spec,
        test_every_metric_reported_and_nothing_fails,
        test_wrong_reference_is_a_failure,
    ):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
