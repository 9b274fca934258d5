"""The benchmark's tracer rebinds names on the olam package, and its
commands read the fields of trust reports: every one they name must
exist, or only a benchmark run finds out."""

import ast
import importlib.util
from fractions import Fraction
from pathlib import Path

import olam
from generators import signature
from olam import surface
from olam.syntax import Var
from olam.trust import TrustSpec, trust_check

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
COMMANDS = TRACING.with_name("commands.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves_on_the_package():
    missing = []
    for name, sites in load_tracing().SPAN_SITES.items():
        for owner_path, attr in sites:
            owner = olam
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, attr, None)):
                missing.append((name, owner_path, attr))
    assert missing == []


def test_every_report_field_the_benchmark_reads_resolves():
    """Each report.<field> and row.<field> that bench/commands.py reads
    exists on a trust_check report, and on its first row, in enumerate
    mode and in frequency mode."""
    read: dict[str, set[str]] = {"report": set(), "row": set()}
    for node in ast.walk(ast.parse(COMMANDS.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.get(node.value.id, set()).add(node.attr)
    assert {"verdict", "mode", "distribution"} <= read["report"]
    env, reg = signature()
    half = Fraction(1, 2)
    spec = TrustSpec(((Var("a"), half), (Var("b"), half)), Fraction(1, 100))
    reports = [
        trust_check(env, surface.parse_term("choose[1/2]{a}{b}!"), spec, reg),
        trust_check(env, surface.parse_term("#c!"), spec, reg, freq_width=3),
    ]
    assert [report.mode for report in reports] == ["enumerate", "frequency"]
    missing = [
        (report.mode, name, attr)
        for report in reports
        for name, owner in (("report", report), ("row", report.rows[0]))
        for attr in sorted(read[name])
        if not hasattr(owner, attr)
    ]
    assert missing == []
