"""The benchmark's tracer rebinds names on the olam package: every one it
names must exist, or only the traced benchmark run finds out."""

import importlib.util
from pathlib import Path

import olam

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
