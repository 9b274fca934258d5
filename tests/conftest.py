"""Fixtures shared by the test modules."""

import pytest

from olam import checker, traces, trust


@pytest.fixture
def typings(monkeypatch):
    """From now on, each term that checker, traces or trust types, as a
    (module name, printed term) pair; a typing inside another, such as
    the checker's typing of a term's parts, is not counted."""
    typed = []
    depth = [0]
    for module in (checker, traces, trust):
        infer = module.infer_type

        def counted(env, term, registry=None, infer=infer, module=module):
            if not depth[0]:
                typed.append((module.__name__, str(term)))
            depth[0] += 1
            try:
                return infer(env, term, registry)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(module, "infer_type", counted)
    return typed
