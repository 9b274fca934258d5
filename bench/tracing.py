"""Spans around the calls into each olam layer, recorded from outside.

`Tracer.install` rebinds each traced public function in the module that
calls it (for example `olam.traces.find_redexes`, `olam.trust.check_trace`
and `OracleRegistry.eval`) to a wrapper that records a span: name, start,
end, parent span and program.  A call made while a span of the same name
is innermost passes straight through, so recursion and nested entries into
one layer count once, at the outermost entry.  `uninstall` restores the
originals.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

# span name -> (module, attribute) pairs rebound to one wrapper each; the
# module is the caller, so each layer is entered where another calls it
SPAN_SITES = {
    "surface.parse": [
        ("surface", "parse_program"),
        ("surface", "parse_oracle_file"),
        ("surface", "parse_distribution"),
    ],
    "surface.parse_term": [("surface", "parse_term")],
    "checker.check_program": [("checker", "check_program")],
    "checker.infer_type": [("traces", "infer_type"), ("trust", "infer_type")],
    "reducer.redex_search": [
        ("reducer", "deterministic_strategy"),
        ("traces", "deterministic_strategy"),
        ("traces", "find_redexes"),
        ("trust", "find_redexes"),
    ],
    "reducer.step": [("reducer", "step"), ("traces", "step")],
    "reducer.run_sample": [("reducer", "run_sample")],
    "traces.enumerate_paths": [("traces", "enumerate_paths")],
    "traces.enumerate_distribution": [
        ("traces", "enumerate_distribution"),
        ("trust", "enumerate_distribution"),
    ],
    "traces.oracle_frequency": [
        ("traces", "oracle_frequency"),
        ("trust", "oracle_frequency"),
    ],
    "traces.check_trace": [("trust", "check_trace")],
    "printer.term_key": [
        ("printer", "term_key"),
        ("traces", "term_key"),
        ("trust", "term_key"),
    ],
    "printer.show": [("printer", "show"), ("trust", "show")],
    "oracles.eval": [("oracles.OracleRegistry", "eval")],
    "trust.trust_check": [("trust", "trust_check")],
    "trust.build_certificate": [("trust", "build_certificate")],
    "trust.replay_certificate": [("trust", "replay_certificate")],
}

# witnesses split check_trace into two spans
SPAN_NAMES = [n for n in SPAN_SITES if n != "traces.check_trace"] + [
    "traces.check_trace.trace",
    "traces.check_trace.merge",
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.programs: list[int] = []
        self.program = -1
        self._open: list[int] = []
        # counters keyed by name, each a list of observed values
        self.observed: dict[str, list[float]] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def span(self, name: str, fn, observe=None):
        """A wrapper recording one span per outermost call of fn."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, programs, open_ = self.parents, self.programs, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if open_ and names[open_[-1]] == span_name:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(span_name)
            parents.append(open_[-1] if open_ else -1)
            programs.append(self.program)
            ends.append(0.0)
            open_.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def install(self, olam) -> None:
        for name, sites in SPAN_SITES.items():
            label = _check_trace_kind if name == "traces.check_trace" else name
            observe = OBSERVERS.get(name)
            for owner_path, attr in sites:
                owner = olam
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                inner = original
                if name == "traces.enumerate_paths":
                    inner = self._metered(original, olam.syntax.Fuel)
                setattr(owner, attr, self.span(label, inner, observe))

    def _metered(self, enumerate_paths, fuel_class):
        """enumerate_paths recording the fuel each call spends."""

        def metered(env, t, registry=None, fuel=None):
            budget = fuel if isinstance(fuel, fuel_class) else fuel_class(fuel)
            left = budget.left
            try:
                return enumerate_paths(env, t, registry, budget)
            finally:
                self.observed["fuel.spent"].append(left - budget.left)

        return metered

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------ aggregation

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        self_s = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                self_s[parent] -= self.ends[index] - self.starts[index]
        return self_s

    def per_program(self) -> dict[int, dict[str, list[float]]]:
        """program -> span name -> [calls, self seconds]."""
        rows: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0])
        )
        for name, program, self_s in zip(
            self.names, self.programs, self.self_times()
        ):
            cell = rows[program][name]
            cell[0] += 1
            cell[1] += self_s
        return rows

    def enumerations_per_replay(self) -> float:
        """enumerate_distribution calls made inside each replay."""
        replays = self.names.count("trust.replay_certificate")
        inside = 0
        for index, name in enumerate(self.names):
            if name != "traces.enumerate_distribution":
                continue
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] != "trust.replay_certificate":
                parent = self.parents[parent]
            inside += parent >= 0
        return inside / replays if replays else 0.0


def _check_trace_kind(args) -> str:
    witness = args[1]
    kind = "merge" if type(witness).__name__ == "MergeTerm" else "trace"
    return f"traces.check_trace.{kind}"


# ---------------------------------------------------------- observers


def _observe_paths(tracer: Tracer, args, paths) -> None:
    tracer.observed["traces.paths"].append(len(paths))
    tracer.observed["traces.path_steps"].append(
        sum(len(quads) for _, quads in paths)
    )


def _observe_distribution(tracer: Tracer, args, result) -> None:
    dist, judgments = result
    tracer.observed["traces.outcomes"].append(len(dist))
    merges = [
        len(j.witness.branches)
        for j in judgments
        if type(j.witness).__name__ == "MergeTerm"
    ]
    tracer.observed["traces.merges"].append(len(merges))
    tracer.observed["traces.merge_branches"].extend(merges)


def _observe_sample(tracer: Tracer, args, result) -> None:
    tracer.observed["reducer.steps_per_sample"].append(len(result.trace))


OBSERVERS = {
    "traces.enumerate_paths": _observe_paths,
    "traces.enumerate_distribution": _observe_distribution,
    "traces.oracle_frequency": _observe_distribution,
    "reducer.run_sample": _observe_sample,
}
