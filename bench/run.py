"""olam benchmark: five commands on seeded, generated programs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; olam is imported from `src/`.
For every program the benchmark runs `check`, `eval`, `dist`, `trust`
and certificate replay in-process, one after another from one thread (a
closed loop), and checks each output against a reference the generator
derived without olam.  It keeps taking programs until S seconds have
passed and at least MIN_PROGRAMS have run, then prints one JSON line of
run details (stamp, sample counts, output digests, failures, unscaled
percentiles) and, last, the result line.  Times are scaled to a
reference machine speed, measured around every command run (see
calibration.py).

With --trace 0 the result holds the end-to-end metrics.  With --trace 1
the first MIN_PROGRAMS programs run once untraced and once with spans
around every layer; the result holds the per-layer metrics and the
tracing overhead, and per-program rows and spans go to
`.bench_out/trace-<workload>-<seed>.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import commands  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PROGRAMS = 102
SETUP_REPEATS = 9
COMMAND_LIMIT_S = 10.0
# A command quicker than REPEAT_BELOW_S runs again until REPEAT_SPEND_S
# have gone into it (at most REPEAT_MAX runs) and counts its median run:
# the machine pauses at random for a fraction of a millisecond, which
# would otherwise set the p90 of millisecond commands.  olam keeps no
# state between calls, so a repeat does the same work as the first run.
REPEAT_BELOW_S = 0.005
REPEAT_SPEND_S = 0.015
REPEAT_MAX = 15
# this long after the run starts, programs not yet run count as failed,
# so that a run always ends inside three minutes
HARD_CAP_S = 150.0


class SetupError(Exception):
    pass


class CommandTimeout(Exception):
    pass


# ----------------------------------------------------------------- setup


def import_olam():
    """A fresh import of olam from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "olam" / "__init__.py").is_file():
        raise SetupError(f"no olam sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "olam" or m.startswith("olam.")]:
        del sys.modules[name]
    olam = importlib.import_module("olam")
    if Path(olam.__file__).resolve().parent != (src / "olam").resolve():
        raise SetupError(f"olam imported from {olam.__file__}, not {src}")
    return olam


def setup(workload, seed: int, count: int, sizes=None):
    """Import olam and generate the first count programs, SETUP_REPEATS
    times; returns the last import, its programs and the median time,
    scaled by calibration."""
    times = []
    first = None
    for _ in range(SETUP_REPEATS):
        scale = calibration.CALIBRATION_S / statistics.median(
            calibration.calibrate() for _ in range(3)
        )
        start = time.perf_counter()
        olam = import_olam()
        programs = [
            workloads.program(workload, seed, i, sizes) for i in range(count)
        ]
        times.append((time.perf_counter() - start) * scale)
        if first is None:
            first = programs
        elif programs != first:
            raise SetupError("generation is not deterministic")
    return olam, programs, statistics.median(times)


def stamp(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(ROOT / "src"),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------ one program


def _on_alarm(signum, frame):
    raise CommandTimeout(f"over {COMMAND_LIMIT_S} s")


def install_alarm() -> None:
    """Make the per-command time limit raise CommandTimeout."""
    signal.signal(signal.SIGALRM, _on_alarm)


def timed(fn, *args):
    """fn(*args) under the per-command time limit: (seconds, result)."""
    signal.setitimer(signal.ITIMER_REAL, COMMAND_LIMIT_S)
    try:
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_program(
    olam, program, seed: int, repeat: bool = True
) -> tuple[dict, dict, list, list]:
    """All five commands on one program.  Returns each command's latency
    as (scaled seconds, seconds), failed commands left out; the rendered
    outputs; the failures; and the calibration times taken.  Without
    repeat, each command runs once, so that traced counts stay exact."""
    latency: dict[str, tuple[float, float]] = {}
    outputs: dict[str, str] = {}
    failures: list[dict] = []
    calibrations = [calibration.calibrate()]

    def once(fn, *args):
        seconds, result = timed(fn, olam, program, *args)
        calibrations.append(calibration.calibrate())
        before, after = calibrations[-2:]
        return (calibration.scaled(seconds, before, after), seconds), result

    def attempt(name, fn, *args):
        try:
            run, result = once(fn, *args)
            runs = [run]
            if repeat and run[1] < REPEAT_BELOW_S:
                while (
                    sum(r[1] for r in runs) < REPEAT_SPEND_S
                    and len(runs) < REPEAT_MAX
                ):
                    runs.append(once(fn, *args)[0])
        except Exception as exc:  # any failure of a command is counted
            failures.append(
                {
                    "program": program.ident,
                    "command": name,
                    "error": f"{type(exc).__name__}: {exc}"[:300],
                }
            )
            return None
        latency[name] = (
            statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs),
        )
        return result

    attempt("check", commands.cmd_check, seed)
    attempt("eval", commands.cmd_eval, seed)
    outputs["dist"] = attempt("dist", commands.cmd_dist, seed)
    trusted = attempt("trust", commands.cmd_trust, seed)
    if trusted is None:
        failures.append(
            {"program": program.ident, "command": "replay", "error": "no certificate"}
        )
    else:
        outputs["trust"], outputs["certificate"] = trusted
        attempt("replay", commands.cmd_replay, outputs["certificate"])
    return latency, outputs, failures, calibrations


# ------------------------------------------------------------------ runs


class Run:
    """Latencies, outputs and failures of one pass over programs."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.digests = {k: hashlib.sha256() for k in ("dist", "trust", "certificate")}

    def add(
        self, program, latency, outputs, failures, calibrations, digest: bool
    ) -> None:
        self.attempted += len(commands.COMMANDS)
        self.failures += failures
        self.rows.append(
            {
                "program": program.ident,
                "size": program.size,
                "latency_s": latency,
                "scale": calibration.CALIBRATION_S / statistics.median(calibrations),
                "cert_bytes": len((outputs.get("certificate") or "").encode()),
            }
        )
        if digest:
            for key, hasher in self.digests.items():
                hasher.update((outputs.get(key) or "<failed>\n").encode())

    def busy_s(self) -> float:
        """Scaled time spent in commands."""
        return sum(s for r in self.rows for s, _ in r["latency_s"].values())

    def speed(self) -> float:
        """Reference calibration time over the median one in this run."""
        return statistics.median(r["scale"] for r in self.rows)


def run_loop(
    olam, workload, programs, seed, seconds, sizes, deadline, tracer=None
) -> Run:
    """Programs in order, each through all five commands, until seconds
    have passed and every given program has run; past the given list,
    further programs are generated in whole blocks of sizes.  Given
    programs not run by the deadline count as failed."""
    run = Run()
    block = len(sizes or workload.sizes)
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= len(programs) and (
            tracer is not None or (index % block == 0 and elapsed >= seconds)
        ):
            break
        if time.perf_counter() > deadline:
            for program in programs[index:]:
                run.attempted += len(commands.COMMANDS)
                run.failures += [
                    {"program": program.ident, "command": c, "error": "not run"}
                    for c in commands.COMMANDS
                ]
            break
        if index < len(programs):
            program = programs[index]
        else:
            program = workloads.program(workload, seed, index, sizes)
        if tracer is not None:
            tracer.program = index
        measured = run_program(olam, program, seed, repeat=tracer is None)
        run.add(program, *measured, index < len(programs))
        index += 1
    return run


def percentile_metrics(run: Run) -> tuple[dict, dict, dict]:
    """p50 and p90 of each command's scaled latency over the programs,
    the sample counts, and the same percentiles unscaled."""
    metrics, samples, raw = {}, {}, {}
    for cmd in commands.COMMANDS:
        pairs = [row["latency_s"][cmd] for row in run.rows if cmd in row["latency_s"]]
        samples[cmd] = len(pairs)
        if len(pairs) < 2:
            raise SetupError(f"{cmd}: fewer than two successful runs")
        for i, out in ((0, metrics), (1, raw)):
            ms = [pair[i] * 1000 for pair in pairs]
            out[f"{cmd}_ms.p50"] = statistics.median(ms)
            out[f"{cmd}_ms.p90"] = statistics.quantiles(ms, n=10)[8]
    return metrics, samples, raw


def layer_metrics(tracer: tracing.Tracer, run: Run) -> tuple[dict, list]:
    """Per-layer metrics, per program where they are sums of spans or of
    self times (scaled by calibration), and the per-program rows."""
    per_program = tracer.per_program()
    n = len(run.rows)
    totals: dict[str, list[float]] = {}
    rows = []
    for index, row in enumerate(run.rows):
        layers = {}
        for name, (calls, self_s) in sorted(per_program.get(index, {}).items()):
            self_ms = self_s * 1000 * row["scale"]
            layers[name] = {"calls": calls, "self_ms": self_ms}
            total = totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_ms
        rows.append({"program": row["program"], "size": row["size"], "layers": layers})
    metrics = {}
    for name in tracing.SPAN_NAMES:
        calls, self_ms = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_ms"] = self_ms / n
    observed = tracer.observed
    for name in (
        "traces.paths",
        "traces.path_steps",
        "fuel.spent",
        "traces.outcomes",
        "traces.merges",
        "reducer.steps_per_sample",
    ):
        metrics[name] = statistics.fmean(observed.get(name) or [0])
    metrics["traces.merge_branches.max"] = max(
        observed.get("traces.merge_branches") or [0]
    )
    metrics["traces.enumerate_distribution.calls_per_replay"] = (
        tracer.enumerations_per_replay()
    )
    metrics["trust.cert_bytes"] = statistics.fmean(
        row["cert_bytes"] for row in run.rows
    )
    return metrics, rows


def result(workload_name: str, seed: int, seconds: float, trace: bool,
           sizes=None, min_programs: int = MIN_PROGRAMS, out_dir: Path | None = None):
    """Run the benchmark; returns (details, result line)."""
    deadline = time.perf_counter() + HARD_CAP_S
    workload = workloads.WORKLOADS[workload_name]
    olam, programs, setup_s = setup(workload, seed, min_programs, sizes)
    install_alarm()
    details = {
        "workload": workload_name,
        "sizes": list(sizes or workload.sizes),
        "stamp": stamp(seed),
    }
    # one block untimed, so first-call costs land outside the figures
    for program in programs[: len(sizes or workload.sizes)]:
        run_program(olam, program, seed)
    gc.collect()
    # the traced run compares one untraced and one traced pass over the
    # same programs
    run = run_loop(
        olam, workload, programs, seed, 0 if trace else seconds, sizes, deadline
    )
    runs = [run]
    details["programs"] = len(run.rows)
    details["speed"] = run.speed()
    details["sha256"] = {k: h.hexdigest() for k, h in run.digests.items()}
    if not trace:
        metrics, details["samples"], details["unscaled"] = percentile_metrics(run)
        metrics["setup_s"] = setup_s
        metrics["programs_per_s"] = len(run.rows) / run.busy_s()
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    else:
        tracer = tracing.Tracer()
        tracer.install(olam)
        try:
            gc.collect()
            traced = run_loop(
                olam, workload, programs, seed, 0, sizes, deadline, tracer
            )
        finally:
            tracer.uninstall()
        runs.append(traced)
        metrics, rows = layer_metrics(tracer, traced)
        metrics["tracing.overhead_pct"] = 100 * (
            traced.busy_s() / run.busy_s() - 1
        )
        for row, plain in zip(rows, run.rows):
            row["command_ms"] = {
                c: s * 1000 for c, (s, _) in plain["latency_s"].items()
            }
        details["spans"] = len(tracer.names)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer" if trace else "end_to_end"]
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    details["failed_ratio"] = len(failures) / attempted
    details["failures"] = failures[:20]
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in reported
        },
    }
    if trace and out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload_name}-{seed}.jsonl.gz"
        details["trace_file"] = str(path.relative_to(ROOT))
        write_trace(path, details, metrics, rows, tracer)
    return details, line


def write_trace(path: Path, details, metrics, rows, tracer) -> None:
    """Gzipped JSON lines: a header with the details, metrics and
    per-program rows, then one line per span."""
    names = sorted(set(tracer.names))
    ids = {name: i for i, name in enumerate(names)}
    t0 = min(tracer.starts, default=0.0)
    header = {
        **details,
        "metrics": metrics,
        "rows": rows,
        "span_names": names,
        "span_fields": ["name", "start_us", "end_us", "parent", "program"],
    }
    with gzip.open(path, "wt") as out:
        out.write(json.dumps(header) + "\n")
        for name, start, end, parent, program in zip(
            tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.programs
        ):
            start_us = round((start - t0) * 1e6, 1)
            end_us = round((end - t0) * 1e6, 1)
            out.write(f"[{ids[name]},{start_us},{end_us},{parent},{program}]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details, line = result(
            args.workload, args.seed, args.seconds, bool(args.trace),
            out_dir=ROOT / ".bench_out",
        )
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
