"""Trust verdicts: derived distributions against declared targets.

A program is trusted at tolerance epsilon when every positively weighted
target outcome is hit within epsilon, the mass on outcomes the target gives
0, listed at 0 or not listed, stays below epsilon, and the derived
distribution is total.  The verdict ships as a certificate carrying the
evidence for every outcome, and a certificate can be replayed from scratch
against the program it names.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from . import surface
from .checker import Environment, infer_type
from .errors import TrustError
from .oracles import OracleRegistry
from .printer import show, term_key
from .reducer import find_redexes
from .syntax import (
    DEFAULT_FUEL,
    Fuel,
    Rational,
    Record,
    StepLabel,
    Term,
    TraceTerm,
    TypeCon,
    alpha_eq,
    record,
)
from .traces import (
    Distribution,
    StepGraph,
    forced_oracle_form,
    oracle_frequency,
    step_graph,
)

# unused here; bench/tracing.py traces evidence checks at trust.check_trace
# and enumerations at trust.enumerate_distribution
from .traces import check_trace, enumerate_distribution  # noqa: F401

__all__ = [
    "TrustSpec",
    "TrustRow",
    "TrustReport",
    "trust_check",
    "build_certificate",
    "replay_certificate",
]


@record("entries epsilon")
class TrustSpec(Record):
    """Target distribution and tolerance for a trust check."""


@record("outcome target derived deviation passed")
class TrustRow(Record):
    """One listed outcome: target mass, derived mass, and the comparison."""


@record("verdict rows extra extra_mass total epsilon distribution evidence")
class TrustReport(Record):
    """Full result of a trust check, including the one piece of evidence
    it rests on: in enumerate mode the step graph, in frequency mode the
    table's one trace, the tuple of calls and the rewritten tuple."""

    @property
    def mode(self) -> str:
        """"enumerate" or "frequency", after the evidence."""
        return "enumerate" if isinstance(self.evidence, StepGraph) else "frequency"


def _check_tolerance(epsilon: Rational) -> None:
    """Reject a tolerance outside (0, 1]."""
    if not 0 < epsilon <= 1:
        raise TrustError("EpsilonRange", f"tolerance {epsilon} outside (0, 1]")


def _validate_spec(spec: TrustSpec, keys: list[str]) -> None:
    """Reject a spec that is malformed whatever the program: a tolerance
    or a target out of range, an outcome listed twice (keys holds each
    listed outcome's key, in order), or targets that do not sum to 1."""
    _check_tolerance(spec.epsilon)
    listed: set[str] = set()
    for (outcome, target), key in zip(spec.entries, keys):
        if not 0 <= target <= 1:
            raise TrustError(
                "TargetRange", f"target mass {target} outside [0, 1]"
            )
        if key in listed:
            raise TrustError(
                "DuplicateOutcome", f"outcome {outcome} listed twice"
            )
        listed.add(key)
    total = sum((target for _, target in spec.entries), Fraction(0))
    if total != 1:
        raise TrustError(
            "TargetNotTotal", f"target masses sum to {total}, not 1"
        )


def trust_check(
    env: Environment,
    t: Term,
    spec: TrustSpec,
    registry: OracleRegistry | None = None,
    fuel: Fuel | int = DEFAULT_FUEL,
    freq_width: int | None = None,
) -> TrustReport:
    """Derive t's distribution and compare it against the declared targets.

    t must be typed under env, as check_program's main_term is: the
    enumeration and the frequency table do not type it.  A forced oracle
    with freq_width set is read through its width-n frequency table;
    everything else is enumerated exactly.  Listed outcomes with positive
    target mass must match within epsilon (strictly).  Every outcome the
    target gives 0, listed at 0 or not listed, counts toward the extra
    mass, which must stay below epsilon; report.extra names the unlisted
    ones.

    report.evidence is what the distribution was read from: t's step
    graph (traces.step_graph) or the frequency table's one trace.  For one
    judgment per outcome of a table, call traces.oracle_frequency, as
    trust_check does.

    Errors come in this order: the spec's own (range, duplicate, total),
    then the derivation's (it spends the fuel), then a listed outcome the
    derivation did not reach that is not a normal form of the program's
    type or of a reached outcome's type.  A reached outcome is one.  Only
    such an outcome makes trust_check type terms: the outcome, then the
    program and the reached outcomes until one has its type.
    """
    keys = [term_key(outcome) for outcome, _ in spec.entries]
    _validate_spec(spec, keys)
    derivation = _derive(env, t, registry, fuel, freq_width)
    return _judge(env, t, spec, keys, derivation, registry)


# A derivation: the distribution, then the step graph (enumerate mode) or
# the frequency table's one trace (frequency mode).
_Derivation = tuple[Distribution, StepGraph | TraceTerm]


def _derive(
    env: Environment,
    t: Term,
    registry: OracleRegistry | None,
    fuel: Fuel | int,
    freq_width: int | None,
) -> _Derivation:
    """t's distribution and its evidence, as trust_check describes."""
    oracle = forced_oracle_form(t)
    if freq_width is not None and oracle is not None:
        dist, judgments = oracle_frequency(env, *oracle, freq_width, registry)
        # every judgment of the table shares its one trace
        return dist, judgments[0].witness
    return step_graph(t, registry, fuel)


def _judge(
    env: Environment,
    t: Term,
    spec: TrustSpec,
    keys: list[str],
    derivation: _Derivation,
    registry: OracleRegistry | None,
    program_type: TypeCon | None = None,
) -> TrustReport:
    """The verdict on a valid spec, whose outcomes have the keys, against
    the derivation of t; program_type is t's type where the caller has
    it already."""
    dist, _ = derivation
    derived = dist.as_key_map()
    # the program's type, then each reached outcome's, typed on first need:
    # a reduct's type may differ from the program's by a term step inside
    # it, which alpha-equality does not take
    types: list[TypeCon] = []
    untyped = chain((t,), (outcome for outcome, _ in dist.items()))
    if program_type is not None:
        types.append(program_type)
        next(untyped)

    def known_type(outcome_type: TypeCon) -> bool:
        if any(alpha_eq(outcome_type, typ) for typ in types):
            return True
        for term in untyped:
            types.append(infer_type(env, term, registry))
            if alpha_eq(outcome_type, types[-1]):
                return True
        return False

    rows = []
    for (outcome, target), key in zip(spec.entries, keys):
        mass = derived.get(key)
        if mass is None:
            # a reached outcome is a normal form of the program's type;
            # one the derivation did not reach must be checked to be one
            outcome_type = infer_type(env, outcome, registry)
            if not known_type(outcome_type):
                raise TrustError(
                    "UnknownOutcome",
                    f"outcome {outcome} has type {outcome_type}, "
                    f"the program has type {types[0]}",
                )
            if find_redexes(outcome):
                raise TrustError(
                    "UnknownOutcome",
                    f"outcome {outcome} is not in normal form",
                )
            mass = Fraction(0)
        deviation = abs(mass - target)
        passed = deviation < spec.epsilon if target > 0 else True
        rows.append(TrustRow(outcome, target, mass, deviation, passed))
    listed = set(keys)
    # items come sorted by key, so sorting the keys pairs them up
    extra = tuple(
        item
        for key, item in zip(sorted(derived), dist.items())
        if key not in listed
    )
    extra_mass = sum(
        [prob for _, prob in extra]
        + [row.derived for row in rows if row.target == 0],
        Fraction(0),
    )
    total = dist.total()
    trusted = (
        all(row.passed for row in rows)
        and extra_mass < spec.epsilon
        and total == 1
    )
    verdict = "trusted" if trusted else "untrusted"
    epsilon = Fraction(spec.epsilon)
    # the derivation's distribution and evidence are the last two fields
    return TrustReport(
        verdict, tuple(rows), extra, extra_mass, total, epsilon, *derivation
    )


# ---------------------------------------------------------- certificates


def _label_to_text(label: StepLabel) -> str:
    """A step label as its rule followed by the redex path, all separated
    by single spaces: "left 1 0" is the left side of the choice at path
    (1, 0), and "beta" a beta step at the root."""
    path, rule = label
    return " ".join((rule, *map(str, path)))


def build_certificate(
    env: Environment, t: Term, report: TrustReport, printed: tuple | None = None
) -> dict:
    """Self-contained record of a trust verdict on program t: the program,
    its derived distribution, its evidence (the step graph and each leaf's
    claim, or the frequency table's one trace), and every threshold
    comparison.  replay_certificate writes it again to compare.  Each term
    it lists is printed once; a step graph's node texts, the program's
    among them, come printed, and so may a frequency table's program and
    outcomes, in the distribution's order (printed).

    A step graph is written as its node texts, each distinct term once,
    and its edges as (from, label, probability, to) with the nodes by
    index.  Each outcome's claim is (leaf, probability): it names the
    outcome's leaf, the first leaf of its alpha class, and gives the
    outcome's mass.  The claims come in the distribution's order.  A
    frequency table is written as its distribution and its one trace,
    the table: the tuple of calls and the rewritten tuple."""
    items = report.distribution.items()
    evidence = report.evidence
    # each derived outcome's text by the outcome's id: a step graph holds
    # its leaves printed, and a frequency table's outcomes are printed here
    if isinstance(evidence, StepGraph):
        program = evidence.texts[0]
        leaf_of = {id(evidence.terms[leaf]): leaf for leaf, _ in evidence.leaves}
        text_of = {i: evidence.texts[leaf] for i, leaf in leaf_of.items()}
        written = {
            "nodes": list(evidence.texts),
            "edges": [
                [node, _label_to_text(label), str(prob), child]
                for node, label, prob, child in evidence.edges
            ],
            "claims": [[leaf_of[id(rep)], str(prob)] for rep, prob in items],
        }
    else:
        program, texts = printed or (show(t), [show(rep) for rep, _ in items])
        text_of = {id(rep): text for (rep, _), text in zip(items, texts)}
        written = {
            "distribution": [[text_of[id(rep)], str(prob)] for rep, prob in items],
            "table": [show(s) for s in evidence.steps],
        }
    return {
        "schema": 2,
        "program": program,
        "mode": report.mode,
        "seedless": True,
        "epsilon": str(report.epsilon),
        "verdict": report.verdict,
        "totality": str(report.total),
        **written,
        "threshold_checks": [
            {
                # a row that replay took from the derivation comes printed
                "outcome": text_of.get(id(row.outcome)) or show(row.outcome),
                "target": str(row.target),
                "derived": str(row.derived),
                "deviation": str(row.deviation),
                "passed": row.passed,
            }
            for row in report.rows
        ],
    }


# The JSON shape of what replay reads of a certificate, checked before it
# is read; every other field is only compared with the text trust writes.
# A type is matched with isinstance, a one-item list by every item of a
# list, and a dict field by field (a missing field reads as None).
_READ = {
    "program": str,
    "epsilon": str,
    "threshold_checks": [{"outcome": str, "target": str}],
}


def _require_shape(value: object, shape: object, name: str) -> None:
    """Raise unless value, found at name, has the shape."""
    if isinstance(shape, type):
        fits = isinstance(value, shape)
    elif isinstance(shape, list):
        fits = isinstance(value, list)
        for i, v in enumerate(value if fits else ()):
            _require_shape(v, shape[0], f"{name}[{i}]")
    else:
        fits = isinstance(value, dict)
        for key, s in shape.items() if fits else ():
            _require_shape(value.get(key), s, f"{name}.{key}")
    if not fits:
        raise TrustError("CertificateMismatch", f"malformed {name}")


def _difference(value: object, written: object) -> list[str | int] | None:
    """Where value first differs from the JSON value written, as the keys
    and indices that lead there, outermost first; None when the two are
    equal as JSON values: of one type, lists item by item in order, and
    objects key by key in any key order."""
    if type(value) is not type(written):
        return []
    if isinstance(written, list):
        for i, (v, w) in enumerate(zip(value, written)):
            bad = _difference(v, w)
            if bad is not None:
                return [i, *bad]
        short = min(len(value), len(written))
        return None if len(value) == len(written) else [short]
    if isinstance(written, dict):
        for key, w in written.items():
            bad = [] if key not in value else _difference(value[key], w)
            if bad is not None:
                return [key, *bad]
        return [key for key in value if key not in written][:1] or None
    return None if value == written else []


def _mismatch(field: str, bad: list[str | int]) -> TrustError:
    """The error for a field first differing where the keys bad lead."""
    at = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in bad)
    return TrustError(
        "CertificateMismatch",
        f"certificate field {field!r} differs from the recomputed one"
        + (f" at {at}" if at else ""),
    )


def replay_certificate(
    env: Environment,
    registry: OracleRegistry | None,
    cert: dict,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> TrustReport:
    """Recheck a certificate from scratch.

    The verdict is derived once, by the derivation and the judgment that
    trust_check runs, and the certificate build_certificate writes for it
    must equal the given one in every field it writes, evidence included:
    evidence that is the text of a fresh derivation by the reduction rules
    needs no second check step by step.  Fields are compared as JSON
    values, so 1 is not true and list order counts, but the key order of
    an object does not.  A difference raises, naming the field and the
    place of its first differing value.

    Replay parses only what it cannot derive.  It parses the program and
    the tolerance, types the program once and derives; a threshold row
    whose outcome text is the printed text of a derived outcome is that
    outcome, with the key the derivation gave it, and only the other rows'
    outcomes are parsed, keyed and, if the derivation did not reach them,
    typed and checked to be normal forms.  Every target is parsed.  Of the
    evidence it reads one length: a frequency table's first term is the
    tuple of n calls, n its width, or the table differs at [0].  Errors
    come in this order: parsing the program and the tolerance, the width,
    typing the program, the tolerance's range, the derivation's, parsing
    the rows, then the spec's and the unreached rows' as trust_check
    orders them, then the first field that differs.
    """
    _require_shape(cert, _READ, "certificate")
    t = surface.parse_term(cert["program"])
    epsilon = surface.parse_rational_text(cert["epsilon"])
    width = program = None
    if cert.get("mode") == "frequency":
        table = cert.get("table")
        _require_shape(table, [str], "certificate.table")
        # n calls print as n copies of the program joined inside n - 1
        # pairs, each of which adds the 4 characters "<", ", " and ">"
        program = show(t)
        size = len(program) + 4
        width, rest = divmod(len(table[0]) + 4, size) if table else (0, 0)
        if rest or not width:
            raise _mismatch("table", [0])
    program_type = infer_type(env, t, registry)
    _check_tolerance(epsilon)
    derivation = dist, evidence = _derive(env, t, registry, fuel, width)
    reps = [rep for rep, _ in dist.items()]
    if isinstance(evidence, StepGraph):
        leaf_of = {id(evidence.terms[leaf]): leaf for leaf, _ in evidence.leaves}
        texts = [evidence.texts[leaf_of[id(rep)]] for rep in reps]
    else:
        texts = [show(rep) for rep in reps]
    # items come sorted by key, so sorting the keys pairs them up
    reached = dict(zip(texts, zip(reps, sorted(dist.as_key_map()))))
    entries, keys = [], []
    for row in cert["threshold_checks"]:
        if row["outcome"] in reached:
            outcome, key = reached[row["outcome"]]
        else:
            outcome = surface.parse_term(row["outcome"])
            key = term_key(outcome)
        entries.append((outcome, surface.parse_rational_text(row["target"])))
        keys.append(key)
    spec = TrustSpec(tuple(entries), epsilon)
    _validate_spec(spec, keys)
    report = _judge(env, t, spec, keys, derivation, registry, program_type)
    for field, written in build_certificate(env, t, report, (program, texts)).items():
        bad = _difference(cert.get(field), written)
        if bad is not None:
            raise _mismatch(field, bad)
    return report
