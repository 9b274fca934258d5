"""Trust verdicts: derived distributions against declared targets.

A program is trusted at tolerance epsilon when every positively weighted
target outcome is hit within epsilon, the mass on outcomes the target gives
0, listed at 0 or not listed, stays below epsilon, and the derived
distribution is total.  The verdict ships as a certificate carrying the
evidence for every outcome, and a certificate can be replayed from scratch
against the program it names.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from . import surface
from .checker import Environment, infer_type
from .errors import OlamError, TrustError
from .oracles import OracleRegistry
from .printer import show, term_key
from .reducer import RULE_KIND, find_redexes
from .syntax import (
    DEFAULT_FUEL,
    Fuel,
    MergeTerm,
    Rational,
    StepLabel,
    Term,
    TraceTerm,
    alpha_eq,
)
from .traces import (
    Distribution,
    MapstoJudgment,
    _frequency_shape,
    _StepTable,
    check_trace,
    enumerate_distribution,
    forced_oracle_form,
    oracle_frequency,
)

__all__ = [
    "TrustSpec",
    "TrustRow",
    "TrustReport",
    "trust_check",
    "build_certificate",
    "replay_certificate",
]


@dataclass(frozen=True, slots=True)
class TrustSpec:
    """Target distribution and tolerance for a trust check."""

    entries: tuple[tuple[Term, Rational], ...]
    epsilon: Rational


@dataclass(frozen=True, slots=True)
class TrustRow:
    """One listed outcome: target mass, derived mass, and the comparison."""

    outcome: Term
    target: Rational
    derived: Rational
    deviation: Rational
    passed: bool


@dataclass(frozen=True)
class TrustReport:
    """Full result of a trust check, including the evidence it rests on."""

    verdict: str
    rows: tuple[TrustRow, ...]
    extra: tuple[tuple[Term, Fraction], ...]
    extra_mass: Fraction
    total: Fraction
    epsilon: Fraction
    distribution: Distribution
    judgments: tuple[MapstoJudgment, ...]
    mode: str


def _validate_spec(
    env: Environment,
    spec: TrustSpec,
    subject_type,
    registry: OracleRegistry | None,
) -> set[str]:
    """Reject a malformed spec; return the keys of its listed outcomes."""
    if not 0 < spec.epsilon <= 1:
        raise TrustError(
            "EpsilonRange", f"tolerance {spec.epsilon} outside (0, 1]"
        )
    listed: set[str] = set()
    total = Fraction(0)
    for outcome, target in spec.entries:
        if not 0 <= target <= 1:
            raise TrustError(
                "TargetRange", f"target mass {target} outside [0, 1]"
            )
        key = term_key(outcome)
        if key in listed:
            raise TrustError(
                "DuplicateOutcome", f"outcome {outcome} listed twice"
            )
        listed.add(key)
        total += target
        outcome_type = infer_type(env, outcome, registry)
        if not alpha_eq(outcome_type, subject_type):
            raise TrustError(
                "UnknownOutcome",
                f"outcome {outcome} has type {outcome_type}, "
                f"the program has type {subject_type}",
            )
        if find_redexes(outcome):
            raise TrustError(
                "UnknownOutcome", f"outcome {outcome} is not in normal form"
            )
    if total != 1:
        raise TrustError(
            "TargetNotTotal", f"target masses sum to {total}, not 1"
        )
    return listed


def trust_check(
    env: Environment,
    t: Term,
    spec: TrustSpec,
    registry: OracleRegistry | None = None,
    fuel: Fuel | int = DEFAULT_FUEL,
    freq_width: int | None = None,
) -> TrustReport:
    """Derive t's distribution and compare it against the declared targets.

    A forced oracle with freq_width set is read through its width-n
    frequency table; everything else is enumerated exactly.  Listed
    outcomes with positive target mass must match within epsilon
    (strictly).  Every outcome the target gives 0, listed at 0 or not
    listed, counts toward the extra mass, which must stay below epsilon;
    report.extra names the unlisted ones.
    """
    subject_type = infer_type(env, t, registry)
    listed = _validate_spec(env, spec, subject_type, registry)
    oracle = forced_oracle_form(t)
    if freq_width is not None and oracle is not None:
        name, arg = oracle
        dist, judgments = oracle_frequency(env, name, arg, freq_width, registry)
        mode = "frequency"
    else:
        dist, judgments = enumerate_distribution(env, t, registry, fuel)
        mode = "enumerate"

    rows = []
    for outcome, target in spec.entries:
        derived = dist.prob_of(outcome)
        deviation = abs(derived - target)
        passed = deviation < spec.epsilon if target > 0 else True
        rows.append(TrustRow(outcome, target, derived, deviation, passed))
    extra = tuple(
        (rep, prob)
        for rep, prob in dist.items()
        if term_key(rep) not in listed
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
    return TrustReport(
        verdict="trusted" if trusted else "untrusted",
        rows=tuple(rows),
        extra=extra,
        extra_mass=extra_mass,
        total=total,
        epsilon=Fraction(spec.epsilon),
        distribution=dist,
        judgments=tuple(judgments),
        mode=mode,
    )


# ---------------------------------------------------------- certificates


def _parse(text: str, parsed: dict[str, Term]) -> Term:
    """The term of text, parsed on its first visit to parsed."""
    term = parsed.get(text)
    if term is None:
        term = parsed[text] = surface.parse_term(text)
    return term


# Printed terms keyed by identity: evidence shares its term objects along
# common prefixes, and an entry holds its term, so its id stays unique
# while the entry lives.
_Shown = dict[int, tuple[Term, str]]


def _show(term: Term, shown: _Shown) -> str:
    """The text of term, printed on the first visit of the object to shown."""
    entry = shown.get(id(term))
    if entry is None:
        entry = shown[id(term)] = (term, show(term))
    return entry[1]


# A step label is written as its rule followed by the redex path, all
# separated by single spaces: "left 1 0" is the left side of the choice at
# path (1, 0), and "beta" a beta step at the root.
_LABEL_TEXT = re.compile(
    "(?:" + "|".join(RULE_KIND) + ")(?: (?:0|[1-9][0-9]*))*"
)


def _label_to_text(label: StepLabel) -> str:
    path, rule = label
    return " ".join((rule, *map(str, path)))


def _label_from_text(text: str) -> StepLabel:
    rule, *path = text.split(" ")
    return tuple(map(int, path)), rule


def _is_label_text(value: object) -> bool:
    return isinstance(value, str) and _LABEL_TEXT.fullmatch(value) is not None


class _OneOf:
    """A certificate shape that any one of several shapes satisfies."""

    def __init__(self, *shapes: object) -> None:
        self.shapes = shapes


# The JSON shape of what replay reads of a certificate, checked before it
# is read; every other field is only compared with the text trust writes.
# A type is matched with isinstance, a one-item list by every item of a
# list, a dict field by field (a missing field reads as None), a function
# as a predicate, and anything else by equal value and type.
_OPTIONAL_TEXT = _OneOf(None, str)
_WITNESS = _OneOf(
    {
        "kind": "steps",
        "terms": [str],
        "probability": _OPTIONAL_TEXT,
        "labels": _OneOf(None, [_is_label_text]),
    },
    {
        "kind": "merge",
        "source": str,
        "branches": [[str]],
        "target": str,
        "probability": _OPTIONAL_TEXT,
        "labels": _OneOf(None, [[_is_label_text]]),
    },
)
_JUDGMENT = {
    "source": str,
    "target": str,
    "probability": str,
    "witness": _WITNESS,
}
_CERTIFICATE = {
    "schema": 1,
    "program": str,
    "mode": _OneOf("enumerate", "frequency"),
    "epsilon": str,
    "witnesses": [_JUDGMENT],
    "threshold_checks": [{"outcome": str, "target": str}],
}


def _departure(value: object, shape: object) -> list[str] | None:
    """Where value first departs from shape, as the steps into value that
    lead there, innermost first; None when value has the shape."""
    if isinstance(shape, _OneOf):
        fits = any(_departure(value, s) is None for s in shape.shapes)
        return None if fits else []
    if isinstance(shape, type):
        return None if isinstance(value, shape) else []
    if isinstance(shape, list):
        if not isinstance(value, list):
            return []
        for i, v in enumerate(value):
            bad = _departure(v, shape[0])
            if bad is not None:
                return [*bad, f"[{i}]"]
        return None
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return []
        for key, s in shape.items():
            bad = _departure(value.get(key), s)
            if bad is not None:
                return [*bad, f".{key}"]
        return None
    if callable(shape):
        return None if shape(value) else []
    return None if type(value) is type(shape) and value == shape else []


def _require_shape(value: object, shape: object, name: str) -> None:
    bad = _departure(value, shape)
    if bad is not None:
        raise TrustError(
            "CertificateMismatch", f"malformed {name}{''.join(reversed(bad))}"
        )


def _witness_to_json(witness: Term, shown: _Shown) -> dict:
    match witness:
        case TraceTerm(steps, prob, labels):
            out = {
                "kind": "steps",
                "terms": [_show(s, shown) for s in steps],
                "probability": None if prob is None else str(prob),
            }
            if labels is not None:
                out["labels"] = [_label_to_text(x) for x in labels]
            return out
        case MergeTerm(source, branches, target, prob, labels):
            out = {
                "kind": "merge",
                "source": _show(source, shown),
                "branches": [[_show(s, shown) for s in br] for br in branches],
                "target": _show(target, shown),
                "probability": None if prob is None else str(prob),
            }
            if labels is not None:
                out["labels"] = [
                    [_label_to_text(x) for x in br] for br in labels
                ]
            return out
    raise TrustError(
        "CertificateMismatch",
        f"{type(witness).__name__} cannot appear in a certificate",
    )


def _labels_from_json(texts: list[str], steps: int) -> tuple[StepLabel, ...]:
    """The labels of a path of the given number of steps, one per step."""
    _require(
        len(texts) == steps, "step labels do not match the steps of a witness"
    )
    return tuple(_label_from_text(x) for x in texts)


def _witness_from_json(obj: dict, parsed: dict[str, Term]) -> Term:
    """A witness read from JSON of the shape _WITNESS."""
    prob_text = obj.get("probability")
    prob = None if prob_text is None else surface.parse_rational_text(prob_text)
    labels = obj.get("labels")
    if obj["kind"] == "steps":
        terms = obj["terms"]
        if labels is not None:
            labels = _labels_from_json(labels, len(terms) - 1)
        return TraceTerm(tuple(_parse(s, parsed) for s in terms), prob, labels)
    branches = obj["branches"]
    if labels is not None:
        _require(
            len(labels) == len(branches),
            "step labels do not match the branches of a merge",
        )
        # a branch lists the terms between source and target
        labels = tuple(
            _labels_from_json(ls, len(br) + 1)
            for ls, br in zip(labels, branches)
        )
    return MergeTerm(
        _parse(obj["source"], parsed),
        tuple(tuple(_parse(s, parsed) for s in br) for br in branches),
        _parse(obj["target"], parsed),
        prob,
        labels,
    )


def _claim(judgment: MapstoJudgment, shown: _Shown) -> dict:
    """What a judgment claims, as certificate JSON: its source, target and
    probability."""
    return {
        "source": _show(judgment.source, shown),
        "target": _show(judgment.target, shown),
        "probability": str(judgment.prob),
    }


def _judgment_from_json(obj: dict, parsed: dict[str, Term]) -> MapstoJudgment:
    """A judgment read from JSON of the shape _JUDGMENT."""
    return MapstoJudgment(
        _parse(obj["source"], parsed),
        _parse(obj["target"], parsed),
        surface.parse_rational_text(obj["probability"]),
        _witness_from_json(obj["witness"], parsed),
    )


def _verdict_fields(t: Term, report: TrustReport, shown: _Shown) -> dict:
    """The certificate without its evidence: every field, with each
    witness's claim but not its witness.  A function of the program and the
    trust check alone, written for build_certificate and recomputed by
    replay_certificate."""
    return {
        "schema": 1,
        "program": _show(t, shown),
        "mode": report.mode,
        "seedless": True,
        "epsilon": str(report.epsilon),
        "verdict": report.verdict,
        "totality": str(report.total),
        "distribution": [
            [_show(rep, shown), str(prob)]
            for rep, prob in report.distribution.items()
        ],
        "witnesses": [_claim(j, shown) for j in report.judgments],
        "threshold_checks": [
            {
                "outcome": _show(row.outcome, shown),
                "target": str(row.target),
                "derived": str(row.derived),
                "deviation": str(row.deviation),
                "passed": row.passed,
            }
            for row in report.rows
        ],
    }


def build_certificate(env: Environment, t: Term, report: TrustReport) -> dict:
    """Self-contained record of a trust verdict: the program, its derived
    distribution, every outcome's claim with its evidence, and every
    threshold comparison.  Each term object is printed once."""
    shown: _Shown = {}
    cert = _verdict_fields(t, report, shown)
    for claim, judgment in zip(cert["witnesses"], report.judgments):
        claim["witness"] = _witness_to_json(judgment.witness, shown)
    return cert


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise TrustError("CertificateMismatch", detail)


def replay_certificate(
    env: Environment,
    registry: OracleRegistry | None,
    cert: dict,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> TrustReport:
    """Recheck a certificate from scratch.

    Every witness's evidence is checked against its claim, and the verdict
    is derived once more by the same trust_check that wrote the
    certificate.  Every field, and the claim of every witness, must then
    be the text that trust writes for that verdict: compared as JSON
    values, so 1 is not true and list order counts, but the key order of
    an object does not.  Any disagreement raises instead of returning.

    Only what replay reads is shape-checked before it is read.  Witnesses
    share prefixes, so the replay parses each distinct text once and
    checks each distinct step once; every witness is still checked against
    its own claim.  A labelled witness is checked along its labels; one
    without labels is searched, spending fuel.  A witness that fails its
    check is named in the error.
    """
    _require_shape(cert, _CERTIFICATE, "certificate")
    parsed: dict[str, Term] = {}
    t = _parse(cert["program"], parsed)
    judgments = [_judgment_from_json(obj, parsed) for obj in cert["witnesses"]]
    table = _StepTable(env, registry, fuel)
    for index, judgment in enumerate(judgments):
        try:
            check_trace(env, judgment.witness, judgment, registry, table)
        except OlamError as err:
            raise type(err)(
                err.code,
                f"witness {index} (outcome {judgment.target}): {err.message}",
                err.span,
            ) from err
    width = None
    if cert["mode"] == "frequency":
        _require(judgments != [], "no witnesses")
        width = _frequency_shape(judgments[0].witness, t)
        _require(width is not None, "malformed frequency evidence")
        for index, judgment in enumerate(judgments):
            _require(
                _frequency_shape(judgment.witness, t) == width,
                f"witness {index} is not a width-{width} frequency table",
            )

    spec = TrustSpec(
        tuple(
            (
                _parse(row["outcome"], parsed),
                surface.parse_rational_text(row["target"]),
            )
            for row in cert["threshold_checks"]
        ),
        surface.parse_rational_text(cert["epsilon"]),
    )
    report = trust_check(env, t, spec, registry, fuel, width)
    claims = [
        {k: w[k] for k in ("source", "target", "probability")}
        for w in cert["witnesses"]
    ]
    for field, value in _verdict_fields(t, report, {}).items():
        written = claims if field == "witnesses" else cert.get(field)
        _require(
            json.dumps(written, sort_keys=True)
            == json.dumps(value, sort_keys=True),
            f"certificate field {field!r} differs from the recomputed one",
        )
    return report
