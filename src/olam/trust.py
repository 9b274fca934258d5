"""Trust verdicts: derived distributions against declared targets.

A program is trusted at tolerance epsilon when every positively weighted
target outcome is hit within epsilon, mass on outcomes outside the target
stays below epsilon, and the derived distribution is total.  The verdict
ships as a certificate carrying the evidence for every outcome, and a
certificate can be replayed from scratch against the program it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import surface
from .checker import Environment, infer_type
from .errors import TrustError
from .oracles import OracleRegistry
from .printer import show, term_key
from .reducer import find_redexes
from .syntax import (
    DEFAULT_FUEL,
    Fuel,
    MergeTerm,
    Rational,
    Term,
    TraceTerm,
    alpha_eq,
    pair_spine,
)
from .traces import (
    Distribution,
    MapstoJudgment,
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
    "judgment_to_json",
    "judgment_from_json",
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
    totality_ok: bool
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
    (strictly); mass on unlisted outcomes must stay below epsilon.
    """
    subject_type = infer_type(env, t, registry)
    listed = _validate_spec(env, spec, subject_type, registry)
    oracle = forced_oracle_form(t)
    if freq_width is not None and oracle is not None:
        if registry is None:
            raise TrustError(
                "MissingRegistry", "oracle frequency needs a registry"
            )
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
    extra_mass = sum((prob for _, prob in extra), Fraction(0))
    total = dist.total()
    totality_ok = total == 1
    trusted = (
        all(row.passed for row in rows)
        and extra_mass < spec.epsilon
        and totality_ok
    )
    return TrustReport(
        verdict="trusted" if trusted else "untrusted",
        rows=tuple(rows),
        extra=extra,
        extra_mass=extra_mass,
        total=total,
        totality_ok=totality_ok,
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


def _show(term: Term, shown: dict[Term, str]) -> str:
    """The text of term, printed on its first visit to shown."""
    text = shown.get(term)
    if text is None:
        text = shown[term] = show(term)
    return text


def _witness_to_json(witness: Term, shown: dict[Term, str]) -> dict:
    match witness:
        case TraceTerm(steps, prob):
            return {
                "kind": "steps",
                "terms": [_show(s, shown) for s in steps],
                "probability": None if prob is None else str(prob),
            }
        case MergeTerm(source, branches, target, prob):
            return {
                "kind": "merge",
                "source": _show(source, shown),
                "branches": [[_show(s, shown) for s in br] for br in branches],
                "target": _show(target, shown),
                "probability": None if prob is None else str(prob),
            }
    raise TrustError(
        "CertificateMismatch",
        f"{type(witness).__name__} cannot appear in a certificate",
    )


def _witness_from_json(obj: dict, parsed: dict[str, Term]) -> Term:
    prob_text = obj.get("probability")
    prob = None if prob_text is None else surface.parse_rational_text(prob_text)
    kind = obj.get("kind")
    if kind == "steps":
        steps = tuple(_parse(s, parsed) for s in obj["terms"])
        return TraceTerm(steps, prob)
    if kind == "merge":
        return MergeTerm(
            _parse(obj["source"], parsed),
            tuple(
                tuple(_parse(s, parsed) for s in br) for br in obj["branches"]
            ),
            _parse(obj["target"], parsed),
            prob,
        )
    raise TrustError("CertificateMismatch", f"unknown witness kind {kind!r}")


def judgment_to_json(
    judgment: MapstoJudgment, shown: dict[Term, str] | None = None
) -> dict:
    """A judgment as certificate JSON; judgments printed through one
    shown dict print each distinct term once."""
    if shown is None:
        shown = {}
    return {
        "source": _show(judgment.source, shown),
        "target": _show(judgment.target, shown),
        "probability": str(judgment.prob),
        "witness": _witness_to_json(judgment.witness, shown),
    }


def judgment_from_json(
    obj: dict, parsed: dict[str, Term] | None = None
) -> MapstoJudgment:
    """A judgment read from certificate JSON; judgments read through one
    parsed dict parse each distinct text once."""
    if parsed is None:
        parsed = {}
    return MapstoJudgment(
        _parse(obj["source"], parsed),
        _parse(obj["target"], parsed),
        surface.parse_rational_text(obj["probability"]),
        _witness_from_json(obj["witness"], parsed),
    )


def build_certificate(env: Environment, t: Term, report: TrustReport) -> dict:
    """Self-contained record of a trust verdict: the program, its derived
    distribution, all evidence, and every threshold comparison.  Each
    distinct term is printed once."""
    shown: dict[Term, str] = {}
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
        "witnesses": [judgment_to_json(j, shown) for j in report.judgments],
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

    Every witness is rechecked and witness masses must add up to the
    claimed distribution.  The distribution is then derived once, by the
    same trust_check that recomputes the threshold checks and the
    verdict, and all of it is compared with the certificate.  Any
    disagreement raises instead of returning.

    Witnesses share prefixes, so the replay parses each distinct text
    once and checks each distinct step once; every witness is still
    checked against its own claim.
    """
    _require(cert.get("schema") == 1, f"schema {cert.get('schema')!r}")
    parsed: dict[str, Term] = {}
    t = _parse(cert["program"], parsed)
    epsilon = surface.parse_rational_text(cert["epsilon"])
    mode = cert.get("mode")
    _require(mode in ("enumerate", "frequency"), f"mode {mode!r}")
    _require(cert.get("seedless") is True, "certificate is not seedless")

    claimed = Distribution()
    for term_text, prob_text in cert["distribution"]:
        claimed.add(
            _parse(term_text, parsed), surface.parse_rational_text(prob_text)
        )

    judgments = [judgment_from_json(obj, parsed) for obj in cert["witnesses"]]
    table = _StepTable(env, registry)
    by_target: dict[str, Fraction] = {}
    for judgment in judgments:
        check_trace(env, judgment.witness, judgment, registry, table)
        key = term_key(judgment.target)
        by_target[key] = by_target.get(key, Fraction(0)) + judgment.prob
    _require(
        by_target == claimed.as_key_map(),
        "witness masses do not add up to the claimed distribution",
    )
    _require(judgments != [], "no witnesses")
    if mode == "enumerate":
        _require(
            all(alpha_eq(j.source, t) for j in judgments),
            "witnesses do not start at the program",
        )
        width = None
    else:
        first = judgments[0].witness
        _require(
            isinstance(first, TraceTerm) and len(first.steps) == 2,
            "malformed frequency evidence",
        )
        width = len(pair_spine(first.steps[0]))

    rows = cert["threshold_checks"]
    spec = TrustSpec(
        tuple(
            (
                _parse(row["outcome"], parsed),
                surface.parse_rational_text(row["target"]),
            )
            for row in rows
        ),
        epsilon,
    )
    report = trust_check(env, t, spec, registry, fuel, width)
    _require(
        report.mode == mode,
        f"recomputed mode {report.mode}, certificate says {mode}",
    )
    _require(
        report.distribution == claimed,
        "re-derived distribution differs from the claimed one",
    )
    for row, recomputed in zip(rows, report.rows):
        outcome = recomputed.outcome
        _require(
            recomputed.derived == surface.parse_rational_text(row["derived"]),
            f"derived mass for {outcome} differs",
        )
        _require(
            recomputed.deviation
            == surface.parse_rational_text(row["deviation"]),
            f"deviation for {outcome} differs",
        )
        _require(
            recomputed.passed == row["passed"], f"check for {outcome} differs"
        )
    _require(
        report.verdict == cert.get("verdict"),
        f"recomputed verdict {report.verdict}, "
        f"certificate says {cert.get('verdict')!r}",
    )
    _require(
        str(report.total) == cert.get("totality"),
        "recomputed totality differs",
    )
    return report
