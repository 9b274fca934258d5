"""Evidence for probabilistic evaluation: traces, merges, distributions.

A trace lists the terms of one reduction path; a merge bundles several
paths from one source to one target and sums their probabilities.  This
module rechecks such evidence step by step against the reduction rules,
derives the judgment a piece of evidence supports, enumerates the exact
output distribution of a term, and reads off an oracle's frequency over
a width-n simultaneous call.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .checker import Environment, infer_type
from .errors import TraceError
from .oracles import OracleRegistry
from .printer import term_key
from .reducer import (
    RULE_KIND,
    StepOutcome,
    deterministic_strategy,
    find_redexes,
    step,
)
from .syntax import (
    DEFAULT_FUEL,
    Force,
    Fuel,
    MergeTerm,
    OracleCall,
    OracleRef,
    Rational,
    StepLabel,
    Term,
    TraceTerm,
    TypeCon,
    alpha_eq,
    decompose_oracle_context,
    make_tuple,
    pair_spine,
    subnode_at,
    tuple_components,
)

__all__ = [
    "TraceQuadruple",
    "MapstoJudgment",
    "Distribution",
    "produced_sequence",
    "forced_oracle_form",
    "not_equiv_nd",
    "check_trace",
    "derive_judgment",
    "enumerate_paths",
    "enumerate_distribution",
    "oracle_frequency",
]


@dataclass(frozen=True, slots=True)
class TraceQuadruple:
    """One rechecked reduction step: terms, probability, rule label, and
    the path of the redex it fired (None where nobody recorded it)."""

    before: Term
    after: Term
    prob: Rational
    label: str
    path: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
class MapstoJudgment:
    """source evaluates to target with this probability, per the witness."""

    source: Term
    target: Term
    prob: Rational
    witness: Term


class Distribution:
    """Exact outcome probabilities, keyed by canonical printed form.

    Only positive masses are stored; items come back sorted by key so
    output is reproducible.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[Term, Fraction]] = {}

    def add(self, term: Term, prob: Rational) -> None:
        if prob != 0:
            self._add_keyed(term_key(term), term, prob)

    def _add_keyed(self, key: str, term: Term, prob: Rational) -> None:
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = (term, Fraction(prob))
        else:
            self._entries[key] = (entry[0], entry[1] + prob)

    def prob_of(self, term: Term) -> Fraction:
        entry = self._entries.get(term_key(term))
        return entry[1] if entry is not None else Fraction(0)

    def items(self) -> list[tuple[Term, Fraction]]:
        return [self._entries[key] for key in sorted(self._entries)]

    def support(self) -> list[Term]:
        return [rep for rep, _ in self.items()]

    def total(self) -> Fraction:
        return sum((p for _, p in self.items()), Fraction(0))

    def as_key_map(self) -> dict[str, Fraction]:
        return {key: prob for key, (_, prob) in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, term: Term) -> bool:
        return term_key(term) in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.as_key_map() == other.as_key_map()

    def __repr__(self) -> str:
        inside = ", ".join(f"{rep} -> {p}" for rep, p in self.items())
        return f"Distribution({inside})"


def produced_sequence(
    steps: Sequence[StepOutcome], initial: Term
) -> tuple[Term, ...]:
    """Term sequence of a run: the start term, then each step's result."""
    return (initial,) + tuple(outcome.term for outcome in steps)


def not_equiv_nd(
    path1: Sequence[TraceQuadruple], path2: Sequence[TraceQuadruple]
) -> bool:
    """Whether two step sequences resolve the same first divergence point
    to opposite branches.

    Requires oracle-free paths with the same start; the first differing
    steps must share a before-term and take the two sides of one choice,
    with complementary probabilities.
    """
    if any(q.label == "oracle" for q in (*path1, *path2)):
        return False
    if not path1 or not path2:
        return False
    if not alpha_eq(path1[0].before, path2[0].before):
        return False
    for q1, q2 in zip(path1, path2):
        if (
            alpha_eq(q1.before, q2.before)
            and alpha_eq(q1.after, q2.after)
            and q1.prob == q2.prob
            and q1.label == q2.label
        ):
            continue
        r1, r2 = (q1.prob, q1.label), (q2.prob, q2.label)
        return alpha_eq(q1.before, q2.before) and (
            _sides_of_one_choice(r1, r2) or _sides_of_one_choice(r2, r1)
        )
    return False


def _sides_of_one_choice(
    left: tuple[Rational, str], right: tuple[Rational, str]
) -> bool:
    """Whether two (probability, label) readings take the left and the
    right side of one choice, with complementary probabilities."""
    return left[1] == "left" and right[1] == "right" and left[0] + right[0] == 1


# ------------------------------------------------------- step candidates


def _step_candidates(
    u: Term, v: Term, registry: OracleRegistry | None
) -> list[tuple[Fraction, str]]:
    """All (probability, label) readings of u stepping to v in one move."""
    found: list[tuple[Fraction, str]] = []
    for redex in find_redexes(u):
        if redex.kind == "oracle" and registry is None:
            continue
        for outcome in step(u, redex, registry):
            if outcome.prob == 0:
                continue
            entry = (Fraction(outcome.prob), outcome.label)
            if entry not in found and alpha_eq(outcome.term, v):
                found.append(entry)
    if found:
        return found
    _diagnose_failed_step(u, v, registry)
    raise TraceError(
        "RuleMismatch", f"no rule steps {u} to {v}"
    )


def _labelled_step(
    u: Term, v: Term, label: StepLabel, registry: OracleRegistry | None
) -> Fraction:
    """The probability of u stepping to v by the labelled redex and rule.

    The label is checked, not trusted: its redex must be one of u's, and
    firing that redex alone must take the labelled side to v.
    """
    path, rule = label
    kind = RULE_KIND.get(rule)
    redex = next(
        (r for r in find_redexes(u) if r.path == path and r.kind == kind),
        None,
    )
    if redex is None:
        raise TraceError(
            "LabelMismatch", f"no {rule} redex at position {list(path)} of {u}"
        )
    if kind == "oracle" and registry is None:
        raise TraceError(
            "MissingRegistry",
            f"cannot replay oracle {redex.oracle} without a registry",
        )
    for outcome in step(u, redex, registry):
        if (
            outcome.label == rule
            and outcome.prob != 0
            and alpha_eq(outcome.term, v)
        ):
            return Fraction(outcome.prob)
    _diagnose_failed_step(u, v, registry)
    raise TraceError(
        "RuleMismatch",
        f"the {rule} step at position {list(path)} does not take {u} to {v}",
    )


def _diagnose_failed_step(
    u: Term, v: Term, registry: OracleRegistry | None
) -> None:
    """Tell apart a wrong oracle answer from a step that fits no rule: if
    v has the shape of an oracle rewrite of u, the replay must have
    disagreed on the filled values."""
    for redex in find_redexes(u):
        name = redex.oracle
        if name is None:
            continue
        context, occurrences = decompose_oracle_context(u, name)
        try:
            guess = {
                occ.index: subnode_at(v, occ.path) for occ in occurrences
            }
        except (IndexError, TypeError):
            continue
        if not alpha_eq(context.fill(guess), v):
            continue
        if registry is None:
            raise TraceError(
                "MissingRegistry",
                f"cannot replay oracle {name} without a registry",
            )
        raise TraceError(
            "OracleReplayMismatch",
            f"oracle {name} does not produce {v} from {u}",
        )


class _StepTable:
    """What one run of checks has already established, keyed by the terms
    it was computed for: the readings of a step, the probability of a
    labelled step, the oracle rewrite of a term, and the type of a term.

    Bound to one environment and registry, and to the fuel that searches
    over unlabelled merges spend.  Node dataclasses are frozen, so
    structurally equal terms share an entry.  Only successes are kept: a
    check that fails raises again each time it is asked.
    """

    __slots__ = (
        "env", "registry", "fuel", "_readings", "_labelled", "_rewrites",
        "_types",
    )

    def __init__(
        self,
        env: Environment,
        registry: OracleRegistry | None,
        fuel: Fuel | int = DEFAULT_FUEL,
    ) -> None:
        self.env = env
        self.registry = registry
        self.fuel = fuel if isinstance(fuel, Fuel) else Fuel(fuel)
        self._readings: dict[
            tuple[Term, Term], list[tuple[Fraction, str]]
        ] = {}
        self._labelled: dict[tuple[Term, Term, StepLabel], Fraction] = {}
        self._rewrites: dict[tuple[str, Term], Term] = {}
        self._types: dict[Term, TypeCon] = {}

    def readings(self, u: Term, v: Term) -> list[tuple[Fraction, str]]:
        """All (probability, label) readings of u stepping to v."""
        found = self._readings.get((u, v))
        if found is None:
            found = _step_candidates(u, v, self.registry)
            self._readings[(u, v)] = found
        return found

    def labelled(self, u: Term, v: Term, label: StepLabel) -> Fraction:
        """The probability of u stepping to v by the labelled step."""
        key = (u, v, label)
        found = self._labelled.get(key)
        if found is None:
            found = _labelled_step(u, v, label, self.registry)
            self._labelled[key] = found
        return found

    def rewrite(self, name: str, t: Term) -> Term:
        """t after the registry's simultaneous rewrite of oracle name."""
        result = self._rewrites.get((name, t))
        if result is None:
            assert self.registry is not None
            _, result = self.registry.rewrite(name, t)
            self._rewrites[(name, t)] = result
        return result

    def type_of(self, t: Term) -> TypeCon:
        found = self._types.get(t)
        if found is None:
            found = self._types[t] = infer_type(self.env, t, self.registry)
        return found


def _chain_probs(seq: Sequence[Term], table: _StepTable) -> set[Fraction]:
    """Achievable probabilities of the step chain through seq."""
    probs = {Fraction(1)}
    for u, v in zip(seq, seq[1:]):
        step_probs = {p for p, _ in table.readings(u, v)}
        probs = {acc * p for acc in probs for p in step_probs}
    return probs


def _labelled_sum(
    sequences: list[tuple[Term, ...]],
    labels: Sequence[Sequence[StepLabel]],
    table: _StepTable,
) -> Fraction:
    """The probability of labelled evidence, one term sequence for a trace
    and one per branch for a merge, in one pass over their trie.

    The live branches at a trie node stand on one term.  Either they all
    take one labelled step, or they split into exactly two groups that take
    the two sides of the choice at one path; a leaf holds one branch.  A
    merge of several branches takes no oracle step.  The probability is
    the sum over leaves of the product of the steps above them.
    """
    if len(labels) != len(sequences) or any(
        len(ls) != len(s) - 1 for ls, s in zip(labels, sequences)
    ):
        raise TraceError(
            "LabelMismatch", "labels do not match the steps of the evidence"
        )
    if len(sequences) > 1 and any(
        rule == "oracle" for branch in labels for _, rule in branch
    ):
        raise TraceError(
            "NDConditionViolated", "merged paths take an oracle step"
        )
    total = Fraction(0)
    stack = [(tuple(range(len(sequences))), 0, Fraction(1))]
    while stack:
        live, depth, prob = stack.pop()
        if len(live) == 1:
            seq, branch = sequences[live[0]], labels[live[0]]
            for i in range(depth, len(seq) - 1):
                prob *= table.labelled(seq[i], seq[i + 1], branch[i])
            total += prob
            continue
        groups: dict[StepLabel, list[int]] = {}
        for b in live:
            if depth + 1 == len(sequences[b]):
                raise TraceError(
                    "NDConditionViolated",
                    "merged paths reach the target before they diverge",
                )
            groups.setdefault(labels[b][depth], []).append(b)
        readings = []
        for label, members in groups.items():
            u, v = sequences[members[0]][depth : depth + 2]
            p = table.labelled(u, v, label)
            for b in members[1:]:
                # one redex takes one term to one term, so a branch that
                # differs here fails its own step check
                w = sequences[b][depth + 1]
                if not alpha_eq(w, v):
                    table.labelled(u, w, label)
            readings.append((p, label))
            stack.append((tuple(members), depth + 1, prob * p))
        if len(readings) == 1:
            continue
        if len(readings) == 2:
            (p, (path1, rule1)), (q, (path2, rule2)) = readings
            r1, r2 = (p, rule1), (q, rule2)
            if path1 == path2 and (
                _sides_of_one_choice(r1, r2) or _sides_of_one_choice(r2, r1)
            ):
                continue
        raise TraceError(
            "NDConditionViolated",
            "merged paths do not split at the two sides of one choice",
        )
    return total


def _merge_sums(
    sequences: list[tuple[Term, ...]], table: _StepTable
) -> set[Fraction]:
    """Achievable total probabilities of a merge: over every assignment of
    labeled readings to branches under which all branch pairs resolve a
    common divergence point oppositely.  Each search state spends one unit
    of the table's fuel.

    Readings that satisfy the pairwise condition necessarily organize
    into a binary tree: at each step the live branches either all carry
    the same labeled step, or split into a left and a right side, each
    on one next term, that take the two sides of one choice; every leaf
    holds exactly one branch.  Branches with alpha-equal term sequences
    are interchangeable, so the search counts the live branches of each
    such class instead of naming them, and a merge of k identical
    branches is searched in time polynomial in k.
    """
    classes: dict[tuple[str, ...], list[tuple[Term, ...]]] = {}
    for seq in sequences:
        classes.setdefault(tuple(term_key(t) for t in seq), []).append(seq)
    keys = list(classes)
    allow_oracle = len(sequences) == 1
    # live branches agree on every term up to the next one, so the
    # readings of any one of them are the readings of all of them
    readings = [
        [
            {c for c in table.readings(u, v)
             if allow_oracle or c[1] != "oracle"}
            for u, v in zip(seq, seq[1:])
        ]
        for seq, *_ in classes.values()
    ]
    memo: dict[tuple[tuple[int, ...], int], frozenset[Fraction]] = {}

    def solve(live: tuple[int, ...], depth: int) -> frozenset[Fraction]:
        """Sums of per-branch products over steps from depth on, over
        every completion in which the live branches pairwise diverge;
        live[c] counts the live branches of class c."""
        cached = memo.get((live, depth))
        if cached is not None:
            return cached
        table.fuel.spend()
        members = [c for c, n in enumerate(live) if n]
        out: set[Fraction] = set()
        if sum(live) == 1:
            out.add(Fraction(1))
            for step_readings in readings[members[0]][depth:]:
                out = {a * p for a in out for p, _ in step_readings}
        # two branches whose readings never diverge are indistinguishable,
        # so live branches must still have steps ahead
        elif all(depth < len(readings[c]) for c in members):
            sides: dict[str, list[int]] = {}
            for c in members:
                sides.setdefault(keys[c][depth + 1], []).append(c)
            if len(sides) == 1:
                for p in {p for p, _ in readings[members[0]][depth]}:
                    out.update(p * s for s in solve(live, depth + 1))
            for left, right in _splits(live, list(sides.values())):
                lc = next(c for c in members if left[c])
                rc = next(c for c in members if right[c])
                for r in readings[lc][depth]:
                    for s in readings[rc][depth]:
                        if not _sides_of_one_choice(r, s):
                            continue
                        for a in solve(left, depth + 1):
                            out.update(
                                r[0] * a + s[0] * b
                                for b in solve(right, depth + 1)
                            )
        memo[(live, depth)] = frozenset(out)
        return memo[(live, depth)]

    sums = set(solve(tuple(len(c) for c in classes.values()), 0))
    if not sums:
        raise TraceError(
            "NDConditionViolated",
            "no labeling makes the merged paths pairwise distinguishable",
        )
    return sums


def _splits(
    live: tuple[int, ...], sides: list[list[int]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split of the live counts into a nonzero left and right part,
    each on one next term; sides groups the live classes by next term."""
    if len(sides) == 1:
        for left in product(*(range(n + 1) for n in live)):
            if any(left) and left != live:
                yield left, tuple(n - m for n, m in zip(live, left))
    elif len(sides) == 2:
        a, b = (
            tuple(n if c in side else 0 for c, n in enumerate(live))
            for side in sides
        )
        yield a, b
        yield b, a


# ------------------------------------------------------ judgment checking


def forced_oracle_form(t: Term) -> tuple[str, Term | None] | None:
    """Oracle name and argument when t is a forced oracle, else None."""
    match t:
        case Force(OracleRef(o)):
            return o, None
        case Force(OracleCall(o, arg)):
            return o, arg
    return None


def _frequency_shape(witness: Term, source: Term) -> int | None:
    """Width n when the witness reads as a frequency table for source."""
    if forced_oracle_form(source) is None:
        return None
    if not isinstance(witness, TraceTerm) or len(witness.steps) != 2:
        return None
    spine = pair_spine(witness.steps[0])
    if all(alpha_eq(part, source) for part in spine):
        return len(spine)
    return None


def _check_frequency(
    witness: TraceTerm,
    source: Term,
    target: Term,
    prob: Rational | None,
    width: int,
    table: _StepTable,
) -> Rational:
    """Replay a frequency table and return the target's share of it, which
    a claimed prob must equal."""
    if table.registry is None:
        raise TraceError(
            "MissingRegistry", "cannot replay an oracle without a registry"
        )
    if witness.prob is not None and witness.prob != 1:
        raise TraceError(
            "ProbabilityMismatch",
            f"frequency evidence carries probability {witness.prob}, not 1",
        )
    forced = forced_oracle_form(source)
    assert forced is not None
    name, _ = forced
    result = table.rewrite(name, witness.steps[0])
    if not alpha_eq(result, witness.steps[1]):
        raise TraceError(
            "OracleReplayMismatch",
            f"oracle {name} does not produce {witness.steps[1]}",
        )
    hits = sum(
        1
        for part in tuple_components(result, width)
        if alpha_eq(part, target)
    )
    if prob is not None and prob != Fraction(hits, width):
        raise TraceError(
            "ProbabilityMismatch",
            f"target occurs {hits} of {width} times, "
            f"not with probability {prob}",
        )
    return Fraction(hits, width)


def _endpoints(witness: Term) -> tuple[Term, Term, Rational | None]:
    """Source, target and annotated probability of a trace or merge."""
    match witness:
        case TraceTerm(steps, annotated):
            if not steps:
                raise TraceError("BrokenChain", "empty trace")
            return steps[0], steps[-1], annotated
        case MergeTerm(source, _, target, annotated):
            return source, target, annotated
    raise TraceError(
        "NotEvidence", f"{type(witness).__name__} is not evidence"
    )


def _achievable(witness: Term, table: _StepTable) -> set[Fraction]:
    """Every probability a trace or merge supports: the one its labels
    give, or else every one over the labeled readings of its steps."""
    if isinstance(witness, TraceTerm):
        if witness.labels is None:
            return _chain_probs(witness.steps, table)
        return {_labelled_sum([witness.steps], [witness.labels], table)}
    assert isinstance(witness, MergeTerm)
    if not witness.branches:
        raise TraceError("IncompleteWitnesses", "merge carries no paths")
    sequences = [
        (witness.source, *b, witness.target) for b in witness.branches
    ]
    if witness.labels is None:
        return _merge_sums(sequences, table)
    return {_labelled_sum(sequences, witness.labels, table)}


def _check_evidence(
    table: _StepTable,
    witness: Term,
    source: Term,
    target: Term,
    prob: Rational | None,
) -> Rational:
    """Recheck evidence that source reaches target and return the
    probability it establishes: the claimed prob, or with prob None the
    annotation or else the only probability the evidence supports."""
    source_type = table.type_of(source)
    target_type = table.type_of(target)
    if not alpha_eq(source_type, target_type):
        raise TraceError(
            "ClaimTypeMismatch",
            f"source has type {source_type} but target has {target_type}",
        )
    if prob is not None and not 0 <= prob <= 1:
        raise TraceError(
            "ProbabilityMismatch", f"probability {prob} outside [0, 1]"
        )
    width = _frequency_shape(witness, source)
    if width is not None:
        assert isinstance(witness, TraceTerm)
        return _check_frequency(witness, source, target, prob, width, table)
    first, last, annotated = _endpoints(witness)
    if annotated is not None:
        if prob is not None and annotated != prob:
            raise TraceError(
                "ProbabilityMismatch",
                f"evidence annotated {annotated}, claim says {prob}",
            )
        prob = annotated
    if not alpha_eq(first, source):
        raise TraceError("BrokenChain", "evidence does not start at the source")
    if not alpha_eq(last, target):
        raise TraceError("BrokenChain", "evidence does not end at the target")
    achievable = _achievable(witness, table)
    if prob is None:
        if len(achievable) != 1:
            raise TraceError(
                "ProbabilityMismatch",
                "unannotated evidence with ambiguous probability; "
                f"candidates {sorted(achievable)}",
            )
        (prob,) = achievable
    elif prob not in achievable:
        raise TraceError(
            "ProbabilityMismatch",
            f"no valid labeling of the evidence has probability {prob}",
        )
    return prob


def check_trace(
    env: Environment,
    witness: Term,
    claim: MapstoJudgment,
    registry: OracleRegistry | None = None,
    table: _StepTable | None = None,
) -> bool:
    """Recheck a claimed judgment against its evidence.

    Every consecutive pair of a trace must be one reduction step; a merge
    additionally needs a labeling of its branches under which every pair
    resolves its first divergence point to opposite sides of one choice.
    The claimed probability must be achievable, and for a frequency table
    it must equal the target's share of the rewritten tuple.  Labelled
    evidence is checked step by step and a labelled merge in one pass;
    evidence without labels is searched, spending the table's fuel
    (DEFAULT_FUEL in a fresh table).  Checks of several witnesses may
    share one table made for the same env and registry, so a step they
    have in common is checked once.
    """
    if table is None:
        table = _StepTable(env, registry)
    elif table.env is not env or table.registry is not registry:
        raise ValueError("table was made for another env or registry")
    _check_evidence(table, witness, claim.source, claim.target, claim.prob)
    return True


def derive_judgment(
    env: Environment,
    term: Term,
    registry: OracleRegistry | None = None,
) -> MapstoJudgment:
    """The judgment a free-standing piece of evidence supports.

    An unannotated witness must determine its probability uniquely.
    """
    source, target, _ = _endpoints(term)
    prob = _check_evidence(_StepTable(env, registry), term, source, target, None)
    return MapstoJudgment(source, target, prob, term)


# ----------------------------------------------------- exact enumeration


def enumerate_paths(
    env: Environment,
    t: Term,
    registry: OracleRegistry | None = None,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> list[tuple[Fraction, tuple[TraceQuadruple, ...]]]:
    """Every reduction path of t under the deterministic strategy.

    Branches at each choice, drops zero-probability sides, and spends
    fuel per explored edge.  Paths come back in left-first order, each
    with its probability and its fully labeled steps.
    """
    infer_type(env, t, registry)
    budget = fuel if isinstance(fuel, Fuel) else Fuel(fuel)
    finished: list[tuple[Fraction, tuple[TraceQuadruple, ...]]] = []
    stack: list[tuple[Term, Fraction, tuple[TraceQuadruple, ...]]] = [
        (t, Fraction(1), ())
    ]
    while stack:
        current, prob, quads = stack.pop()
        redex = deterministic_strategy(current)
        if redex is None:
            finished.append((prob, quads))
            continue
        outcomes = step(current, redex, registry)
        live = [o for o in outcomes if o.prob > 0]
        for outcome in reversed(live):
            budget.spend()
            stack.append(
                (
                    outcome.term,
                    prob * outcome.prob,
                    quads
                    + (
                        TraceQuadruple(
                            current,
                            outcome.term,
                            outcome.prob,
                            outcome.label,
                            redex.path,
                        ),
                    ),
                )
            )
    return finished


def enumerate_distribution(
    env: Environment,
    t: Term,
    registry: OracleRegistry | None = None,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> tuple[Distribution, list[MapstoJudgment]]:
    """Exact output distribution of t with evidence for every outcome.

    Paths free of oracle steps that share an outcome are merged into one
    judgment; each path through an oracle step keeps its own trace.  The
    evidence carries each step's label, the redex path and rule it took.
    """
    dist = Distribution()
    # outcome key -> ((prob, term sequence, labels), saw an oracle) per path
    groups: dict[str, list[tuple[tuple, bool]]] = {}
    for prob, quads in enumerate_paths(env, t, registry, fuel):
        seq = (t,) + tuple(q.after for q in quads)
        labels = tuple((q.path, q.label) for q in quads)
        saw_oracle = any(q.label == "oracle" for q in quads)
        key = term_key(seq[-1])
        dist._add_keyed(key, seq[-1], prob)
        groups.setdefault(key, []).append(((prob, seq, labels), saw_oracle))

    judgments: list[MapstoJudgment] = []
    for key in sorted(groups):
        plain = [path for path, saw in groups[key] if not saw]
        # a lone plain path and each path through an oracle: one trace each
        singles = [path for path, saw in groups[key] if saw]
        if len(plain) == 1:
            singles.insert(0, plain[0])
        elif plain:
            total = sum((p for p, _, _ in plain), Fraction(0))
            target = plain[0][1][-1]
            judgments.append(
                MapstoJudgment(
                    t,
                    target,
                    total,
                    MergeTerm(
                        t,
                        tuple(s[1:-1] for _, s, _ in plain),
                        target,
                        total,
                        tuple(labels for _, _, labels in plain),
                    ),
                )
            )
        for prob, seq, labels in singles:
            judgments.append(
                MapstoJudgment(
                    t, seq[-1], prob, TraceTerm(seq, prob, labels)
                )
            )
    return dist, judgments


def oracle_frequency(
    env: Environment,
    oracle: str,
    arg: Term | None,
    width: int,
    registry: OracleRegistry,
) -> tuple[Distribution, list[MapstoJudgment]]:
    """Observed distribution of one oracle over a width-n batched call.

    Builds the n-tuple of the forced call, fires the single simultaneous
    rewrite, and reads each outcome's share of the components.  Every
    judgment reuses the two-line tuple trace as its evidence.
    """
    if width < 1:
        raise TraceError("FrequencyWidth", f"width {width} must be positive")
    if arg is None:
        subject: Term = Force(OracleRef(oracle))
    else:
        subject = Force(OracleCall(oracle, arg))
    infer_type(env, subject, registry)
    tup = make_tuple([subject] * width)
    _, result = registry.rewrite(oracle, tup)
    dist = Distribution()
    for part in tuple_components(result, width):
        dist.add(part, Fraction(1, width))
    witness = TraceTerm((tup, result), Fraction(1))
    judgments = [
        MapstoJudgment(subject, rep, prob, witness)
        for rep, prob in dist.items()
    ]
    return dist, judgments
