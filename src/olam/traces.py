"""Evidence for probabilistic evaluation: traces, merges, distributions.

A trace lists the terms of one reduction path; a merge bundles several
paths from one source to one target and sums their probabilities.  This
module rechecks such evidence step by step against the reduction rules,
derives the judgment a piece of evidence supports, enumerates the exact
output distribution of a term, and reads off an oracle's frequency over
a width-n simultaneous call.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import product

from .checker import Environment, infer_type
from .errors import OlamError, TraceError
from .oracles import OracleRegistry
from .printer import show, term_key
from .reducer import (
    RULE_KIND,
    Pending,
    TraceQuadruple,
    find_redexes,
    next_redex,
    redex_at,
    step,
)

# unused here; bench/tracing.py times the redex search at
# traces.deterministic_strategy
from .reducer import deterministic_strategy  # noqa: F401
from .syntax import (
    DEFAULT_FUEL,
    Force,
    Fuel,
    MergeTerm,
    OracleCall,
    OracleRef,
    Rational,
    Record,
    StepLabel,
    Term,
    TraceTerm,
    Var,
    alpha_eq,
    children,
    decompose_oracle_context,
    forced_oracle_form,
    make_tuple,
    pair_spine,
    record,
    tuple_components,
)

__all__ = [
    "TraceQuadruple",
    "MapstoJudgment",
    "Distribution",
    "forced_oracle_form",
    "not_equiv_nd",
    "check_trace",
    "derive_judgment",
    "enumerate_paths",
    "enumerate_distribution",
    "StepGraph",
    "step_graph",
    "oracle_frequency",
]


@record("source target prob witness")
class MapstoJudgment(Record):
    """source evaluates to target with this probability, per the witness."""


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

    def items(self) -> list[tuple[Term, Fraction]]:
        return [self._entries[key] for key in sorted(self._entries)]

    def total(self) -> Fraction:
        return sum((p for _, p in self._entries.values()), Fraction(0))

    def as_key_map(self) -> dict[str, Fraction]:
        return {key: prob for key, (_, prob) in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.as_key_map() == other.as_key_map()

    def __repr__(self) -> str:
        inside = ", ".join(f"{rep} -> {p}" for rep, p in self.items())
        return f"Distribution({inside})"


def not_equiv_nd(
    path1: Sequence[TraceQuadruple], path2: Sequence[TraceQuadruple]
) -> bool:
    """Whether two step sequences resolve the same first divergence point
    to opposite branches.

    Requires oracle-free paths with the same start; the first differing
    steps must share a before-term and take the two sides of the choice at
    one redex path, with complementary probabilities.
    """
    if any(q.label == "oracle" for q in (*path1, *path2)):
        return False
    if not path1 or not path2:
        return False
    if not alpha_eq(path1[0].before, path2[0].before):
        return False
    for q1, q2 in zip(path1, path2):
        r1, r2 = (q1.prob, (q1.path, q1.label)), (q2.prob, (q2.path, q2.label))
        if r1 == r2 and alpha_eq(q1.before, q2.before) and alpha_eq(
            q1.after, q2.after
        ):
            continue
        return alpha_eq(q1.before, q2.before) and (
            _sides_of_one_choice(r1, r2) or _sides_of_one_choice(r2, r1)
        )
    return False


# A reading of one step: its probability, and the redex path and rule
# that take the step.
_Reading = tuple[Fraction, StepLabel]


def _sides_of_one_choice(left: _Reading, right: _Reading) -> bool:
    """Whether two readings take the left and the right side of the choice
    at one redex path, with complementary probabilities."""
    (p, (path1, rule1)), (q, (path2, rule2)) = left, right
    return (
        rule1 == "left" and rule2 == "right" and path1 == path2 and p + q == 1
    )


# ------------------------------------------------------------ step readings


def _readings(
    u: Term, v: Term, label: StepLabel | None, registry: OracleRegistry | None
) -> list[_Reading]:
    """Every reading of u stepping to v in one move, or with a label the
    labelled one alone.

    A label is checked, not trusted: its redex must be one of u's, and
    firing that redex alone must take the labelled side to v.
    """
    if label is None:
        redexes = find_redexes(u)
    else:
        path, rule = label
        redex = redex_at(u, path)
        if redex is None or redex.kind != RULE_KIND.get(rule):
            raise TraceError(
                "LabelMismatch",
                f"no {rule} redex at position {list(path)} of {u}",
            )
        redexes = [redex]
    found: list[_Reading] = []
    for redex in redexes:
        for outcome in step(u, redex, registry):
            reading = (Fraction(outcome.prob), (redex.path, outcome.label))
            if (
                label in (None, reading[1])
                and reading not in found
                and alpha_eq(outcome.after, v)
            ):
                found.append(reading)
    if found:
        return found
    if label is None:
        _diagnose_failed_step(u, v)
        raise TraceError("RuleMismatch", f"no rule steps {u} to {v}")
    raise TraceError(
        "OracleReplayMismatch" if rule == "oracle" else "RuleMismatch",
        f"the {rule} step at position {list(path)} does not take {u} to {v}",
    )


def _diagnose_failed_step(u: Term, v: Term) -> None:
    """Tell apart a wrong oracle answer from a step that fits no rule: if
    v has the shape of an oracle rewrite of u, the replay must have
    disagreed on the filled values."""
    for name in [r.oracle for r in find_redexes(u) if r.oracle is not None]:
        context, _ = decompose_oracle_context(u, name)
        # v's subterm at each hole, in preorder; a subtree the rewrite
        # returned as itself holds no hole
        guess: dict[int, Term] = {}
        stack = [(u, context.skeleton, v)]
        while stack:
            old, node, new = stack.pop()
            if node is old:
                continue
            if type(node) is Var:
                guess[len(guess) + 1] = new  # type: ignore[assignment]
            else:
                kids = zip(children(old), children(node), children(new))
                stack += reversed(list(kids))
        if len(guess) != context.count or not alpha_eq(context.fill(guess), v):
            continue
        raise TraceError(
            "OracleReplayMismatch",
            f"oracle {name} does not produce {v} from {u}",
        )


# ------------------------------------------------------------------ search

# Live branches: (class, count) pairs, classes in increasing order.
_Live = tuple[tuple[int, int], ...]


def _sums(
    sequences: Sequence[tuple[Term, ...]],
    labels: Sequence[Sequence[StepLabel]] | None,
    registry: OracleRegistry | None,
    fuel: Fuel,
) -> set[Fraction]:
    """Every probability a trace (one term sequence) or a merge (one per
    branch) supports, over the readings of its steps or along its labels.

    Readings under which every two branches diverge form a binary tree: at
    each step the live branches either all take one reading, or split
    into two nonempty sides that take the left and the right of the
    choice at one path; a leaf holds one branch.  A merge of several
    branches takes no oracle step.  Branches with alpha-equal terms and
    equal labels are interchangeable, so the search counts the live
    branches of each such class instead of naming them: a class with
    only one of the two sides' readings goes to that side, one with both
    may divide its count.  A labelled step has one reading, so labelled
    evidence has one way through.  The search spends one unit of fuel per
    state, per split and per product or sum it forms, loops along the
    steps where no split is possible and recurses only at splits.
    """
    if labels is None:
        labels = [None] * len(sequences)
    elif len(labels) != len(sequences) or any(
        len(ls) != len(s) - 1 for ls, s in zip(labels, sequences)
    ):
        raise TraceError(
            "LabelMismatch", "labels do not match the steps of the evidence"
        )
    # classes of branches with equal labels and alpha-equal terms; the
    # branches of replayed or enumerated evidence share their term objects
    by_labels: dict[object, list[list[int]]] = {}
    for b, (seq, ls) in enumerate(zip(sequences, labels)):
        group = by_labels.setdefault(ls, [])
        for members in group:
            first = sequences[members[0]]
            if len(first) == len(seq) and all(map(alpha_eq, first, seq)):
                members.append(b)
                break
        else:
            group.append([b])
    classes = [members for group in by_labels.values() for members in group]
    allow_oracle = len(sequences) == 1
    # the readings of a step, keyed by the identity of its terms, which
    # branches share along common prefixes; sequences holds every term
    # until the call returns, so no id is reused meanwhile
    steps: dict[tuple[int, int, StepLabel | None], list[_Reading]] = {}
    readings: list[list[list[_Reading]]] = []
    for b, *_ in classes:
        seq, ls = sequences[b], labels[b]
        rows = []
        for i in range(len(seq) - 1):
            label = None if ls is None else ls[i]
            key = (id(seq[i]), id(seq[i + 1]), label)
            row = steps.get(key)
            if row is None:
                try:
                    row = _readings(seq[i], seq[i + 1], label, registry)
                except OlamError as err:
                    place = "" if allow_oracle else f"branch {b}, "
                    raise type(err)(
                        err.code, f"{place}step {i}: {err.message}", err.span
                    ) from err
                steps[key] = row
            if not allow_oracle:
                row = [r for r in row if r[1][1] != "oracle"]
            rows.append(row)
        readings.append(rows)
    memo: dict[tuple[_Live, int], set[Fraction]] = {}

    def solve(live: _Live, depth: int) -> set[Fraction]:
        """Sums over the steps from depth on of the live branches' products,
        over every reading under which they pairwise diverge."""
        levels = []
        out = memo.get((live, depth))
        while out is None:
            fuel.spend()
            if len(live) == 1 and live[0][1] == 1:
                out = {Fraction(1)}
                for row in readings[live[0][0]][depth:]:
                    fuel.spend(len(out) * len(row))
                    out = {a * p for a in out for p, _ in row}
                memo[(live, depth)] = out
                break
            if any(depth == len(readings[c]) for c, _ in live):
                # branches that reach the target together never diverge
                out = set()
                break
            rows = [readings[c][depth] for c, _ in live]
            union: list[_Reading] = []
            for row in rows:
                union.extend(r for r in row if r not in union)
            sums: set[Fraction] = set()
            for r, s in product(union, union):
                if not _sides_of_one_choice(r, s):
                    continue
                for left, right in _splits(live, rows, r, s):
                    lo, ro = solve(left, depth + 1), solve(right, depth + 1)
                    # one unit for the split, one for each sum it forms
                    fuel.spend(1 + len(lo) * len(ro))
                    sums |= {r[0] * a + s[0] * b for a in lo for b in ro}
            shared = {r[0] for r in union if all(r in row for row in rows)}
            levels.append((depth, shared, sums))
            depth += 1
            out = memo.get((live, depth)) if shared else set()
        for d, shared, sums in reversed(levels):
            fuel.spend(len(shared) * len(out))
            out = {p * a for p in shared for a in out} | sums
            memo[(live, d)] = out
        return out

    found = solve(tuple(enumerate(map(len, classes))), 0)
    if not found:
        raise TraceError(
            "NDConditionViolated",
            "no reading makes the merged paths pairwise distinguishable",
        )
    return found


def _splits(
    live: _Live, rows: list[list[_Reading]], left: _Reading, right: _Reading
) -> Iterator[tuple[_Live, _Live]]:
    """Every division of the live branches into two nonempty sides taking
    the readings left and right; rows holds each live class's readings."""
    ways = []
    for (c, n), row in zip(live, rows):
        to_left, to_right = left in row, right in row
        if not (to_left or to_right):
            return
        # how many of the class go left: all, none, or any number
        ways.append(range(0 if to_right else n, (n if to_left else 0) + 1))
    for ks in product(*ways):
        lefts = tuple((c, k) for (c, _), k in zip(live, ks) if k)
        rights = tuple((c, n - k) for (c, n), k in zip(live, ks) if k < n)
        if lefts and rights:
            yield lefts, rights


# ------------------------------------------------------ judgment checking


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
    target: Term,
    prob: Rational | None,
    width: int,
    registry: OracleRegistry | None,
) -> Rational:
    """Check a frequency table's one step, the oracle step at the tuple's
    first call site, and return the target's share of the rewritten tuple,
    which a claimed prob must equal."""
    if witness.prob is not None and witness.prob != 1:
        raise TraceError(
            "ProbabilityMismatch",
            f"frequency evidence carries probability {witness.prob}, not 1",
        )
    calls, result = witness.steps
    _readings(calls, result, (() if width == 1 else (0,), "oracle"), registry)
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


def _achievable(
    witness: Term, registry: OracleRegistry | None, fuel: Fuel
) -> set[Fraction]:
    """Every probability a trace or merge supports: the one its labels
    give, or else every one over the readings of its steps."""
    if isinstance(witness, TraceTerm):
        labels = None if witness.labels is None else [witness.labels]
        return _sums([witness.steps], labels, registry, fuel)
    assert isinstance(witness, MergeTerm)
    if not witness.branches:
        raise TraceError("IncompleteWitnesses", "merge carries no paths")
    sequences = [
        (witness.source, *b, witness.target) for b in witness.branches
    ]
    return _sums(sequences, witness.labels, registry, fuel)


def _check_evidence(
    env: Environment,
    registry: OracleRegistry | None,
    witness: Term,
    source: Term,
    target: Term,
    prob: Rational | None,
) -> Rational:
    """Recheck evidence that source reaches target and return the
    probability it establishes: the claimed prob, or with prob None the
    annotation or else the only probability the evidence supports.  The
    search over readings spends DEFAULT_FUEL."""
    source_type = infer_type(env, source, registry)
    target_type = infer_type(env, target, registry)
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
        return _check_frequency(witness, target, prob, width, registry)
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
    achievable = _achievable(witness, registry, Fuel(DEFAULT_FUEL))
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
) -> bool:
    """Recheck a claimed judgment against its evidence.

    Every consecutive pair of a trace must be one reduction step; a merge
    additionally needs a reading of its branches under which every pair
    resolves its first divergence point to opposite sides of the choice at
    one redex path.  The claimed probability must be achievable, and for a
    frequency table it must equal the target's share of the rewritten
    tuple.  Labelled and unlabelled evidence go through one search, which
    spends DEFAULT_FUEL; a labelled step has one reading, so labelled
    evidence has one way through.
    """
    _check_evidence(
        env, registry, witness, claim.source, claim.target, claim.prob
    )
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
    prob = _check_evidence(env, registry, term, source, target, None)
    return MapstoJudgment(source, target, prob, term)


# ----------------------------------------------------- exact enumeration


def enumerate_paths(
    env: Environment,
    t: Term,
    registry: OracleRegistry | None = None,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> list[tuple[Fraction, tuple[TraceQuadruple, ...]]]:
    """Every reduction path of t under the deterministic strategy.

    t must be typed under env, as check_program's main_term is: the paths
    of an ill-typed term need not end, and this function does not type
    it.  Branches at each choice and spends fuel per explored edge.  Paths
    come back in left-first order, each with its probability and the
    steps step took along it.
    """
    budget = fuel if isinstance(fuel, Fuel) else Fuel(fuel)
    finished: list[tuple[Fraction, tuple[TraceQuadruple, ...]]] = []
    # each path keeps its steps so far and resumes its own redex search
    # from its last step and the positions after it; the first of a
    # step's outcomes extends the steps and the positions in place, and
    # the others each take a copy before it does
    stack: list[tuple[Fraction, list[TraceQuadruple], Pending]]
    stack = [(Fraction(1), [], [(t, ())])]
    while stack:
        prob, steps, pending = stack.pop()
        last = steps[-1] if steps else None
        redex = next_redex(pending, last)
        if redex is None:
            finished.append((prob, tuple(steps)))
            continue
        outcomes = step(t if last is None else last.after, redex, registry)
        for outcome in reversed(outcomes):
            budget.spend()
            if outcome is outcomes[0]:
                steps.append(outcome)
                branch = steps, pending
            else:
                branch = [*steps, outcome], list(pending)
            stack.append((prob * outcome.prob, *branch))
    return finished


@record("terms texts edges leaves")
class StepGraph(Record):
    """The reduction paths of a term under the deterministic strategy,
    with one node per distinct term.

    Node 0 is the term itself, and the nodes come in left-first
    first-visit order.  texts[i] is node i's printed form, which is also
    its key.  An edge (i, label, prob, j) is one positive-probability
    outcome of node i's redex.  The edges are grouped by node, and each
    node's edges are in the order of its outcomes.  leaves lists each
    normal form that is reached, in node order, with its mass.
    """


def step_graph(
    t: Term,
    registry: OracleRegistry | None = None,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> tuple[Distribution, StepGraph]:
    """Exact output distribution of t, with its step graph as evidence.

    t must be typed, as for enumerate_paths, and the graph folds the same
    paths in the same stack loop.  A term's future depends only on the
    term, because oracle call sites and their contexts are part of it.
    So each distinct printed term is numbered and stepped once, when the
    walk first reaches it, and a path that reaches a numbered term stops
    there.  Each edge spends one unit of fuel.  Masses flow forward over
    the reverse of the order in which nodes close, which is topological.
    A reduction that comes back to a term on its own path, numbered but
    not closed, would never end, so it spends all the fuel.
    """
    budget = fuel if isinstance(fuel, Fuel) else Fuel(fuel)
    terms: list[Term] = []
    # each node's number by its text, and its edges as (target text,
    # label, prob) in outcome order; the nodes closed, in closing order
    index: dict[str, int] = {}
    out: list[list[tuple[str, StepLabel, Fraction]]] = []
    closed: dict[int, None] = {}
    # a node to visit, with its text, pending positions and the step that
    # reached it, as in enumerate_paths; a number closes that node
    stack: list = [(t, show(t), [(t, ())], None)]
    while stack:
        item = stack.pop()
        if type(item) is int:
            closed[item] = None
            continue
        term, text, pending, last = item
        if text in index:
            continue
        node = index[text] = len(terms)
        terms.append(term)
        out.append([])
        stack.append(node)
        redex = next_redex(pending, last)
        if redex is None:
            continue
        outcomes = step(term, redex, registry)
        for outcome in reversed(outcomes):
            budget.spend()
            text = show(outcome.after)
            if text in index and index[text] not in closed:
                budget.spend(budget.left)
                budget.spend()
            out[node].append((text, (outcome.path, outcome.label), outcome.prob))
            own = pending if outcome is outcomes[0] else list(pending)
            stack.append((outcome.after, text, own, outcome))
        out[node].reverse()
    mass = [Fraction(0)] * len(terms)
    mass[0] = Fraction(1)
    for node in reversed(closed):
        for text, _, prob in out[node]:
            mass[index[text]] += mass[node] * prob
    leaves = [node for node, edges in enumerate(out) if not edges]
    dist = Distribution()
    for leaf in leaves:
        dist._add_keyed(term_key(terms[leaf]), terms[leaf], mass[leaf])
    graph = StepGraph(
        tuple(terms),
        tuple(index),
        tuple(
            (node, label, prob, index[text])
            for node, edges in enumerate(out)
            for text, label, prob in edges
        ),
        tuple((leaf, mass[leaf]) for leaf in leaves),
    )
    return dist, graph


def enumerate_distribution(
    env: Environment,
    t: Term,
    registry: OracleRegistry | None = None,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> tuple[Distribution, list[MapstoJudgment]]:
    """Exact output distribution of t with evidence for every outcome.

    t must be typed under env, as for enumerate_paths.  Paths free of
    oracle steps that share an outcome are merged into one judgment; each
    path through an oracle step keeps its own trace.  The evidence carries
    each step's label, the redex path and rule it took.
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
    judgment reuses the two-line tuple trace as its evidence.  The forced
    call must be typed under env, as check_program's main_term is: this
    function does not type it.
    """
    if width < 1:
        raise TraceError("FrequencyWidth", f"width {width} must be positive")
    if arg is None:
        subject: Term = Force(OracleRef(oracle))
    else:
        subject = Force(OracleCall(oracle, arg))
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
