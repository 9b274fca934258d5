"""Oracle definitions and their evaluation.

An oracle answers for every extracted redex of a term at once; the redexes
become the hole variables of one context, and the step substitutes each
answer for its hole (HoleContext.fill).  Its behaviour is a total rule
list: each rule guards on the hole index, an index residue, the argument
(unary oracles), or the printed fingerprint of the surrounding context; the
mandatory final default makes the function total.  Outputs are closed over
the program signature and oracle-free.  An oracle's type obligation is
worked out once, at load, and every output is checked against it: at load
where it is fixed or at an arg rule's pattern, else when produced.
"""
from __future__ import annotations

from . import conversion
from .errors import OlamError, OracleError
from .syntax import (
    Forall,
    HoleContext,
    OpaqueType,
    Record,
    Star,
    Term,
    TypeCon,
    alpha_eq,
    decompose_oracle_context,
    free_term_vars,
    oracle_names,
    record,
    substitute,
)


@record("indices")
class GuardIndexIn(Record):
    pass


@record("modulus residue")
class GuardIndexMod(Record):
    pass


@record("pattern")
class GuardArg(Record):
    pass


@record("fingerprint")
class GuardContext(Record):
    pass


@record("")
class GuardDefault(Record):
    pass


Guard = GuardIndexIn | GuardIndexMod | GuardArg | GuardContext | GuardDefault


@record("guard output line?~")
class OracleRule(Record):
    pass


@record("name arity assoc_type rules line?~")
class OracleDef(Record):
    """Oracle of arity 0 (computations of a value type) or arity 1 (value
    type depending on the argument)."""


@record("type var domain result")
class Obligation(Record):
    """An oracle's type obligation, worked out once at load from its
    normalised type: the argument's type (None at arity 0) and the value
    type every answer must have.  var is the argument's name where that
    type depends on it, and None where the obligation is fixed: at arity
    0, and at arity 1 when the name is not free in the normalised result."""

    def answer_type(self, arg: Term | None) -> TypeCon:
        """The value type an answer at the argument must have."""
        if self.var is None:
            return self.result
        return conversion.normalize_con(substitute(self.result, self.var, arg))


def guard_matches(
    guard: Guard, ctx: HoleContext, index: int, arg: Term | None
) -> bool:
    match guard:
        case GuardIndexIn(indices):
            return index in indices
        case GuardIndexMod(modulus, residue):
            return index % modulus == residue
        case GuardArg(pattern):
            return arg is not None and alpha_eq(arg, pattern)
        case GuardContext(fingerprint):
            return ctx.fingerprint == fingerprint
        case GuardDefault():
            return True
    raise TypeError(f"unknown guard {guard!r}")


def _check_closed(odef: OracleDef, what: str, term: Term, signature) -> None:
    """A rule's output or pattern (what) is oracle-free and closed."""
    if oracle_names(term):
        raise OracleError(
            "OutputContainsOracle",
            f"oracle {odef.name} {what} {term} mentions an oracle constant",
        )
    stray = free_term_vars(term) - signature
    if stray:
        raise OracleError(
            "OutputNotClosed",
            f"oracle {odef.name} {what} {term} has free names {sorted(stray)}",
        )


class OracleRegistry:
    """Validated, immutable-after-load collection of oracles, each beside
    the obligation load worked out for it, bound to the program signature
    its outputs are checked against."""

    def __init__(self, env):
        self._env = env
        self._entries: dict[str, tuple[OracleDef, Obligation]] = {}

    @classmethod
    def load(cls, env, defs) -> "OracleRegistry":
        registry = cls(env)
        for odef in defs:
            registry._add(odef)
        return registry

    def _add(self, odef: OracleDef) -> None:
        if odef.name in self._entries:
            raise OracleError(
                "DuplicateName",
                f"oracle {odef.name} defined twice",
                None if odef.line is None else (odef.line, 1),
            )
        self._entries[odef.name] = (odef, validate_oracle(odef, self._env))

    def names(self) -> list[str]:
        return sorted(self._entries)

    def _entry(self, name: str) -> tuple[OracleDef, Obligation]:
        entry = self._entries.get(name)
        if entry is None:
            raise OracleError("UnknownOracle", f"no oracle named {name}")
        return entry

    def lookup(self, name: str) -> OracleDef:
        return self._entry(name)[0]

    def obligation(self, name: str) -> Obligation:
        return self._entry(name)[1]

    def eval(
        self, name: str, ctx: HoleContext, index: int, arg: Term | None = None
    ) -> Term:
        """The answer for one hole.  Load typed every output of a fixed
        obligation, and an arg rule's at its pattern, which the argument is
        alpha-equal to; any other answer is typed here, at the argument."""
        odef, obligation = self._entry(name)
        rule = _select_rule(odef, ctx, index, arg)
        if obligation.var is not None and not isinstance(rule.guard, GuardArg):
            expected = obligation.answer_type(arg)
            _check_output_type(odef, rule.output, expected, self._env)
        return rule.output

    def rewrite(self, name: str, t: Term) -> tuple[HoleContext, Term]:
        """The simultaneous rewrite of every outermost forced occurrence of
        the oracle in t: each hole of the one decomposition is answered
        against the shared context, then the answers are substituted for
        the holes.  Returns the context beside the rewritten term."""
        context, args = decompose_oracle_context(t, name)
        contents = {
            i: self.eval(name, context, i, arg) for i, arg in enumerate(args, 1)
        }
        return context, context.fill(contents)


def _select_rule(
    odef: OracleDef, ctx: HoleContext, index: int, arg: Term | None
) -> OracleRule:
    """The first rule that matches hole `index`."""
    if not 1 <= index <= ctx.count:
        raise OracleError("HoleIndexOutOfRange", f"hole {index} of {ctx.count}")
    if (arg is None) != (odef.arity == 0):
        raise OracleError(
            "ArityMismatch", f"oracle {odef.name} has arity {odef.arity}"
        )
    for rule in odef.rules:
        if guard_matches(rule.guard, ctx, index, arg):
            return rule
    # unreachable: the default rule always matches
    raise OracleError("NoMatchingRule", f"oracle {odef.name} not total")


def _check_output_type(
    odef: OracleDef, output: Term, expected: TypeCon, env
) -> None:
    """Check an output against the value type its obligation asks of it."""
    from . import checker

    try:
        checker.check_type(env, output, expected)
    except OlamError as exc:
        raise OracleError(
            "OutputIllTyped",
            f"oracle {odef.name} output {output} fails its obligation "
            f"{expected}: {exc}",
        ) from exc


def validate_oracle(odef: OracleDef, env) -> Obligation:
    """Static validation, returning the oracle's obligation: the associated
    type's shape and kind, then rule by rule the output and any pattern
    closed and oracle-free, and every output whose type load knows
    well-typed.  An error with no place of its own is placed at column 1
    of the failing rule's line, or of the header line if no rule failed."""
    line = odef.line
    try:
        obligation = _obligation(odef, env)
        signature = frozenset(env.term_names())
        for rule in odef.rules:
            line = rule.line
            _check_rule(odef, obligation, rule, signature, env)
    except OlamError as err:
        if err.span is None and line is not None:
            err.span = (line, 1)
        raise
    return obligation


def _obligation(odef: OracleDef, env) -> Obligation:
    """The associated type's shape for the arity and its kind, the final
    default rule, then the obligation read off the normalised type."""
    from . import checker

    t = odef.assoc_type
    if odef.arity == 0 and not isinstance(t, OpaqueType):
        raise OracleError(
            "OracleTypeInvalid",
            f"arity-0 oracle {odef.name} needs an opaque computation type",
        )
    if odef.arity == 1 and not (
        isinstance(t, Forall) and isinstance(t.body, OpaqueType)
    ):
        raise OracleError(
            "OracleTypeInvalid",
            f"arity-1 oracle {odef.name} needs a dependent opaque type",
        )
    if odef.arity not in (0, 1):
        raise OracleError(
            "OracleTypeInvalid", f"oracle {odef.name} arity must be 0 or 1"
        )
    try:
        kind = checker.infer_kind(env, t)
    except OlamError as exc:
        raise OracleError(
            "OracleTypeInvalid", f"oracle {odef.name} type {t}: {exc}"
        ) from exc
    if not isinstance(kind, Star):
        raise OracleError(
            "OracleTypeInvalid",
            f"oracle {odef.name} type has kind {kind}, not a value type",
        )
    if not odef.rules or not isinstance(odef.rules[-1].guard, GuardDefault):
        raise OracleError(
            "NoDefaultRule", f"oracle {odef.name} lacks a final default rule"
        )
    norm = conversion.normalize_con(t)
    if odef.arity == 0:
        return Obligation(norm, None, None, norm.body)  # type: ignore[union-attr]
    result = norm.body.body  # type: ignore[union-attr]
    x = norm.var if norm.var in free_term_vars(result) else None  # type: ignore[union-attr]
    return Obligation(norm, x, norm.var_type, result)  # type: ignore[union-attr]


def _check_rule(
    odef: OracleDef, obligation: Obligation, rule: OracleRule, signature, env
) -> None:
    """A rule's output and pattern closed and oracle-free, the pattern of the
    argument's type, and the output typed if its type is known at load."""
    from . import checker

    _check_closed(odef, "output", rule.output, signature)
    pattern = rule.guard.pattern if isinstance(rule.guard, GuardArg) else None
    if pattern is not None:
        _check_closed(odef, "pattern", pattern, signature)
        try:
            if obligation.domain is not None:
                checker.check_type(env, pattern, obligation.domain)
        except OlamError as exc:
            raise OracleError(
                "OutputIllTyped", f"oracle {odef.name} rule for {pattern}: {exc}"
            ) from exc
    if obligation.var is None or pattern is not None:
        _check_output_type(odef, rule.output, obligation.answer_type(pattern), env)
