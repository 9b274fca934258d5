"""Oracle definitions and their evaluation.

An oracle answers for every extracted redex of a term at once; the redexes
become the hole variables of one context, and the step substitutes each
answer for its hole (HoleContext.fill).  Its behaviour is a total rule
list: each rule guards on the hole index, an index residue, the argument
(unary oracles), or the printed fingerprint of the surrounding context; the
mandatory final default makes the function total.  Outputs are closed over
the program signature and oracle-free, and every output is checked against
its type obligation: at load where the obligation is fixed, and when
produced where it depends on the argument.
"""
from __future__ import annotations

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

    def value_type(self) -> TypeCon:
        if self.arity != 0:
            raise OracleError(
                "ArityMismatch", f"oracle {self.name} has arity 1"
            )
        assert isinstance(self.assoc_type, OpaqueType)
        return self.assoc_type.body

    def dependent_type(self) -> tuple[str, TypeCon, TypeCon]:
        """(argument variable, argument type, result value type)."""
        if self.arity != 1:
            raise OracleError(
                "ArityMismatch", f"oracle {self.name} has arity 0"
            )
        assert isinstance(self.assoc_type, Forall)
        body = self.assoc_type.body
        assert isinstance(body, OpaqueType)
        return self.assoc_type.var, self.assoc_type.var_type, body.body


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


def _check_output_shape(odef: OracleDef, output: Term, signature: frozenset[str]) -> None:
    if oracle_names(output):
        raise OracleError(
            "OutputContainsOracle",
            f"oracle {odef.name} output {output} mentions an oracle constant",
        )
    stray = free_term_vars(output) - signature
    if stray:
        raise OracleError(
            "OutputNotClosed",
            f"oracle {odef.name} output {output} has free names {sorted(stray)}",
        )


class OracleRegistry:
    """Validated, immutable-after-load collection of oracles, bound to the
    program signature its outputs are checked against."""

    def __init__(self, env):
        self._env = env
        self._defs: dict[str, OracleDef] = {}

    @classmethod
    def load(cls, env, defs) -> "OracleRegistry":
        registry = cls(env)
        for odef in defs:
            registry._add(odef)
        return registry

    def _add(self, odef: OracleDef) -> None:
        if odef.name in self._defs:
            raise OracleError(
                "DuplicateName",
                f"oracle {odef.name} defined twice",
                None if odef.line is None else (odef.line, 1),
            )
        validate_oracle(odef, self._env)
        self._defs[odef.name] = odef

    def names(self) -> list[str]:
        return sorted(self._defs)

    def lookup(self, name: str) -> OracleDef:
        odef = self._defs.get(name)
        if odef is None:
            raise OracleError("UnknownOracle", f"no oracle named {name}")
        return odef

    def eval(
        self, name: str, ctx: HoleContext, index: int, arg: Term | None = None
    ) -> Term:
        """The answer for one hole.  Load checked every rule output's shape
        and, at arity 0, its type, so only an arity-1 output's type at the
        actual argument is left to check."""
        odef = self.lookup(name)
        output = _select_output(odef, ctx, index, arg)
        if odef.arity == 1:
            _check_output_type(odef, output, arg, self._env)
        return output

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


def _select_output(
    odef: OracleDef, ctx: HoleContext, index: int, arg: Term | None
) -> Term:
    """Output of the first rule that matches hole `index`."""
    if not 1 <= index <= ctx.count:
        raise OracleError(
            "HoleIndexOutOfRange", f"hole {index} of {ctx.count}"
        )
    if (arg is None) != (odef.arity == 0):
        raise OracleError(
            "ArityMismatch",
            f"oracle {odef.name} has arity {odef.arity}",
        )
    for rule in odef.rules:
        if guard_matches(rule.guard, ctx, index, arg):
            return rule.output
    # unreachable: the default rule always matches
    raise OracleError("NoMatchingRule", f"oracle {odef.name} not total")


def _check_output_type(
    odef: OracleDef, output: Term, arg: Term | None, env
) -> None:
    """Check an output against its type obligation at the argument."""
    from . import checker

    if odef.arity == 0:
        expected = odef.value_type()
    else:
        var, _, result = odef.dependent_type()
        expected = substitute(result, var, arg)  # type: ignore[assignment]
    try:
        checker.check_type(env, output, expected)
    except OlamError as exc:
        raise OracleError(
            "OutputIllTyped",
            f"oracle {odef.name} output {output} fails its obligation "
            f"{expected}: {exc}",
        ) from exc


def validate_oracle(odef: OracleDef, env) -> None:
    """Static validation: associated type shape and kind, then rule by rule
    outputs closed and oracle-free, and every statically checkable output
    well-typed.  An error with no place of its own is placed at column 1
    of the failing rule's line, or of the header line if no rule failed."""
    line = odef.line
    try:
        _check_assoc_type(odef, env)
        signature = frozenset(env.term_names())
        for rule in odef.rules:
            line = rule.line
            _check_rule(odef, rule, signature, env)
    except OlamError as err:
        if err.span is None and line is not None:
            err.span = (line, 1)
        raise


def _check_assoc_type(odef: OracleDef, env) -> None:
    """The associated type's shape for the arity, its kind, and the final
    default rule."""
    from . import checker

    if odef.arity == 0:
        if not isinstance(odef.assoc_type, OpaqueType):
            raise OracleError(
                "OracleTypeInvalid",
                f"arity-0 oracle {odef.name} needs an opaque computation type",
            )
    elif odef.arity == 1:
        if not (
            isinstance(odef.assoc_type, Forall)
            and isinstance(odef.assoc_type.body, OpaqueType)
        ):
            raise OracleError(
                "OracleTypeInvalid",
                f"arity-1 oracle {odef.name} needs a dependent opaque type",
            )
    else:
        raise OracleError(
            "OracleTypeInvalid", f"oracle {odef.name} arity must be 0 or 1"
        )
    try:
        kind = checker.infer_kind(env, odef.assoc_type)
    except OlamError as exc:
        raise OracleError(
            "OracleTypeInvalid",
            f"oracle {odef.name} type {odef.assoc_type}: {exc}",
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


def _check_rule(
    odef: OracleDef, rule: OracleRule, signature: frozenset[str], env
) -> None:
    """A rule's output and argument pattern closed and oracle-free, and its
    output well-typed where the type is known at load: always at arity 0,
    and at arity 1 for an argument guard, whose pattern is checked too."""
    from . import checker

    _check_output_shape(odef, rule.output, signature)
    pattern = rule.guard.pattern if isinstance(rule.guard, GuardArg) else None
    if pattern is not None:
        _check_output_shape(odef, pattern, signature)
    if odef.arity == 0:
        _check_output_type(odef, rule.output, None, env)
    elif pattern is not None:
        _, dom, _ = odef.dependent_type()
        try:
            checker.check_type(env, pattern, dom)
        except OlamError as exc:
            raise OracleError(
                "OutputIllTyped",
                f"oracle {odef.name} rule for {pattern}: {exc}",
            ) from exc
        _check_output_type(odef, rule.output, pattern, env)
