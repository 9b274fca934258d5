"""Kind and type assignment.

The algorithm is syntax-directed: every inferred type is returned in
constructor normal form, which conversion builds in one bottom-up pass, so
conversion at comparison sites is plain alpha-equality of normal forms.  Binders that would shadow an existing name
are renamed on entry, keeping environments duplicate-free.
"""
from __future__ import annotations

from . import conversion
from .errors import CheckError, OlamError
from .oracles import OracleRegistry
from .syntax import (
    App,
    Bottom,
    Choice,
    ChoiceType,
    Conj,
    Efq,
    Forall,
    Force,
    Kind,
    KindPi,
    Lam,
    MergeTerm,
    Node,
    OpaqueType,
    OracleCall,
    OracleRef,
    Pair,
    Proj,
    Record,
    Star,
    Term,
    TraceTerm,
    TypeAbs,
    TypeApp,
    TypeCon,
    TypeName,
    Var,
    alpha_eq,
    free_term_vars,
    fresh_name,
    record,
    substitute,
    substitute_all,
    subnodes,
)


class Environment:
    """Ordered signature: type atoms with kinds, term names with types, in
    one namespace.  Stored classifiers are normalized; names are unique."""

    def __init__(self):
        self._names: dict[str, Kind | TypeCon] = {}

    def _with(self, name: str, classifier: Kind | TypeCon) -> "Environment":
        if name in self._names:
            raise CheckError("DuplicateName", f"{name!r} already bound")
        env = Environment()
        env._names = {**self._names, name: classifier}
        return env

    def with_con(self, name: str, kind: Kind) -> "Environment":
        return self._with(name, kind)

    def with_term(self, name: str, con: TypeCon) -> "Environment":
        return self._with(name, con)

    def lookup_con(self, name: str) -> Kind:
        kind = self._names.get(name)
        if not isinstance(kind, Kind):
            raise CheckError("UnboundConVar", f"unbound type atom {name!r}")
        return kind

    def lookup_term(self, name: str) -> TypeCon:
        con = self._names.get(name)
        if con is None or isinstance(con, Kind):
            raise CheckError("UnboundVar", f"unbound name {name!r}")
        return con

    def term_names(self) -> list[str]:
        return [n for n, c in self._names.items() if not isinstance(c, Kind)]

    def all_names(self) -> frozenset[str]:
        return frozenset(self._names)


def _enter_binder(
    env: Environment,
    var: str,
    var_type: TypeCon,
    body: Node,
    registry: OracleRegistry | None,
) -> tuple[Environment, str, TypeCon, Node]:
    """Check that var_type is a value type and bind var to its normal form,
    renaming the binder if the name is taken."""
    _check_star(env, var_type, registry)
    var_type = conversion.normalize_con(var_type)
    if var in env._names:
        var2 = fresh_name(var, env.all_names() | free_term_vars(body))
        body = substitute(body, var, Var(var2))
        var = var2
    return env.with_term(var, var_type), var, var_type, body


def check_kind(
    env: Environment, kind: Kind, registry: OracleRegistry | None = None
) -> None:
    """Well-formedness of a kind."""
    match kind:
        case Star():
            return
        case KindPi(x, a, body):
            env2, _, _, body = _enter_binder(env, x, a, body, registry)
            check_kind(env2, body, registry)  # type: ignore[arg-type]
        case _:
            raise CheckError("IllFormedKind", f"not a kind: {kind!r}")


def _check_star(
    env: Environment, con: TypeCon, registry: OracleRegistry | None = None
) -> None:
    kind = infer_kind(env, con, registry)
    if not isinstance(kind, Star):
        raise CheckError(
            "KindMismatch", f"{con} has kind {kind}, expected a value type"
        )


def infer_kind(
    env: Environment, con: TypeCon, registry: OracleRegistry | None = None
) -> Kind:
    """The unique kind of a constructor, normalized."""
    match con:
        case TypeName(n):
            return env.lookup_con(n)
        case Bottom():
            return Star()
        case TypeAbs(x, a, body):
            env2, x, a_norm, body = _enter_binder(env, x, a, body, registry)
            return KindPi(x, a_norm, infer_kind(env2, body, registry))  # type: ignore[arg-type]
        case TypeApp(fun, arg):
            fun_kind = infer_kind(env, fun, registry)
            if not isinstance(fun_kind, KindPi):
                raise CheckError(
                    "NotAKindFunction",
                    f"{fun} of kind {fun_kind} applied to a term",
                )
            check_type(env, arg, fun_kind.var_type, registry)
            return conversion.normalize_kind(
                substitute(fun_kind.body, fun_kind.var, arg)  # type: ignore[arg-type]
            )
        case Forall(x, a, body):
            env2, _, _, body = _enter_binder(env, x, a, body, registry)
            _check_star(env2, body, registry)  # type: ignore[arg-type]
            return Star()
        case ChoiceType(body) | OpaqueType(body):
            _check_star(env, body, registry)
            return Star()
        case Conj(left, right):
            _check_star(env, left, registry)
            _check_star(env, right, registry)
            return Star()
    raise CheckError("IllFormedKind", f"not a constructor: {con!r}")


def infer_type(
    env: Environment, term: Term, registry: OracleRegistry | None = None
) -> TypeCon:
    """The type of a term, normalized."""
    match term:
        case Var(n):
            return env.lookup_term(n)
        case OracleRef(o):
            odef = _registry_lookup(registry, o)
            return conversion.normalize_con(odef.assoc_type)
        case OracleCall(o, arg):
            odef = _registry_lookup(registry, o)
            if odef.arity != 1:
                raise CheckError(
                    "NotAFunction", f"nullary oracle {o} applied to an argument"
                )
            var, dom, result = odef.dependent_type()
            check_type(env, arg, dom, registry)
            return conversion.normalize_con(
                OpaqueType(substitute(result, var, arg))  # type: ignore[arg-type]
            )
        case Lam(x, a, body):
            env2, x, a_norm, body = _enter_binder(env, x, a, body, registry)
            return Forall(x, a_norm, infer_type(env2, body, registry))  # type: ignore[arg-type]
        case App(fun, arg):
            fun_type = infer_type(env, fun, registry)
            if not isinstance(fun_type, Forall):
                raise CheckError(
                    "NotAFunction", f"{fun} of type {fun_type} applied"
                )
            check_type(env, arg, fun_type.var_type, registry)
            return conversion.normalize_con(
                substitute(fun_type.body, fun_type.var, arg)  # type: ignore[arg-type]
            )
        case Choice(left, p, right):
            if not 0 <= p <= 1:
                raise CheckError(
                    "ProbabilityOutOfRange", f"probability {p} outside [0, 1]"
                )
            left_type = infer_type(env, left, registry)
            right_type = infer_type(env, right, registry)
            if not alpha_eq(left_type, right_type):
                raise CheckError(
                    "BranchTypeMismatch",
                    f"branches typed {left_type} and {right_type}",
                )
            return ChoiceType(left_type)
        case Force(body):
            body_type = infer_type(env, body, registry)
            match body_type:
                case ChoiceType(inner) | OpaqueType(inner):
                    return inner
            raise CheckError(
                "NotAChoice",
                f"{body} of type {body_type} cannot be forced",
            )
        case Pair(left, right):
            return Conj(
                infer_type(env, left, registry), infer_type(env, right, registry)
            )
        case Proj(pair, index):
            pair_type = infer_type(env, pair, registry)
            if not isinstance(pair_type, Conj):
                raise CheckError(
                    "NotAPair", f"{pair} of type {pair_type} projected"
                )
            return pair_type.left if index == 0 else pair_type.right
        case Efq(body, target):
            body_type = infer_type(env, body, registry)
            if not isinstance(body_type, Bottom):
                raise CheckError(
                    "EfqOnNonBottom", f"{body} has type {body_type}"
                )
            _check_star(env, target, registry)
            target_norm = conversion.normalize_con(target)
            if any(type(n) is Forall for n in subnodes(target_norm)):
                raise CheckError(
                    "EfqTargetContainsForall",
                    f"target {target_norm} contains a quantifier",
                )
            return target_norm
        case TraceTerm() | MergeTerm():
            raise CheckError(
                "EvidenceTerm",
                "recorded computations are judged by the trace engine, "
                "not typed as values",
            )
    raise CheckError("IllFormedTerm", f"not a term: {term!r}")


def _registry_lookup(registry: OracleRegistry | None, name: str):
    if registry is None:
        raise CheckError("UnknownOracle", f"no oracle named {name}")
    return registry.lookup(name)


def check_type(
    env: Environment,
    term: Term,
    expected: TypeCon,
    registry: OracleRegistry | None = None,
) -> None:
    found = infer_type(env, term, registry)
    expected_norm = conversion.normalize_con(expected)
    if not alpha_eq(found, expected_norm):
        raise CheckError(
            "TypeMismatch", f"expected {expected_norm}, found {found}"
        )


# ------------------------------------------------------------ whole programs


@record("env registry def_types main_term main_type")
class CheckedProgram(Record):
    """A checked source file: its signature, oracles, per-definition types,
    and the fully inlined main term."""


def check_program(source, oracle_defs) -> CheckedProgram:
    """Check declarations in order, validate oracles against the signature,
    then check each definition and inline into it the earlier definitions
    it mentions; main comes out closed over the signature.  An error with
    no place of its own is placed at column 1 of its item's line."""
    env = Environment()
    def_types: dict[str, TypeCon] = {}
    inlined: dict[str, Term] = {}
    rank: dict[str, int] = {}
    # each inlined body's free names; the first definition's are read when
    # a later one mentions it
    free: dict[str, frozenset[str]] = {}

    def free_of(name: str) -> frozenset[str]:
        if name not in free:
            free[name] = free_term_vars(inlined[name])
        return free[name]

    main_term: Term | None = None
    line: int | None = None
    try:
        for decl in source.atoms:
            line = decl.line
            if isinstance(decl.classifier, Kind):
                check_kind(env, decl.classifier)
                env = env.with_con(
                    decl.name, conversion.normalize_kind(decl.classifier)
                )
            else:
                _check_star(env, decl.classifier)
                env = env.with_term(
                    decl.name, conversion.normalize_con(decl.classifier)
                )
        # an oracle error is placed at its line of the oracle file
        line = None
        registry = OracleRegistry.load(env, oracle_defs)
        for name, line in source.oracle_uses:
            registry.lookup(name)

        def_env = env
        for d in source.definitions:
            line = d.line
            inferred = infer_type(def_env, d.term, registry)
            if d.ascription is not None:
                _check_star(def_env, d.ascription, registry)
                expected = conversion.normalize_con(d.ascription)
                if not alpha_eq(inferred, expected):
                    raise CheckError(
                        "TypeMismatch",
                        f"{d.name}: declared {expected}, inferred {inferred}",
                    )
            def_types[d.name] = inferred
            def_env = def_env.with_term(d.name, inferred)
            body = d.term
            if inlined:
                # An inlined body mentions no definition: every earlier one
                # was substituted into it, and no definition is named like
                # an atom.  So substituting a name that is not free is the
                # identity (no binder is renamed in it), and substituting,
                # in definition order, only the earlier definitions free in
                # d.term gives the same term as substituting all of them.
                # For the same reason no replacement has another mentioned
                # name free, so one walk substitutes them all, and the
                # inlined body's free names are the written body's, minus
                # the mentioned names, plus their replacements'.
                written = free_term_vars(body)
                mentioned = sorted(written & inlined.keys(), key=rank.__getitem__)
                if mentioned:
                    frees = {n: free_of(n) for n in mentioned}
                    free[d.name] = written.difference(mentioned).union(*frees.values())
                    mapping = {n: inlined[n] for n in mentioned}
                    body = substitute_all(body, mapping, frees)  # type: ignore[assignment]
                else:
                    free[d.name] = written
            rank[d.name] = len(rank)
            inlined[d.name] = body
            if d.name == "main":
                main_term = body
    except OlamError as err:
        if err.span is None and line is not None:
            err.span = (line, 1)
        raise
    if main_term is None:
        raise CheckError("MissingMain", "program has no main definition")
    main_type = def_types["main"]
    return CheckedProgram(env, registry, def_types, main_term, main_type)
