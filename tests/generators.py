"""Seeded construction of well-typed closed terms and well-kinded
constructors over a fixed test signature.

Every generator is a pure function of its seed, so failures replay
exactly.  Terms draw from two ground types, a dependent family, two
oracles, weighted choices, pairs, and lambda redexes.  connective_skeleton
reads the shape of a type that one-step reduction of its subject keeps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from olam import checker, surface
from olam.checker import Environment
from olam.oracles import OracleRegistry
from olam.syntax import (
    App,
    Bottom,
    ChoiceType,
    Choice,
    Conj,
    Forall,
    Force,
    KindPi,
    Lam,
    OpaqueType,
    OracleCall,
    OracleRef,
    Pair,
    Proj,
    Star,
    Term,
    TypeAbs,
    TypeApp,
    TypeCon,
    TypeName,
    Var,
)

SIGNATURE_SOURCE = """
atom A : *
atom B : *
atom a : A
atom b : A
atom q : B
atom g : A -> A
atom h : A -> B
atom P : pi x:A. *
atom u : forall x:A. P x

use c
use d

keep = a
"""

ORACLE_SOURCE = """
oracle c arity 0 type Sigma A
  rule index mod 3 = 1 -> a
  rule index mod 3 = 2 -> a
  default -> b

oracle d arity 1 type forall x:A. Sigma A
  rule arg = a -> b
  default -> a
"""

PROBS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(1, 2),
    Fraction(0),
    Fraction(1),
)

_cached: tuple[Environment, OracleRegistry] | None = None


def signature() -> tuple[Environment, OracleRegistry]:
    """Checked environment and oracle registry shared by all generators."""
    global _cached
    if _cached is None:
        program = surface.parse_program(SIGNATURE_SOURCE + "main = a\n")
        defs = surface.parse_oracle_file(ORACLE_SOURCE)
        checked = checker.check_program(program, defs)
        _cached = (checked.env, checked.registry)
    return _cached


def _var_of(scope: tuple[tuple[str, str], ...], ground: str) -> list[str]:
    return [name for name, ty in scope if ty == ground]


def _fresh(scope: tuple[tuple[str, str], ...]) -> str:
    return f"x{len(scope)}"


def gen_ground(
    rng: random.Random,
    ground: str,
    depth: int,
    scope: tuple[tuple[str, str], ...] = (),
) -> Term:
    """A term of ground type A or B, closed over the signature and scope."""
    in_scope = _var_of(scope, ground)
    if depth <= 0:
        leaves = ["a", "b"] if ground == "A" else ["q"]
        pool = leaves + in_scope
        return Var(rng.choice(pool))
    roll = rng.random()
    if roll < 0.10 and in_scope:
        return Var(rng.choice(in_scope))
    if roll < 0.22:
        fun = "g" if ground == "A" else "h"
        return App(Var(fun), gen_ground(rng, "A", depth - 1, scope))
    if roll < 0.40:
        prob = rng.choice(PROBS)
        return Force(
            Choice(
                gen_ground(rng, ground, depth - 1, scope),
                prob,
                gen_ground(rng, ground, depth - 1, scope),
            )
        )
    if roll < 0.52:
        other = "B" if ground == "A" else "A"
        if rng.random() < 0.5:
            pair = Pair(
                gen_ground(rng, ground, depth - 1, scope),
                gen_ground(rng, other, depth - 1, scope),
            )
            return Proj(pair, 0)
        pair = Pair(
            gen_ground(rng, other, depth - 1, scope),
            gen_ground(rng, ground, depth - 1, scope),
        )
        return Proj(pair, 1)
    if roll < 0.64:
        x = _fresh(scope)
        body = gen_ground(rng, ground, depth - 1, scope + ((x, "A"),))
        return App(
            Lam(x, TypeName("A"), body), gen_ground(rng, "A", depth - 1, scope)
        )
    if roll < 0.72 and ground == "A":
        return Force(OracleRef("c"))
    if roll < 0.80 and ground == "A":
        return Force(OracleCall("d", gen_ground(rng, "A", depth - 1, scope)))
    if roll < 0.88:
        dependent = App(Var("u"), gen_ground(rng, "A", depth - 1, scope))
        filler = gen_ground(rng, ground, depth - 1, scope)
        return Proj(Pair(dependent, filler), 1)
    return gen_ground(rng, ground, depth - 1, scope)


def gen_closed_term(seed: int, depth: int = 7) -> Term:
    """One closed well-typed term; mostly ground, sometimes a lambda or
    pair at the top."""
    rng = random.Random(seed)
    roll = rng.random()
    if roll < 0.10:
        x = _fresh(())
        return Lam(
            x, TypeName("A"), gen_ground(rng, "A", depth - 1, ((x, "A"),))
        )
    if roll < 0.18:
        return Pair(
            gen_ground(rng, "A", depth - 1, ()),
            gen_ground(rng, "B", depth - 1, ()),
        )
    ground = "A" if roll < 0.80 else "B"
    return gen_ground(rng, ground, depth, ())


def gen_con(
    rng: random.Random,
    depth: int,
    scope: tuple[tuple[str, str], ...] = (),
) -> TypeCon:
    """A constructor of kind *, with beta redexes and embedded terms."""
    if depth <= 0:
        return rng.choice([TypeName("A"), TypeName("B"), Bottom()])
    roll = rng.random()
    if roll < 0.12:
        return TypeApp(TypeName("P"), gen_ground(rng, "A", depth - 1, scope))
    if roll < 0.30:
        x = _fresh(scope)
        body = gen_con(rng, depth - 1, scope + ((x, "A"),))
        return TypeApp(
            TypeAbs(x, TypeName("A"), body),
            gen_ground(rng, "A", depth - 1, scope),
        )
    if roll < 0.42:
        x = _fresh(scope)
        return Forall(
            x, TypeName("A"), gen_con(rng, depth - 1, scope + ((x, "A"),))
        )
    if roll < 0.54:
        return Conj(
            gen_con(rng, depth - 1, scope), gen_con(rng, depth - 1, scope)
        )
    if roll < 0.66:
        return ChoiceType(gen_con(rng, depth - 1, scope))
    if roll < 0.78:
        return OpaqueType(gen_con(rng, depth - 1, scope))
    return gen_con(rng, depth - 1, scope)


def gen_closed_con(seed: int, depth: int = 5) -> TypeCon:
    return gen_con(random.Random(seed), depth)


def gen_kind(seed: int, depth: int = 3):
    """A well-formed kind: * or a pi tower over signature types."""
    rng = random.Random(seed)

    def go(level: int, scope: tuple[tuple[str, str], ...]):
        if level <= 0 or rng.random() < 0.4:
            return Star()
        x = _fresh(scope)
        annot = rng.choice(
            [TypeName("A"), TypeName("B"), ChoiceType(TypeName("A"))]
        )
        return KindPi(x, annot, go(level - 1, scope + ((x, "A"),)))

    return go(depth, ())


def gen_substitution_instance(
    seed: int,
) -> tuple[Term | TypeCon, str, Term, str, Term]:
    """An instance (subject, x, t, y, s) for the substitution identity:
    substituting t for x then s[t/x] for y must equal substituting s for
    y then t for x, when y is not free in t."""
    rng = random.Random(seed)
    scope = (("x", "A"), ("y", "A"))
    if rng.random() < 0.5:
        subject: Term | TypeCon = gen_ground(rng, "A", 4, scope)
    else:
        subject = gen_con(rng, 3, scope)
    t = gen_ground(rng, "A", 3, ())
    s = gen_ground(rng, "A", 3, scope[:1])
    return subject, "x", t, "y", s


def connective_skeleton(con: TypeCon):
    """Shape of a type with embedded terms erased: the tree of quantifiers,
    connectives and atoms, invariant under one-step reduction of a subject."""
    match con:
        case TypeName(n):
            return ("atom", n)
        case Bottom():
            return ("bottom",)
        case TypeApp(fun, _):
            return ("apply", connective_skeleton(fun))
        case TypeAbs(_, a, body):
            return ("abstract", connective_skeleton(a), connective_skeleton(body))
        case Forall(_, a, body):
            return ("forall", connective_skeleton(a), connective_skeleton(body))
        case ChoiceType(body):
            return ("choice", connective_skeleton(body))
        case OpaqueType(body):
            return ("opaque", connective_skeleton(body))
        case Conj(left, right):
            return ("conj", connective_skeleton(left), connective_skeleton(right))
    raise TypeError(f"not a constructor: {con!r}")
