"""Machine-speed calibration for the benchmark's timings.

The machine's speed is shared with other tenants: it swings by half or
more within seconds.  Right before and right after every command run
the benchmark times a fixed piece of work that has nothing to do with
olam but is written in olam's style (frozen slotted dataclasses,
structural pattern matching, substitution, stepping to normal form,
printing, exact Fractions), so that it slows down with the machine the
way olam does.  A command's time is multiplied by CALIBRATION_S over the
mean of the two calibration times around it: times are reported in
seconds of a machine on which the calibration work takes CALIBRATION_S.

This file is part of the benchmark, so it stays fixed while olam
changes; no olam code runs inside it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from fractions import Fraction

CALIBRATION_S = 0.001


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Lam(Term):
    var: str
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Choice(Term):
    left: Term
    prob: Fraction
    right: Term


def substitute(t: Term, x: str, r: Term) -> Term:
    match t:
        case Var(n):
            return r if n == x else t
        case Lam(y, body):
            return t if y == x else Lam(y, substitute(body, x, r))
        case App(f, a):
            return App(substitute(f, x, r), substitute(a, x, r))
        case Pair(left, right):
            return Pair(substitute(left, x, r), substitute(right, x, r))
        case Choice(left, p, right):
            return Choice(substitute(left, x, r), p, substitute(right, x, r))
    return t


def step(t: Term) -> Term | None:
    match t:
        case App(Lam(x, body), a):
            return substitute(body, x, a)
        case App(f, a):
            s = step(f)
            return None if s is None else App(s, a)
        case Pair(left, right):
            s = step(left)
            if s is not None:
                return Pair(s, right)
            s = step(right)
            return None if s is None else Pair(left, s)
    return None


def show(t: Term) -> str:
    match t:
        case Var(n):
            return n
        case Lam(x, body):
            return f"\\{x}. {show(body)}"
        case App(f, a):
            return f"({show(f)} {show(a)})"
        case Pair(left, right):
            return f"<{show(left)}, {show(right)}>"
        case Choice(left, p, right):
            return f"choose[{p}]{{{show(left)}}}{{{show(right)}}}"
    raise TypeError(t)


def distribution(t: Term, p: Fraction, out: dict[str, Fraction]) -> None:
    if isinstance(t, Choice):
        distribution(t.left, p * t.prob, out)
        distribution(t.right, p * (1 - t.prob), out)
    else:
        key = show(t)
        out[key] = out.get(key, Fraction(0)) + p


def work() -> int:
    identity = Lam("x", Var("x"))
    term: Term = Var("a")
    for i in range(28):
        term = Pair(App(identity, Var(f"a{i % 7}")), term)
    steps = 0
    while (reduced := step(term)) is not None:
        term = reduced
        steps += 1
    coins: Term = Var("z")
    for i in range(6):
        coins = Choice(
            Pair(Var(f"b{i}"), coins), Fraction(1, i + 2), Pair(Var(f"c{i}"), coins)
        )
    out: dict[str, Fraction] = {}
    distribution(coins, Fraction(1), out)
    return steps + len(out)


def calibrate() -> float:
    """Seconds the calibration work takes now, with the collector off so
    that olam's live objects cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds measured between calibrations taking before and after,
    in seconds of the reference machine."""
    return seconds * 2 * CALIBRATION_S / (before + after)
