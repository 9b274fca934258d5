"""Seeded program generators for the benchmark workloads.

Every generator works on text only and never imports olam: it writes the
program and oracle files, and derives from the program's structure the
exact outputs olam must produce (the `check` lines, and the distribution
or frequency table in Fractions).  Those references are what the
benchmark checks olam's outputs against.

Sizes are stratified: programs come in blocks of one program per size, so
every seed runs the same mix of sizes while the programs' contents differ.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

ATOMS = tuple(f"a{i}" for i in range(8))
PROBS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(2, 5),
    Fraction(3, 5),
)
EPSILON = Fraction(1, 100)

SIGNATURE = "\n".join(
    ["atom A : *"]
    + [f"atom {a} : A" for a in ATOMS]
    + ["atom g : A -> A"]
)

# d answers by its argument: a_i goes to a_(i+1); e is read through
# frequency tables only and gets its rules per program
D_ORACLE = "oracle d arity 1 type forall x:A. Sigma A\n" + "\n".join(
    f"  rule arg = {a} -> {ATOMS[(i + 1) % len(ATOMS)]}"
    for i, a in enumerate(ATOMS)
) + "\n  default -> a0\n"


@dataclass(frozen=True)
class Program:
    """One generated program with the outputs olam must give for it.

    `dist` maps each outcome, printed as olam prints it, to its exact
    probability; for a forced oracle it is the width-`freq_width`
    frequency table, and `single_answer` is what one call standing alone
    returns.  `check_lines` are the lines `olam check` prints.
    """

    ident: str
    size: int
    source: str
    oracles: str
    check_lines: tuple[str, ...]
    dist: tuple[tuple[str, Fraction], ...]
    freq_width: int | None = None
    single_answer: str | None = None

    def dist_lines(self) -> list[str]:
        return [f"{outcome} = {prob}" for outcome, prob in self.dist]

    def target_text(self) -> str:
        """The target file for `trust`: the reference distribution."""
        return "\n".join(self.dist_lines()) + "\n"


# ------------------------------------------------------------ rendering


def app_g(value: str) -> str:
    return f"g ({value})" if " " in value else f"g {value}"


def tuple_text(parts: list[str]) -> str:
    """Right-nested tuple, printed as olam prints it."""
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = f"<{part}, {out}>"
    return out


def conj_type(width: int) -> str:
    return " /\\ ".join(["A"] * width)


def product_dist(
    factors: list[list[tuple[str, Fraction]]],
) -> tuple[tuple[str, Fraction], ...]:
    """Distribution of the tuple of independent components, sorted by the
    printed outcome.  Outcomes bind no variables, so their printed form is
    the alpha-class key olam sorts by."""
    masses: dict[str, Fraction] = {}
    for combo in itertools.product(*factors):
        key = tuple_text([value for value, _ in combo])
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        masses[key] = masses.get(key, Fraction(0)) + prob
    return tuple(sorted(masses.items()))


def source_text(uses: tuple[str, ...], definitions: list[str]) -> str:
    lines = [SIGNATURE, *(f"use {name}" for name in uses), "", *definitions]
    return "\n".join(lines) + "\n"


# Ways a coin side reaches its value: an atom by a beta or projection redex
# or an oracle answer, `g` of an atom by a beta or projection redex or a
# redex in g's argument.  Coin i takes the i-th ways, and the coins are
# then shuffled, so every program of one size does the same mix of work.
ATOM_WAYS = ("beta", "proj", "oracle")
G_WAYS = ("beta", "proj", "garg")


def redex_for(rng: random.Random, value: str, way: str) -> str:
    """A small term that reduces to value (an atom or `g` of one) in the
    given way."""
    other = rng.choice(ATOMS)
    if way == "oracle":
        before = ATOMS[(ATOMS.index(value) - 1) % len(ATOMS)]
        return f"(#d {before})!"
    if way == "proj":
        if rng.random() < 0.5:
            return f"<{value}, {other}>.0"
        return f"<{other}, {value}>.1"
    if way == "garg":
        return f"g ((\\x:A. x) {value[2:]})"
    if value in ATOMS:
        return f"(\\x:A. x) {value}"
    return f"(\\x:A. g x) {value[2:]}"


def coins(
    rng: random.Random, count: int, oracle: bool
) -> list[tuple[str, list[tuple[str, Fraction]]]]:
    """count forced weighted choices, each between an atom and `g` of an
    atom, each side a small redex."""
    atom_ways = ATOM_WAYS if oracle else ATOM_WAYS[:2]
    out = []
    for i in range(count):
        atom, g_atom = rng.choice(ATOMS), app_g(rng.choice(ATOMS))
        sides = [
            (atom, redex_for(rng, atom, atom_ways[i % len(atom_ways)])),
            (g_atom, redex_for(rng, g_atom, G_WAYS[i % len(G_WAYS)])),
        ]
        rng.shuffle(sides)
        (left, left_text), (right, right_text) = sides
        p = rng.choice(PROBS)
        text = f"choose[{p}]{{{left_text}}}{{{right_text}}}!"
        out.append((text, [(left, p), (right, 1 - p)]))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ workloads


def gen_branching(rng: random.Random, ident: str, m: int, block: int) -> Program:
    """m independent coins in a right-nested tuple: 2^m distinct outcomes,
    each with its own trace and no merges."""
    choices = coins(rng, m, oracle=True)
    main = tuple_text([text for text, _ in choices])
    return Program(
        ident=ident,
        size=m,
        source=source_text(("d",), [f"main = {main}"]),
        oracles=D_ORACLE,
        check_lines=(f"main : {conj_type(m)}",),
        dist=product_dist([factor for _, factor in choices]),
    )


def collapse(rng: random.Random, depth: int, value: str) -> str:
    """depth nested `(\\x:A. choose[p]{x}{x}!)` applications to value: 2^depth
    paths that all end at value."""
    out = value
    for _ in range(depth):
        p = rng.choice(PROBS)
        out = f"(\\x:A. choose[{p}]{{x}}{{x}}!) ({out})"
    return out


def gen_merging(rng: random.Random, ident: str, k: int, block: int) -> Program:
    """A depth-k collapse chain beside 3 - k distinct coins: always eight
    paths, which merge 2^k at a time into 2^(3 - k) outcomes."""
    value = rng.choice(ATOMS)
    choices = coins(rng, 3 - k, oracle=False)
    main = tuple_text([collapse(rng, k, value)] + [text for text, _ in choices])
    factors = [[(value, Fraction(1))]] + [factor for _, factor in choices]
    return Program(
        ident=ident,
        size=k,
        source=source_text((), [f"main = {main}"]),
        oracles="",
        check_lines=(f"main : {conj_type(len(factors))}",),
        dist=product_dist(factors),
    )


def gen_wide_sampling(rng: random.Random, ident: str, n: int, block: int) -> Program:
    """2n definitions of beta and projection redexes, some through earlier
    definitions and some under ascriptions that need constructor
    normalisation; n of them are inlined into a tuple beside one coin."""
    definitions = [
        "f0 = \\x:A. x",
        "f1 = \\x:A. g x",
        "f2 : (\\\\y:A. A -> A) a0 = \\x:A. <x, a1>.0",
    ]
    check_lines = ["f0 : A -> A", "f1 : A -> A", "f2 : A -> A"]
    values: list[str] = []
    # the n definitions main uses, and the n it does not, each take the
    # four kinds of body in turn
    picked = sorted(rng.sample(range(2 * n), n))
    used, unused = [i % 4 for i in range(n)], [i % 4 for i in range(n)]
    rng.shuffle(used)
    rng.shuffle(unused)
    kinds = [(used if i in picked else unused).pop() for i in range(2 * n)]
    for i, kind in enumerate(kinds):
        arg = rng.choice(ATOMS)
        if kind == 0:
            body, value = f"(\\x:A. g x) {arg}", app_g(arg)
        elif kind == 1:
            body, value = f"<{arg}, {rng.choice(ATOMS)}>.0", arg
        elif kind == 2:
            fun = rng.randrange(3)
            arg_value = arg
            if values and rng.random() < 0.5:
                j = rng.randrange(len(values))
                arg, arg_value = f"v{j}", values[j]
            body = f"f{fun} {arg}"
            value = app_g(arg_value) if fun == 1 else arg_value
        else:
            body, value = f"(\\x:A. x) {arg}", arg
        ascription = " : (\\\\y:A. A) a0" if i % 4 == 3 else ""
        definitions.append(f"v{i}{ascription} = {body}")
        check_lines.append(f"v{i} : A")
        values.append(value)
    ((text, factor),) = coins(rng, 1, oracle=False)
    main = tuple_text([f"v{i}" for i in picked] + [text])
    definitions.append(f"main = {main}")
    check_lines.append(f"main : {conj_type(n + 1)}")
    factors = [[(values[i], Fraction(1))] for i in picked] + [factor]
    return Program(
        ident=ident,
        size=n,
        source=source_text((), definitions),
        oracles="",
        check_lines=tuple(check_lines),
        dist=product_dist(factors),
    )


def fingerprint(width: int) -> str:
    """Context fingerprint of a width-n frequency table: the printed tuple
    of its holes."""
    return tuple_text([f"[_{i}]" for i in range(1, width + 1)])


def gen_oracle_table(rng: random.Random, ident: str, w: int, block: int) -> Program:
    """A forced oracle read through a width-w frequency table, its rule
    file mixing index, index-mod, argument and context guards.  Blocks
    alternate between `#e!` and `(#d t)!`."""
    unary = block % 2 == 1
    name = "d" if unary else "e"
    arg = rng.choice(ATOMS) if unary else None
    answers = rng.sample(ATOMS, 4)
    # every site not picked by index passes both context guards, so each
    # program of width w prints the same number of fingerprints; the
    # argument guard, matching t, fires only when a site stands alone
    rules: list[tuple[str, object, str]] = [
        ("in", frozenset(rng.sample(range(1, w + 1), 3)), answers[0]),
        ("mod", (3, rng.randrange(3)), answers[1]),
        ("context", fingerprint(w + 1), answers[3]),
        ("context", fingerprint(w), answers[2]),
    ]
    if unary:
        rules.append(("arg", arg, answers[1]))
    default = answers[3]

    def answer(index: int, context: str) -> str:
        for kind, guard, output in rules:
            if kind == "in" and index in guard:
                return output
            if kind == "mod" and index % guard[0] == guard[1]:
                return output
            if kind == "arg" and arg == guard:
                return output
            if kind == "context" and context == guard:
                return output
        return default

    lines = []
    for kind, guard, output in rules:
        if kind == "in":
            indices = ", ".join(map(str, sorted(guard)))
            lines.append(f"  rule index in {{{indices}}} -> {output}")
        elif kind == "mod":
            lines.append(f"  rule index mod {guard[0]} = {guard[1]} -> {output}")
        elif kind == "arg":
            lines.append(f"  rule arg = {guard} -> {output}")
        else:
            lines.append(f'  rule context = "{guard}" -> {output}')
    if unary:
        header = "oracle d arity 1 type forall x:A. Sigma A"
        main = f"(#d {arg})!"
    else:
        header = "oracle e arity 0 type Sigma A"
        main = "#e!"
    oracles = "\n".join([header, *lines, f"  default -> {default}"]) + "\n"

    table: dict[str, Fraction] = {}
    table_fp = fingerprint(w)
    for index in range(1, w + 1):
        out = answer(index, table_fp)
        table[out] = table.get(out, Fraction(0)) + Fraction(1, w)
    return Program(
        ident=ident,
        size=w,
        source=source_text((name,), [f"main = {main}"]),
        oracles=oracles,
        check_lines=("main : A",),
        dist=tuple(sorted(table.items())),
        freq_width=w,
        single_answer=answer(1, fingerprint(1)),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]
    generate: Callable[[random.Random, str, int, int], Program]


# Size ranges keep one program's five commands near 0.15 s on average on a
# 2-core x86 sandbox, so that a 25 s run covers well over 100 programs;
# with three sizes, every command's p90 falls inside the largest size.
# Larger sizes cost seconds per program today (m = 5 replays in 0.7 s,
# k = 3 beside a coin in 1.3 s, W = 100 in 1 s).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("branching", (2, 3, 4), gen_branching),
        Workload("merging", (1, 2, 3), gen_merging),
        Workload("wide_sampling", (4, 8, 12), gen_wide_sampling),
        Workload("oracle_table", (16, 32, 48), gen_oracle_table),
    )
}


def program(
    workload: Workload, seed: int, index: int, sizes: tuple[int, ...] | None = None
) -> Program:
    """Program number index of the workload under seed.  Programs come in
    blocks of one per size, each block in its own seeded order, so every
    whole number of blocks holds the same mix of sizes."""
    sizes = workload.sizes if sizes is None else sizes
    block, slot = divmod(index, len(sizes))
    order = list(sizes)
    random.Random(f"{workload.name}:{seed}:block{block}").shuffle(order)
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    return workload.generate(rng, f"{workload.name}-{index:04d}", order[slot], block)
