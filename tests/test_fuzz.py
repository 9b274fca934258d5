"""Seeded fuzzing of the command line: every command, run in-process on
edited programs, oracle files and targets, on bytes that are not UTF-8,
and on deep and wide programs, exits 0, 1 or 2 with at most a one-line
error and lets no exception escape."""

import random

from generators import ORACLE_SOURCE, SIGNATURE_SOURCE, gen_closed_term
from olam.cli import main
from olam.printer import show

SEED = 20261020

# one text per base program: generated terms, and forced oracles, which
# are what oracle-freq and trust read through a frequency table
MAINS = [show(gen_closed_term(seed, depth=4)) for seed in range(12)]
MAINS += ["#c!", "#d a!", "#d (choose[1/2]{a}{b}!)!"]

TARGET = "a = 2/3\nb = 1/3\n"

# fragments an edit inserts: the language's own tokens, so that edits
# reach past the lexer
FRAGMENTS = [
    "(", ")", "<", ">", ",", ".", ".0", ".1", "!", "#c", "#d", "\\x:A.",
    "choose[1/2]{a}{b}", "[", "]", "{", "}", "/", "0", "1", "-1", "99999",
    " ", "\n", "  ", "a", "b", "q", "g", "u", "A", "B", "*", "->", ":",
    "=", "forall x:A.", "pi x:A.", "Sigma", "atom", "use", "oracle",
    "rule", "index", "arg", "mod", "default", "arity", "type", "main",
    "keep", "x0", "1/0", "=>", "#",
]


def edit(rng, text):
    """text after one to four random edits: a span deleted, a fragment
    inserted, a span repeated or two characters swapped."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(FRAGMENTS) + text[i:]
        elif op == 2:
            text = text[:j] + text[i:j] + text[j:]
        elif j - i >= 2:
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


def inputs(rng):
    """(program, oracle file, target) byte triples to run every command
    on."""
    plain = [
        (f"{SIGNATURE_SOURCE}main = {m}\n", ORACLE_SOURCE, TARGET) for m in MAINS
    ]
    out = [tuple(part.encode() for part in triple) for triple in plain]
    for _ in range(240):
        parts = list(rng.choice(plain))
        which = rng.randrange(3)
        parts[which] = edit(rng, parts[which])
        out.append(tuple(part.encode() for part in parts))
    for _ in range(12):
        parts = [part.encode() for part in rng.choice(plain)]
        noise = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
        which = rng.randrange(3)
        at = rng.randrange(len(parts[which]) + 1)
        # 0xff never occurs in UTF-8
        parts[which] = parts[which][:at] + b"\xff" + noise + parts[which][at:]
        out.append(tuple(parts))
    deep = "g (" * 3000 + "a" + ")" * 3000
    wide = "<a, " * 4999 + "a" + ">" * 4999
    for m in (deep, wide):
        program = f"{SIGNATURE_SOURCE}main = {m}\n"
        out.append((program.encode(), ORACLE_SOURCE.encode(), TARGET.encode()))
    return out


def test_every_command_exits_0_1_or_2_on_fuzzed_input(tmp_path, capsys):
    rng = random.Random(SEED)
    prog, orc, tgt = (tmp_path / n for n in ("prog.olam", "c.oracles", "t.dist"))
    commands = {
        "check": [],
        "eval": ["--samples", "3", "--seed", "5"],
        "dist": [],
        "trace": [],
        "trust": ["--target", str(tgt), "--epsilon", "1/10", "--samples", "3"],
        "oracle-freq": ["--samples", "3"],
    }
    for program, oracles, target in inputs(rng):
        prog.write_bytes(program)
        orc.write_bytes(oracles)
        tgt.write_bytes(target)
        for command, extra in commands.items():
            argv = [command, str(prog), "--oracles", str(orc), "--fuel", "60"]
            code = main(argv + extra)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, program)
            if err:
                assert err.startswith("error: ") and err.count("\n") == 1, err


def test_every_command_exits_0_1_or_2_in_json_format(tmp_path, capsys):
    """The same inputs through every command's JSON output, which only a
    --format json run builds."""
    rng = random.Random(SEED)
    prog, orc, tgt = (tmp_path / n for n in ("prog.olam", "c.oracles", "t.dist"))
    commands = {
        "check": [],
        "eval": ["--samples", "3", "--seed", "5"],
        "dist": [],
        "trace": [],
        "trust": ["--target", str(tgt), "--epsilon", "1/10", "--samples", "3"],
        "oracle-freq": ["--samples", "3"],
    }
    for program, oracles, target in inputs(rng):
        prog.write_bytes(program)
        orc.write_bytes(oracles)
        tgt.write_bytes(target)
        for command, extra in commands.items():
            argv = [command, str(prog), "--oracles", str(orc), "--fuel", "60"]
            code = main(argv + extra + ["--format", "json"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, program)
            if err:
                assert err.startswith("error: ") and err.count("\n") == 1, err
