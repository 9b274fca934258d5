"""Command line behavior: output text, JSON payloads, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from olam import printer, surface
from olam.cli import main

ORACLE_TEXT = """\
oracle c arity 0 type Sigma A
  rule index mod 3 = 1 -> a
  rule index mod 3 = 2 -> a
  default -> b
"""

PROGRAM_HEADER = """\
atom A : *
atom B : *
atom a : A
atom b : A
atom q : B

use c

"""


@pytest.fixture
def project(tmp_path):
    def write(main_term, defs=""):
        program = tmp_path / "prog.olam"
        program.write_text(PROGRAM_HEADER + defs + f"main = {main_term}\n")
        oracles = tmp_path / "oracles.olam"
        oracles.write_text(ORACLE_TEXT)
        return str(program), str(oracles)

    return write


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_prints_definitions_then_main(project, capsys):
    prog, orc = project("choose[1/3]{a}{b}!", defs="pick = a\n")
    code, out, err = run(["check", prog, "--oracles", orc], capsys)
    assert code == 0
    assert out == "pick : A\nmain : A\n"
    assert err == ""


def test_check_json(project, capsys):
    prog, orc = project("choose[1/3]{a}{b}!")
    code, out, _ = run(
        ["check", prog, "--oracles", orc, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["main"] == {
        "term": "choose[1/3]{a}{b}!",
        "type": "A",
    }


def test_check_reports_type_errors(project, capsys):
    prog, orc = project("a q")
    code, out, err = run(["check", prog, "--oracles", orc], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "NotAFunction" in err


def test_eval_frozen_counts(project, capsys):
    prog, orc = project("choose[1/3]{a}{b}!")
    code, out, _ = run(
        ["eval", prog, "--oracles", orc, "--samples", "4", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert out == "samples: 4  seed: 0\nb = 4/4\n"


def test_eval_seed_changes_counts(project, capsys):
    prog, orc = project("choose[1/2]{a}{b}!")
    code, out, _ = run(
        ["eval", prog, "--oracles", orc, "--samples", "20", "--seed", "42"],
        capsys,
    )
    assert code == 0
    assert out == "samples: 20  seed: 42\na = 14/20\nb = 6/20\n"


def test_eval_draws_pinned_across_coins(project, capsys):
    """Which draw goes to which coin: three coins, one of them the argument
    of a beta that copies it, one inside the copied body."""
    prog, orc = project(
        "<choose[1/2]{a}{b}!, <(\\x:A. <x, choose[1/3]{x}{b}!>) "
        "choose[1/4]{a}{b}!, choose[2/3]{a}{b}!>>"
    )
    code, out, err = run(
        ["eval", prog, "--oracles", orc, "--samples", "50", "--seed", "7"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out == (
        "samples: 50  seed: 7\n"
        "<a, <<a, b>, a>> = 6/50\n"
        "<a, <<a, b>, b>> = 2/50\n"
        "<a, <<b, a>, b>> = 1/50\n"
        "<a, <<b, b>, a>> = 9/50\n"
        "<a, <<b, b>, b>> = 7/50\n"
        "<b, <<a, b>, a>> = 3/50\n"
        "<b, <<a, b>, b>> = 1/50\n"
        "<b, <<b, b>, a>> = 17/50\n"
        "<b, <<b, b>, b>> = 4/50\n"
    )


def test_eval_is_deterministic(project, capsys):
    prog, orc = project("choose[1/2]{a}{b}!")
    argv = ["eval", prog, "--oracles", orc, "--samples", "50", "--seed", "7"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_eval_json(project, capsys):
    prog, orc = project("choose[1/2]{a}{b}!")
    code, out, _ = run(
        [
            "eval", prog, "--oracles", orc,
            "--samples", "20", "--seed", "42", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 20
    assert payload["seed"] == 42
    assert payload["counts"] == [["a", 14], ["b", 6]]


def test_dist_text(project, capsys):
    prog, orc = project("choose[1/3]{a}{b}!")
    code, out, _ = run(["dist", prog, "--oracles", orc], capsys)
    assert code == 0
    assert out == "a = 1/3\nb = 2/3\n"


def test_dist_json(project, capsys):
    prog, orc = project("choose[1/2]{a}{choose[1/2]{a}{b}!}!")
    code, out, _ = run(
        ["dist", prog, "--oracles", orc, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distribution"] == [["a", "3/4"], ["b", "1/4"]]
    assert payload["total"] == "1"


def test_dist_rejects_trailing_dot(project, capsys):
    # a "." at the end of a line once lexed as a projection with no index
    prog, orc = project("a.")
    code, out, err = run(["dist", prog, "--oracles", orc], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Syntax]")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_dist_binder_dot_may_end_a_line(project, capsys):
    prog, orc = project("(\\x:A.\n  x) a")
    code, out, err = run(["dist", prog, "--oracles", orc], capsys)
    assert (code, err) == (0, "")
    one_line, _ = project("(\\x:A. x) a")
    assert run(["dist", one_line, "--oracles", orc], capsys)[1] == out
    assert out == "a = 1\n"


def test_dist_output_feeds_trust_as_target(project, capsys, tmp_path):
    prog, orc = project("choose[1/3]{a}{b}!")
    _, out, _ = run(["dist", prog, "--oracles", orc], capsys)
    target = tmp_path / "derived.dist"
    target.write_text(out)
    code, out, _ = run(
        [
            "trust", prog, "--oracles", orc,
            "--target", str(target), "--epsilon", "1/100",
        ],
        capsys,
    )
    assert code == 0
    assert "verdict: trusted" in out


def test_trace_choice_paths(project, capsys):
    prog, orc = project("choose[1/3]{a}{b}!")
    code, out, _ = run(["trace", prog, "--oracles", orc], capsys)
    assert code == 0
    assert out == (
        "main: choose[1/3]{a}{b}!\n"
        "path 1: probability 1/3, outcome a\n"
        "  choose[1/3]{a}{b}!\n"
        "  -> a  [left 1/3]\n"
        "path 2: probability 2/3, outcome b\n"
        "  choose[1/3]{a}{b}!\n"
        "  -> b  [right 2/3]\n"
    )


def test_trace_beta_label(project, capsys):
    prog, orc = project("(\\x:A. x) a")
    _, out, _ = run(["trace", prog, "--oracles", orc], capsys)
    assert "-> a  [β 1]" in out


def test_trace_projection_label(project, capsys):
    prog, orc = project("<a, b>.0")
    _, out, _ = run(["trace", prog, "--oracles", orc], capsys)
    assert "-> a  [π 1]" in out


def test_trace_oracle_label(project, capsys):
    prog, orc = project("#c!")
    _, out, _ = run(["trace", prog, "--oracles", orc], capsys)
    assert out == (
        "main: #c!\n"
        "path 1: probability 1, outcome a\n"
        "  #c!\n"
        "  -> a  [ω 1]\n"
    )


def test_trace_json(project, capsys):
    prog, orc = project("choose[1/3]{a}{b}!")
    code, out, _ = run(
        ["trace", prog, "--oracles", orc, "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert [p["probability"] for p in payload["paths"]] == ["1/3", "2/3"]
    assert payload["paths"][0]["steps"][0]["label"] == "left"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_trace_prints_each_term_once(fmt, project, capsys, monkeypatch):
    """trace prints main once and each step's result once: a step's
    before is the text printed just ahead of its after."""
    prog, orc = project("<choose[1/3]{a}{b}!, choose[1/2]{(\\x:A. x) a}{b}!>")
    text = printer._text
    printed = []

    def counted(node, renaming):
        printed.append(node)
        return text(node, renaming)

    monkeypatch.setattr(printer, "_text", counted)
    code, out, _ = run(
        ["trace", prog, "--oracles", orc, "--format", fmt], capsys
    )
    assert code == 0
    if fmt == "json":
        paths = [p["steps"] for p in json.loads(out)["paths"]]
        steps = sum(map(len, paths))
    else:
        paths = [line for line in out.splitlines() if line.startswith("path")]
        steps = sum(line.startswith("  -> ") for line in out.splitlines())
    assert (len(paths), steps) == (4, 10)
    assert len(printed) == 1 + steps


ENUMERATING = ("dist", "trace", "trust")


def enumerating_argv(command, prog, orc, tmp_path):
    argv = [command, prog, "--oracles", orc]
    if command == "trust":
        target = tmp_path / "target.dist"
        target.write_text("a = 1/3\nb = 2/3\n")
        argv += ["--target", str(target), "--epsilon", "1/100"]
    return argv


@pytest.mark.parametrize("command", ENUMERATING)
def test_enumerating_commands_type_main_first(
    command, project, capsys, tmp_path
):
    """The enumeration does not type its term: the command's check of
    the program rejects an ill-typed main before it runs."""
    prog, orc = project("a b")
    argv = enumerating_argv(command, prog, orc, tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert "NotAFunction" in err


@pytest.mark.parametrize("command", ENUMERATING)
def test_enumerating_commands_type_main_once(
    command, project, capsys, tmp_path, typings
):
    """main is typed once, by check_program; the enumeration, the trust
    verdict and the certificate type nothing."""
    main_term = "(\\x:A. choose[1/3]{x}{b}!) a"
    prog, orc = project(main_term)
    code, _, _ = run(enumerating_argv(command, prog, orc, tmp_path), capsys)
    assert code == 0
    # loading the oracle file types its rules' answers, in the checker too
    assert {module for module, _ in typings} == {"olam.checker"}
    assert [term for _, term in typings].count(main_term) == 1


FREQUENCY = ("oracle-freq", "trust")


def frequency_argv(command, prog, orc, tmp_path):
    argv = [command, prog, "--oracles", orc, "--samples", "3"]
    if command == "trust":
        target = tmp_path / "target.dist"
        target.write_text("a = 2/3\nb = 1/3\n")
        argv += ["--target", str(target), "--epsilon", "1/100"]
    return argv


@pytest.mark.parametrize("command", FREQUENCY)
def test_frequency_commands_type_main_first(
    command, project, capsys, tmp_path
):
    """The frequency table does not type its call: the command's check of
    the program rejects an ill-typed forced call before it runs."""
    prog, orc = project("(#c q)!")
    code, out, err = run(frequency_argv(command, prog, orc, tmp_path), capsys)
    assert code == 1
    assert out == ""
    assert "[NotAFunction]" in err


@pytest.mark.parametrize("command", FREQUENCY)
def test_frequency_commands_type_main_once(
    command, project, capsys, tmp_path, typings
):
    """The forced call is typed once, by check_program; the frequency
    table and the trust verdict type nothing."""
    prog, orc = project("#c!")
    code, _, _ = run(frequency_argv(command, prog, orc, tmp_path), capsys)
    assert code == 0
    assert {module for module, _ in typings} == {"olam.checker"}
    assert [term for _, term in typings].count("#c!") == 1


def test_trust_trusted_writes_certificate(project, capsys, tmp_path):
    prog, orc = project("#c!")
    target = tmp_path / "target.dist"
    target.write_text("a = 2/3\nb = 1/3\n")
    code, out, _ = run(
        [
            "trust", prog, "--oracles", orc,
            "--target", str(target), "--epsilon", "1/100", "--samples", "3",
        ],
        capsys,
    )
    assert code == 0
    assert out == (
        "verdict: trusted\n"
        "epsilon: 1/100\n"
        "mode: frequency\n"
        "a: target 2/3 derived 2/3 deviation 0 pass\n"
        "b: target 1/3 derived 1/3 deviation 0 pass\n"
        "extra mass: 0\n"
        "totality: 1\n"
        f"certificate: {tmp_path / 'prog.trust.json'}\n"
    )
    # the bytes trust writes, pinned
    assert (tmp_path / "prog.trust.json").read_text() == CERTIFICATE_TEXT


CERTIFICATE_TEXT = """\
{
  "schema": 2,
  "program": "#c!",
  "mode": "frequency",
  "seedless": true,
  "epsilon": "1/100",
  "verdict": "trusted",
  "totality": "1",
  "distribution": [
    [
      "a",
      "2/3"
    ],
    [
      "b",
      "1/3"
    ]
  ],
  "table": [
    "<#c!, <#c!, #c!>>",
    "<a, <a, b>>"
  ],
  "threshold_checks": [
    {
      "outcome": "a",
      "target": "2/3",
      "derived": "2/3",
      "deviation": "0",
      "passed": true
    },
    {
      "outcome": "b",
      "target": "1/3",
      "derived": "1/3",
      "deviation": "0",
      "passed": true
    }
  ]
}
"""


def test_trust_untrusted_exit_code(project, capsys, tmp_path):
    prog, orc = project("choose[1/3]{a}{b}!")
    target = tmp_path / "target.dist"
    target.write_text("a = 1/2\nb = 1/2\n")
    code, out, _ = run(
        [
            "trust", prog, "--oracles", orc,
            "--target", str(target), "--epsilon", "1/100",
        ],
        capsys,
    )
    assert code == 1
    assert "verdict: untrusted" in out
    assert "a: target 1/2 derived 1/3 deviation 1/6 fail" in out
    assert (tmp_path / "prog.trust.json").exists()


def test_trust_json_emits_certificate(project, capsys, tmp_path):
    prog, orc = project("choose[1/3]{a}{b}!")
    target = tmp_path / "target.dist"
    target.write_text("a = 1/3\nb = 2/3\n")
    code, out, _ = run(
        [
            "trust", prog, "--oracles", orc,
            "--target", str(target), "--epsilon", "1/100", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    # the text written is the text printed
    assert out.encode() == (tmp_path / "prog.trust.json").read_bytes()
    payload = json.loads(out)
    assert payload["nodes"] == ["choose[1/3]{a}{b}!", "a", "b"]
    assert payload["claims"] == [[1, "1/3"], [2, "2/3"]]


def test_trust_bad_epsilon_is_usage_error(project, capsys, tmp_path):
    """A bad value of a numeric flag is a usage error, exit 2."""
    prog, orc = project("choose[1/3]{a}{b}!")
    target = tmp_path / "target.dist"
    target.write_text("a = 1/3\nb = 2/3\n")
    trust_args = ["--target", str(target), "--epsilon", "1/100"]
    for command, flag, value in (
        ("trust", "--epsilon", "0"),
        ("eval", "--samples", "0"),
        ("eval", "--samples", "-1"),
        ("trust", "--samples", "0"),
        ("oracle-freq", "--samples", "-3"),
        ("oracle-freq", "--samples", "ten"),
        ("dist", "--fuel", "-3"),
        ("check", "--fuel", "1.5"),
    ):
        argv = [command, prog, "--oracles", orc]
        if command == "trust":
            argv += trust_args
        with pytest.raises(SystemExit) as e:
            main(argv + [flag, value])
        assert e.value.code == 2, (command, flag, value)
        capsys.readouterr()
    # the smallest values are accepted
    for command, flag, value in (
        ("check", "--fuel", "0"),
        ("eval", "--samples", "1"),
    ):
        argv = [command, prog, "--oracles", orc, flag, value]
        assert run(argv, capsys)[0] == 0


def test_trust_epsilon_that_is_no_rational_names_the_flag(
    project, capsys, tmp_path
):
    prog, orc = project("choose[1/3]{a}{b}!")
    target = tmp_path / "target.dist"
    target.write_text("a = 1/3\nb = 2/3\n")
    argv = ["trust", prog, "--oracles", orc, "--target", str(target)]
    with pytest.raises(SystemExit) as e:
        main(argv + ["--epsilon", "abc"])
    assert e.value.code == 2
    assert "argument --epsilon: bad rational 'abc'" in capsys.readouterr().err


def test_trust_malformed_target_is_domain_error(project, capsys, tmp_path):
    prog, orc = project("choose[1/3]{a}{b}!")
    target = tmp_path / "target.dist"
    target.write_text("a = 1/0\n")
    code, _, err = run(
        [
            "trust", prog, "--oracles", orc,
            "--target", str(target), "--epsilon", "1/100",
        ],
        capsys,
    )
    assert code == 1
    assert "MalformedRational" in err


def test_oracle_freq_table(project, capsys):
    prog, orc = project("#c!")
    code, out, _ = run(
        ["oracle-freq", prog, "--oracles", orc, "--samples", "3"], capsys
    )
    assert code == 0
    assert out == "a = 2/3\nb = 1/3\n"


def test_oracle_freq_json(project, capsys):
    prog, orc = project("#c!")
    code, out, _ = run(
        [
            "oracle-freq", prog, "--oracles", orc,
            "--samples", "6", "--format", "json",
        ],
        capsys,
    )
    payload = json.loads(out)
    assert payload["oracle"] == "c"
    assert payload["width"] == 6
    assert payload["distribution"] == [["a", "2/3"], ["b", "1/3"]]


def test_oracle_freq_rejects_plain_programs(project, capsys):
    prog, orc = project("choose[1/3]{a}{b}!")
    code, out, err = run(["oracle-freq", prog, "--oracles", orc], capsys)
    assert code == 1
    assert out == ""
    assert err == (
        "error: [NotAnOracleProgram] oracle-freq needs a forced oracle as main\n"
    )


def test_missing_program_file_is_io_error(capsys, tmp_path):
    code, _, err = run(["check", str(tmp_path / "absent.olam")], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_non_utf8_input_is_usage_error(project, capsys, tmp_path):
    prog, orc = project("choose[1/3]{a}{b}!")
    bad = tmp_path / "bad.olam"
    bad.write_bytes(b"\xff\xfe main = a\n")
    for argv in (
        ["check", str(bad), "--oracles", orc],
        ["dist", prog, "--oracles", str(bad)],
        ["trust", prog, "--oracles", orc, "--target", str(bad), "--epsilon", "1/100"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and "not UTF-8" in err
        assert err.count("\n") == 1


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate", "x.olam"])
    assert e.value.code == 2
    capsys.readouterr()


def test_missing_oracle_definition_is_domain_error(project, capsys, tmp_path):
    program = tmp_path / "lone.olam"
    program.write_text(PROGRAM_HEADER + "main = a\n")
    code, _, err = run(["check", str(program)], capsys)
    assert code == 1
    assert "UnknownOracle" in err


def test_load_errors_name_their_item_line(project, capsys, tmp_path):
    _, orc = project("a")
    head = "atom A : *\natom a : A\natom b : A\n"
    for body, code, line in (
        ("atom P : pi x:A. *\natom w : P\nmain = a\n", "KindMismatch", 5),
        ("use c\nuse z\nmain = a\n", "UnknownOracle", 5),
        ("use c\nkeep = a\nmain = a a\n", "NotAFunction", 6),
    ):
        program = tmp_path / "bad.olam"
        program.write_text(head + body)
        status, out, err = run(["check", str(program), "--oracles", orc], capsys)
        assert status == 1
        assert out == ""
        assert err.startswith(f"error: [{code}] line {line}, col 1: ")
        assert err.count("\n") == 1


def test_oracle_load_errors_name_their_line(capsys, tmp_path):
    """An oracle error is placed at the failing rule's line, or at the
    header line of its oracle."""
    program = tmp_path / "prog.olam"
    program.write_text("atom A : *\natom a : A\n\nuse c\n\nmain = #c!\n")
    oracles = tmp_path / "oracles.olam"
    for text, code, line in (
        (
            "oracle c arity 0 type Sigma A\n"
            "  rule index in {1} -> a\n"
            "  default -> q\n",
            "OutputNotClosed",
            3,
        ),
        (
            ORACLE_TEXT.replace("-> b", "-> a") + "\noracle z arity 0 type A\n"
            "  default -> a\n",
            "OracleTypeInvalid",
            6,
        ),
        (ORACLE_TEXT.replace("-> b", "-> a") * 2, "DuplicateName", 5),
    ):
        oracles.write_text(text)
        status, out, err = run(
            ["check", str(program), "--oracles", str(oracles)], capsys
        )
        assert status == 1
        assert out == ""
        assert err.startswith(f"error: [{code}] line {line}, col 1: ")


UNARY_ORACLE_TEXT = """\
oracle d arity 1 type forall x:A. Sigma A
  default -> a
"""


def test_fixed_obligation_fails_check(capsys, tmp_path):
    """An ill-typed output of a unary oracle whose answer type does not
    depend on the argument fails at load, not at its first answer."""
    program = tmp_path / "prog.olam"
    program.write_text(
        "atom A : *\natom B : *\natom a : A\natom b : B\nuse d\n"
        "main = (#d a)!\n"
    )
    oracles = tmp_path / "oracles.olam"
    oracles.write_text(UNARY_ORACLE_TEXT.replace("-> a", "-> b"))
    code, out, err = run(["check", str(program), "--oracles", str(oracles)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: [OutputIllTyped] line 2, col 1: oracle d output b fails its "
        "obligation A: [TypeMismatch] expected A, found B\n"
    )


@pytest.mark.parametrize(
    "body, line",
    [("main = (\\f:A -> Sigma A. (f a)!) #d\n", 4), ("f = #d\nmain = a\n", 4)],
    ids=["applied", "defined"],
)
@pytest.mark.parametrize("command", ["check", "dist", "eval", "trust"])
def test_bare_unary_oracle_is_a_load_error(command, body, line, capsys, tmp_path):
    """A bare #d typed, then stuck after one step at (#d a)!, which dist,
    eval and trust reported as an outcome."""
    program = tmp_path / "bare.olam"
    program.write_text("atom A : *\natom a : A\nuse d\n" + body)
    oracles = tmp_path / "oracles.olam"
    oracles.write_text(UNARY_ORACLE_TEXT)
    target = tmp_path / "bare.dist"
    target.write_text("(#d a)! = 1\n")
    argv = [command, str(program), "--oracles", str(oracles)]
    if command == "trust":
        argv += ["--target", str(target), "--epsilon", "1/100"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: [ArityMismatch] line {line}, col 1: "
        "unary oracle d used without its argument\n"
    )
    assert not (tmp_path / "bare.trust.json").exists()


def test_trust_accepts_dist_output_of_a_dependent_program(capsys, tmp_path):
    """dist prints the outcome c a, whose type P a is the program's type
    P ((\\x:A. x) a) up to a beta step inside the type; fed back as the
    target, it is trusted."""
    program = tmp_path / "dep.olam"
    program.write_text(
        "atom A : *\natom a : A\natom P : pi x:A. *\n"
        "atom c : forall x:A. P x\n\nmain = c ((\\x:A. x) a)\n"
    )
    _, out, _ = run(["dist", str(program)], capsys)
    assert out == "c a = 1\n"
    target = tmp_path / "dep.dist"
    target.write_text(out)
    code, out, err = run(
        ["trust", str(program), "--target", str(target), "--epsilon", "1/100"],
        capsys,
    )
    assert err == ""
    assert code == 0
    assert "verdict: trusted" in out


DEPENDENT_PROGRAM = (
    "atom A : *\natom a : A\natom P : pi x:A. *\n"
    "atom c : forall x:A. P x\natom d : forall x:A. P x\n\n"
    "main = c ((\\x:A. x) a)\n"
)


@pytest.mark.parametrize(
    "target, code, expected",
    [
        # d a is unreached, and its type P a is that of the reached c a
        ("c a = 1/2\nd a = 1/2\n", 1, "d a: target 1/2 derived 0 deviation 1/2 fail"),
        ("c a = 1/2\nd = 1/2\n", 1, "[UnknownOutcome] outcome d has type"),
    ],
)
def test_trust_types_an_unreached_outcome_against_reached_ones(
    capsys, tmp_path, target, code, expected
):
    program = tmp_path / "dep.olam"
    program.write_text(DEPENDENT_PROGRAM)
    spec = tmp_path / "dep.dist"
    spec.write_text(target)
    status, out, err = run(
        ["trust", str(program), "--target", str(spec), "--epsilon", "1/100"],
        capsys,
    )
    assert status == code
    assert expected in out + err
    if "UnknownOutcome" not in expected:
        assert err == "" and "verdict: untrusted" in out


def test_oracle_answers_are_not_captured_by_binders(capsys, tmp_path):
    """The answer a names the atom, not the binder \\a it lands under, so
    the binder is renamed and main stays a constant function."""
    program = tmp_path / "capture.olam"
    program.write_text("atom A : *\natom a : A\n\nuse o\n\nmain = \\a:A. #o!\n")
    oracles = tmp_path / "capture_oracles.olam"
    oracles.write_text("oracle o arity 0 type Sigma A\n  default -> a\n")
    files = [str(program), "--oracles", str(oracles)]
    assert run(["dist", *files], capsys)[1] == "\\a1:A. a = 1\n"
    assert run(["trace", *files], capsys)[1] == (
        "main: \\a:A. #o!\n"
        "path 1: probability 1, outcome \\a1:A. a\n"
        "  \\a:A. #o!\n"
        "  -> \\a1:A. a  [ω 1]\n"
    )
    assert "\\a1:A. a = 10/10\n" in run(["eval", *files], capsys)[1]


@pytest.mark.parametrize(
    "first, rest, shown",
    [("b", "a", "<\\a:A. b, a> = 1\n"), ("a", "a1", "<\\a1:A. a, a1> = 1\n")],
)
def test_oracle_rewrite_renames_a_binder_for_its_own_hole(
    tmp_path, capsys, first, rest, shown
):
    """An oracle rewrite substitutes each answer for its hole: the binder
    over hole 1 is renamed only when hole 1's own answer has its name
    free, and only away from that answer's names, since hole 2 stands
    outside it."""
    prog = tmp_path / "prog.olam"
    prog.write_text(
        "atom A : *\natom a : A\natom b : A\natom a1 : A\n\nuse c\n\n"
        "main = <\\a:A. #c!, #c!>\n"
    )
    orc = tmp_path / "oracles.olam"
    orc.write_text(
        "oracle c arity 0 type Sigma A\n"
        f"  rule index in {{1}} -> {first}\n"
        f"  default -> {rest}\n"
    )
    code, out, err = run(["dist", str(prog), "--oracles", str(orc)], capsys)
    assert (code, out, err) == (0, shown, "")


def test_fuel_exhaustion_is_domain_error(project, capsys):
    prog, orc = project("(\\x:A. x) ((\\y:A. y) a)")
    code, _, err = run(
        ["dist", prog, "--oracles", orc, "--fuel", "1"], capsys
    )
    assert code == 1
    assert "FuelExhausted" in err


def _one_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "main_term, oracle_text",
    [
        ("choose[²/3]{a}{b}!", ORACLE_TEXT),
        ("a", "oracle c arity ² type Sigma A\n  default -> a\n"),
        ("a", ORACLE_TEXT.replace("mod 3 = 1", "mod ² = 1")),
    ],
)
def test_non_ascii_digits_are_stray_characters(
    main_term, oracle_text, capsys, tmp_path
):
    program = tmp_path / "prog.olam"
    program.write_text(PROGRAM_HEADER + f"main = {main_term}\n", encoding="utf-8")
    oracles = tmp_path / "oracles.olam"
    oracles.write_text(oracle_text, encoding="utf-8")
    code, out, err = run(["dist", str(program), "--oracles", str(oracles)], capsys)
    assert code == 1
    assert out == ""
    assert _one_error_line(err) and "[Lexical]" in err and "²" in err


def test_numerals_longer_than_int_accepts_are_parse_errors(project, capsys):
    prog, orc = project("choose[" + "1" * 5000 + "/3]{a}{b}!")
    code, out, err = run(["dist", prog, "--oracles", orc], capsys)
    assert code == 1
    assert out == ""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    expected = "MalformedNumeral" if 0 < limit < 5000 else "ProbabilityOutOfRange"
    assert _one_error_line(err) and f"[{expected}]" in err


def test_deep_input_is_a_coded_error(project, capsys, tmp_path):
    """Input nested past the checker's recursion limit ends in one coded
    error line, not a traceback; the parser reads it."""
    deep = tmp_path / "deep.olam"
    deep.write_text(
        "atom A : *\natom a : A\natom g : A -> A\n"
        f"main = {'g (' * 4999}g a{')' * 4999}\n"
    )
    surface.parse_program(deep.read_text())
    for argv in (["check", str(deep)], ["dist", str(deep)]):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: [DepthExceeded]")
        assert err.count("\n") == 1
        assert "Traceback" not in err


def right_nested_tuple(items):
    text = items[-1]
    for item in reversed(items[:-1]):
        text = f"<{item}, {text}>"
    return text


@pytest.mark.parametrize(
    "main_term, outcome",
    [
        # g (g (... a)), 400 applications deep
        ("g (" * 400 + "a" + ")" * 400, "g (" * 399 + "g a" + ")" * 399),
        # a right-nested 400-tuple of beta redexes
        (
            right_nested_tuple(["(\\x:A. x) a"] * 400),
            right_nested_tuple(["a"] * 400),
        ),
    ],
    ids=["deep", "wide_beta"],
)
def test_dist_reads_400_levels(main_term, outcome, capsys, tmp_path):
    """A term nesting level takes two Python frames of the parser."""
    program = tmp_path / "prog.olam"
    program.write_text(
        f"atom A : *\natom a : A\natom g : A -> A\nmain = {main_term}\n"
    )
    code, out, err = run(["dist", str(program)], capsys)
    assert (code, err) == (0, "")
    assert out == f"{outcome} = 1\n"


def test_oracle_freq_and_trust_5000_samples_run(project, capsys, tmp_path):
    """A width-5000 table is a tuple nested 5000 deep; decomposing, filling
    and printing it run on explicit stacks, so it fits the recursion limit."""
    prog, orc = project("#c!")
    code, out, err = run(
        ["oracle-freq", prog, "--oracles", orc, "--samples", "5000"], capsys
    )
    assert code == 0
    assert out == "a = 1667/2500\nb = 833/2500\n"
    assert err == ""
    target = tmp_path / "target.dist"
    target.write_text("a = 2/3\nb = 1/3\n")
    code, out, err = run(
        ["trust", prog, "--oracles", orc, "--target", str(target),
         "--epsilon", "1/100", "--samples", "5000"],
        capsys,
    )
    assert code == 0
    assert out.startswith("verdict: trusted\n")
    assert "a: target 2/3 derived 1667/2500" in out
    assert err == ""


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_is_quiet_exit_2(project, capsys, monkeypatch):
    """A reader that closes stdout early gets no error line, and the exit
    status is 2: the output was not all written."""
    prog, orc = project("choose[1/3]{a}{b}!")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["dist", prog, "--oracles", orc])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == ""


def test_import_loads_no_dataclasses():
    """olam builds its nodes and records from their field strings, so a
    fresh process that imports the CLI loads neither dataclasses nor the
    inspect module it imports.  -S keeps site hooks from loading either."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import olam.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == "[]\n"
