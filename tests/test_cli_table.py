"""The command table against the argparse parser it replaced.

``cli._parse`` reads a well-formed command line off the command table
``cli._COMMANDS``; every other command line goes to the argparse that
``cli._parser`` builds from the same table.  ``oracles.build_parser``
is the hand-written parser the table replaced.  For every command line
the table's parse either declines it or gives the reference's
namespace, and ``cli.main`` gives what it gave on the reference: exit
code, stdout, stderr and written file.  Every parser node's help text
is the reference's, and the documented command lines never build
argparse at all.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from dynlab import cli
from oracles import build_parser
from test_cli import FROZEN_REPORTS, frozen_files
from test_readme import readme_commands

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = build_parser()


def nodes(parser, words=()):
    """(command words, parser) for every node of an argparse tree."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, child in action.choices.items():
                yield from nodes(child, (*words, word))


def options(parser):
    """The options of a command that runs, help aside."""
    return [action for action in parser._actions
            if action.option_strings and action.dest != "help"]


COMMANDS = {words: options(parser) for words, parser in nodes(REFERENCE)
            if not any(isinstance(action, argparse._SubParsersAction)
                       for action in parser._actions)}


def grammar_files(root):
    """The files the generated command lines name, written into ``root``:
    the xpq(3,2) shift, a three-point system, a lasso on it, a path that
    does not exist and an output path."""
    root = pathlib.Path(root)
    paths = {name: str(root / name) for name in
             ("shift.json", "system.json", "lasso.json", "missing.json",
              "out")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gallery", "xpq", "--p", "3", "--q", "2",
                         "--emit", paths["shift.json"]]) == 0
        assert cli.main(["gallery", "random", "--seed", "5", "--size", "3",
                         "--emit", paths["system.json"]]) == 0
    pathlib.Path(paths["lasso.json"]).write_text(json.dumps({"cycle": ["p0"]}))
    return paths


def values(action, paths):
    """Values to give an option of the reference parser, the canonical
    one first: small counts, thresholds, the files, and one bad value
    of each kind."""
    if action.choices is not None:
        return [*action.choices, "bogus"]
    if action.type is int:
        return ["1", "2", "3", "x"]
    return {"--system": [paths["shift.json"], paths["system.json"],
                         paths["missing.json"]],
            "--emit": [paths["out"]], "--csv": [paths["out"]],
            "--lasso": [paths["lasso.json"]],
            "--primes": ["2,3", "a,b"]}.get(action.option_strings[0],
                                            ["1/2", "1", "2", "0"])


def render(words, pairs):
    """A command line from its words and (flag, value) pairs; a value of
    None is a flag without one."""
    line = list(words)
    for flag, value in pairs:
        line += [flag] if value is None else [flag, value]
    return line


def canonical(words, paths):
    """(flag, value) pairs of a command: every option, at its canonical
    value (a flag given)."""
    return [(action.option_strings[0],
             None if action.nargs == 0 else values(action, paths)[0])
            for action in COMMANDS[words]]


def corpus(paths):
    """Each command's canonical line, each option at each value, dropped,
    repeated, abbreviated, in "=" form and given a value that looks like
    an option, plus help, --version, "--", an unknown option and wrong
    command words."""
    for words in COMMANDS:
        pairs = canonical(words, paths)
        yield render(words, pairs)
        yield render(words, pairs[::-1])
        for k, (flag, value) in enumerate(pairs):
            rest = pairs[:k] + pairs[k + 1:]
            yield render(words, rest)
            yield render(words, pairs + [(flag, value)])
            for prefix in {flag[:3], flag[:-1]} - {flag, "--"}:
                yield render(words, rest + [(prefix, value)])
            if value is None:
                continue
            for other in values(COMMANDS[words][k], paths)[1:] + ["-1",
                                                                   "-1/2"]:
                yield render(words, rest + [(flag, other)])
            yield render(words, rest) + [f"{flag}={value}"]
        for extra in (["-h"], ["--help"], ["--version"], ["--"],
                      ["--bogus", "1"], ["bogus"]):
            yield render(words, pairs) + extra
        yield render(words[:-1], pairs)
        yield ["--version", *render(words, pairs)]
    yield []


def outcome(argv, out):
    """``cli.main(argv)``'s exit code, stdout, stderr and the text it
    wrote to ``out`` (None when it wrote none), wall_ms zeroed.  It runs
    in the directory of ``out``, where a relative path such as the
    output file of ``--emit -1`` lands."""
    out, cwd = pathlib.Path(out), os.getcwd()
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            stderr), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        os.chdir(out.parent)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    written = out.read_text() if out.exists() else None
    return code, stderr.getvalue(), *(
        text and re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)
        for text in (stdout.getvalue(), written))


def reference_outcome(argv, out):
    """:func:`outcome` with the reference parser in place of the table."""
    table = cli._parse, cli._parser
    cli._parse, cli._parser = (lambda argv: None), (lambda: REFERENCE)
    try:
        return outcome(argv, out)
    finally:
        cli._parse, cli._parser = table


def reference_parse(argv):
    """vars() of the reference's namespace of ``argv``, or None when the
    reference exits (help, --version, an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()):
        try:
            return vars(REFERENCE.parse_args(argv))
        except SystemExit:
            return None


def check_command_line(argv, paths):
    parsed = cli._parse(argv)
    if parsed is not None:
        assert vars(parsed) == reference_parse(argv), argv
    assert outcome(argv, paths["out"]) == reference_outcome(
        argv, paths["out"]), argv
    return parsed is not None


def check_table_grammar(paths):
    """Every command line of :func:`corpus` against the reference; the
    table parses at least the canonical lines and declines at least
    the rest of the perturbations that argparse reads differently."""
    taken = sum(check_command_line(argv, paths) for argv in corpus(paths))
    assert taken >= 2 * len(COMMANDS)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return grammar_files(tmp_path_factory.mktemp("grammar"))


def test_table_grammar_matches_the_reference(paths):
    check_table_grammar(paths)


def mutate(draw, words, pairs, paths):
    """One perturbation of a command line, drawn."""
    kind = draw(st.sampled_from(
        ("none", "abbreviate", "equals", "repeat", "negative", "unknown",
         "token", "words")))
    line = render(words, pairs)
    if kind == "words":
        return draw(st.sampled_from([line[1:], ["bogus", *line],
                                     line[len(words):] + list(words)]))
    if kind == "token":
        at = draw(st.integers(0, len(line)))
        token = draw(st.sampled_from(["-h", "--version", "--", "-", "",
                                      "bogus", "--bogus"]))
        return line[:at] + [token] + line[at:]
    if kind == "unknown":
        return line + ["--bogus", "1"]
    if kind == "none" or not pairs:
        return line
    k = draw(st.integers(0, len(pairs) - 1))
    flag, value = pairs[k]
    rest = pairs[:k] + pairs[k + 1:]
    if kind == "abbreviate":
        prefix = flag[:draw(st.integers(3, len(flag)))]
        return render(words, rest + [(prefix, value)])
    if kind == "repeat":
        again = value if value is None else draw(st.sampled_from(
            values(next(a for a in COMMANDS[words]
                        if a.option_strings[0] == flag), paths)))
        return render(words, pairs + [(flag, again)])
    if value is None:
        return line
    if kind == "equals":
        return render(words, rest) + [f"{flag}={value}"]
    return render(words, rest + [(flag, draw(st.sampled_from(
        ["-1", "-1/2", "-x"])))])


@st.composite
def command_lines(draw, paths):
    words = draw(st.sampled_from(sorted(COMMANDS)))
    pairs = []
    for action in COMMANDS[words]:
        if action.required or draw(st.booleans()):
            value = None if action.nargs == 0 else draw(
                st.sampled_from(values(action, paths)))
            pairs.append((action.option_strings[0], value))
        if action.required and draw(st.integers(0, 9)) == 0:
            pairs.pop()  # a missing required option
    pairs = draw(st.permutations(pairs))
    return mutate(draw, words, pairs, paths)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_parse_agrees_with_the_reference(paths, data):
    check_command_line(data.draw(command_lines(paths)), paths)


def test_help_of_every_command_is_the_reference_help():
    built, reference = dict(nodes(cli._parser())), dict(nodes(REFERENCE))
    assert built.keys() == reference.keys()
    for words, parser in reference.items():
        assert built[words].format_help() == parser.format_help(), words
        assert built[words].format_usage() == parser.format_usage(), words


def test_documented_command_lines_take_the_table_path(capsys, tmp_path,
                                                      monkeypatch):
    """The frozen report cases, the README's command lines and the
    command-line demo run without building argparse."""
    builds = []
    monkeypatch.setattr(cli, "_parser", lambda: builds.append(1) or REFERENCE)
    files = frozen_files(capsys, tmp_path)
    for name, case in sorted(FROZEN_REPORTS.items()):
        argv = [files.get(a, a) for a in case["argv"]]
        assert vars(cli._parse(argv)) == reference_parse(argv), name
        with monkeypatch.context() as patch:
            for key, value in case["env"].items():
                patch.setenv(key, value)
            assert cli.main(argv) == case["exit"], name
    readme = tmp_path / "readme"
    readme.mkdir()
    monkeypatch.chdir(readme)
    for argv in readme_commands():
        assert cli._parse(argv) is not None, argv
        if "sys.json" not in argv:  # the README's illustrative file
            assert cli.main(argv) in (0, 1), argv
    demo = ROOT / "demos" / "05_cli_roundtrip.py"
    spec = importlib.util.spec_from_file_location("cli_roundtrip", demo)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main_demo()
    assert "(exit 0)" in capsys.readouterr().out
    assert builds == []


def test_a_table_path_command_imports_no_argparse():
    script = ("import sys, dynlab.cli\n"
              "code = dynlab.cli.main(['gallery', 'xpq', '--p', '3', "
              "'--q', '2'])\n"
              "print(sorted({'argparse', 'gettext'} & set(sys.modules)), "
              "code)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] 0"
