"""The scripts under ``tools/``: the bytes gate's reach, the code-line
count and the stage probe."""

import argparse
import importlib.util
import math
from pathlib import Path

import pytest

import recruitcast
from recruitcast import cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commands(parser: argparse.ArgumentParser, prefix: tuple = ()):
    """The words of each command that ``parser`` runs, a subcommand's
    words after its parent's."""
    if parser.get_default("func") is not None:
        yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))


def _words(argv: list) -> tuple:
    """The words of a call before its first option."""
    return tuple(argv[:next(i for i, word in enumerate(argv) if word.startswith("--"))])


def test_the_bytes_gate_runs_every_command(tmp_path):
    commands = set(_commands(cli.build_parser()))
    assert commands == {("fit",), ("predict",), ("simulate",), ("curves",), ("diagnose", "qq")}
    # gate_calls and refusal_calls only yield the calls, so nothing runs
    # and tmp_path stays empty
    gate = _tool("bytes_gate")
    assert {_words(argv) for _, argv in gate.gate_calls(tmp_path)} == commands
    # and its refusals reach every command that fits a trial
    assert {_words(argv) for argv in gate.refusal_calls()} == {
        ("fit",), ("predict",), ("diagnose", "qq")}
    assert not any(tmp_path.iterdir())


_SNIPPET = '''"""A module docstring,
over two lines."""

# a comment line
import math  # a comment after code


def f(x):
    """A function's docstring."""

    text = """a string that is no docstring,
over two lines"""
    return math.sqrt(x), text


class A:
    """A class's docstring."""

    y = 1
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, def, the two lines of text, return, class and y = 1
    assert _tool("code_lines").code_lines(_SNIPPET) == 7


def test_code_lines_totals_the_modules_of_a_package(tmp_path, capsys):
    (tmp_path / "one.py").write_text(_SNIPPET)
    (tmp_path / "two.py").write_text("x = 1\n\ny = 2\n")
    assert _tool("code_lines").main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["one.py", "7", "two.py", "2", "total", "9"]


@pytest.mark.parametrize("table", ["2", "3"])
def test_the_stage_probe_prints_five_stage_times_and_the_fit_faults_for_each_row(
        capsys, table):
    src = str(Path(recruitcast.__file__).resolve().parents[1])
    stages = _tool("stages")
    assert stages.main([src, "--table", table, "--reps", "12"]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["row", "seeding", "drawing", "fit_rows", "moments", "scoring", "faults"]
    assert [row[0] for row in rows] == ["1", "2", "3", "4", "5", "6", "7", "total"]
    for _, *micros, faults in rows:
        assert len(micros) == 5
        assert all(float(m) > 0 and math.isfinite(float(m)) for m in micros)
        assert float(faults) >= 0 and math.isfinite(float(faults))
