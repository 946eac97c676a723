"""Smoke tests: every script under demos/ runs to completion in a fresh
process and prints something, so a public name it imports cannot vanish
unnoticed, and README's examples run: the Quick-tour block with the values
it states, and each command of the "Command line" block."""

import ast
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env
from zpcount.cli import main

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMANDS = README.split("## Command line", 1)[1].split("```\n", 2)[1].splitlines()


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=subprocess_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_tour_states_its_values():
    # The python block under "Quick tour" runs, and each bare expression
    # evaluates to the value its comment states.
    block = README.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    stated = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
            assert comment.startswith(repr(value)), (comment, value)
            stated.append(value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert stated == [2255, 2255, 9, [(0, 1, 2)]]


def test_readme_command_block_is_found():
    assert len(COMMANDS) == 10 and all(line.startswith("zpcount ") for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(capsys, line):
    # each example under "Command line", run in process: exit 0 and one JSON
    # document naming its command
    argv = shlex.split(line)[1:]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
