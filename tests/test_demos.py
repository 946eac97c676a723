"""Smoke test: every script under demos/ runs to completion in a fresh
process and prints something, so a public name it imports cannot vanish
unnoticed."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
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
