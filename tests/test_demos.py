"""Smoke test: every script under demos/ runs to completion in a fresh
process and prints something, so a public name it imports cannot vanish
unnoticed."""

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
