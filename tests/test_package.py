"""The package's public names: eager ones from the exact layers, lazy ones
(PEP 562) from zpcount.fourier and zpcount.pollard."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import zpcount
from conftest import subprocess_env
from zpcount import core, fourier


def test_every_public_name_resolves():
    for name in zpcount.__all__:
        assert getattr(zpcount, name) is not None, name
    assert len(set(zpcount.__all__)) == len(zpcount.__all__)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from zpcount import *", namespace)
    assert set(zpcount.__all__) <= namespace.keys()


def test_dir_lists_every_public_name():
    assert set(zpcount.__all__) <= set(dir(zpcount))


def test_lazy_names_are_the_layer_objects():
    assert zpcount.F_value is fourier.F_value
    assert zpcount.PrecisionError is core.PrecisionError is fourier.PrecisionError


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zpcount.no_such_name  # noqa: B018


def test_lazy_name_loads_its_layer_once():
    # In a fresh process: importing the package loads neither lazy layer; the
    # first lookup loads fourier and stores the value in the package namespace.
    script = (
        "import json, sys\n"
        "import zpcount\n"
        "before = [m in sys.modules for m in ('mpmath', 'zpcount.fourier', 'zpcount.pollard')]\n"
        "value = zpcount.F_value\n"
        "after = ['zpcount.fourier' in sys.modules, 'zpcount.pollard' in sys.modules,\n"
        "         vars(zpcount).get('F_value') is value]\n"
        "print(json.dumps([before, after]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[False, False, False], [True, False, True]]


def test_subprocess_env_writes_no_bytecode(tmp_path):
    # a fresh copy of the package with no __pycache__, so bytecode left by
    # an earlier run in this checkout cannot hide a write
    shutil.copytree(Path(zpcount.__file__).resolve().parent, tmp_path / "zpcount",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = ("import sys, zpcount.cli, zpcount.fourier, zpcount.pollard\n"
              "print(sys.flags.dont_write_bytecode)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**subprocess_env(), "PYTHONPATH": str(tmp_path)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
    assert not list(tmp_path.rglob("__pycache__"))
