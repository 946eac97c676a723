"""The package's public names, each resolved (PEP 562) from its layer on
first use."""

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


# The layer modules, and mpmath, which zpcount.fourier imports.
_MODULES = ("mpmath", "zpcount.core", "zpcount.counting", "zpcount.extremal",
            "zpcount.fourier", "zpcount.pollard")


# What the first lookup of a name loads: its layer and what that layer imports.
_FIRST_LOADS = {
    "__version__": ["zpcount.core"],
    "Subset": ["zpcount.core"],
    "s_k_count": ["zpcount.core", "zpcount.counting"],
    "minimize_sk": ["zpcount.core", "zpcount.counting", "zpcount.extremal"],
    "threshold_profile": ["zpcount.core", "zpcount.counting", "zpcount.pollard"],
    "F_value": ["mpmath", "zpcount.core", "zpcount.fourier"],
}


@pytest.mark.parametrize("name", _FIRST_LOADS)
def test_lazy_name_loads_its_layer_once(name):
    # In a fresh process: importing the package loads no layer, and the
    # first lookup stores the value in the package namespace.
    script = (
        "import json, sys\n"
        "import zpcount\n"
        f"loaded = lambda: [m for m in {_MODULES!r} if m in sys.modules]\n"
        "before = loaded()\n"
        f"value = zpcount.{name}\n"
        f"print(json.dumps([before, loaded(), vars(zpcount).get({name!r}) is value]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], _FIRST_LOADS[name], True]


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == zpcount.__version__


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
