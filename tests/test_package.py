"""The package's public names: eager ones from the exact layers, lazy ones
(PEP 562) from zpcount.fourier and zpcount.pollard."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import zpcount
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
    src = str(Path(zpcount.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[False, False, False], [True, False, True]]
