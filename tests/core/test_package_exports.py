"""Where the adaptive façade lives, and what ``repro.core`` exports.

``AdaptiveJoinProcessor`` builds a runtime session, so it lives in
:mod:`repro.runtime.adaptive` (above the core layer) and is re-exported
from the top-level ``repro`` package.  ``repro.core`` exports only the
MAR building blocks; the old ``repro.core.adaptive`` module is gone.
"""

import importlib
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
import repro.core
from repro.runtime import adaptive as runtime_adaptive

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"

FACADE_NAMES = ["AdaptiveJoinProcessor", "AdaptiveJoinResult", "AdaptiveSymmetricJoin"]


def test_core_adaptive_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.adaptive")


@pytest.mark.parametrize("name", FACADE_NAMES)
def test_core_does_not_export_the_facade(name):
    assert name not in repro.core.__all__
    assert not hasattr(repro.core, name)
    assert hasattr(runtime_adaptive, name)


def test_every_core_export_resolves():
    for name in repro.core.__all__:
        assert getattr(repro.core, name) is not None, name


def test_top_level_exports_the_runtime_facade_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repro.AdaptiveJoinProcessor is runtime_adaptive.AdaptiveJoinProcessor
        assert repro.AdaptiveJoinResult is runtime_adaptive.AdaptiveJoinResult


def test_importing_repro_warns_nothing():
    code = "import warnings; warnings.simplefilter('error'); import repro, repro.core"
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
