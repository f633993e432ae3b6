import os
import subprocess
import sys
from pathlib import Path

import nufd

LIBRARY_MODULES = (nufd.analysis, nufd.diffops, nufd.functions, nufd.ivp, nufd.mesh, nufd.metrics)


def test_the_package_exports_exactly_its_modules_public_names():
    declared = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))  # no two modules declare one name
    assert sorted(nufd.__all__) == sorted(declared)
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(nufd, name) is getattr(module, name), f"nufd.{name}"


def test_importing_the_package_leaves_the_cli_unloaded():
    code = "import sys, nufd; print(sorted({'click', 'nufd.cli', 'nufd.parsing', 'nufd.presets'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(nufd.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
