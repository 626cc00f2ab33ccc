import ast
import os
import subprocess
import sys
from pathlib import Path

import wavecrit

PACKAGE = Path(wavecrit.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_of_another():
    # a module's underscore names are its own: no other wavecrit module
    # reaches for them, so each one can change without a second reader
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "wavecrit"):
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} import "
                          f"{alias.name}" for alias in node.names if _private(alias.name)]
    assert not found, found


def test_the_kernels_load_no_lattice_module():
    # the spectral layer is a leaf: a fresh process that imports it loads neither the
    # march nor its modulus or weights
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, wavecrit.kernels; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "wavecrit.kernels" in loaded
    assert not {"wavecrit.modulus", "wavecrit.solver", "wavecrit.weights"} & set(loaded)
