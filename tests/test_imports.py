"""What the package and its tests import.

SciPy is loaded only by the Barenco lowering in ``transpile``, so importing
``qmcmc`` and running a noiseless experiment never pay for it.  Every
imported name in ``src/qmcmc``, ``tests`` and ``scripts`` is used in its
module; ``__init__.py`` files re-export and ``__future__`` imports are
directives, so both are skipped.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scipy_stays_off_the_noiseless_path():
    script = (
        "import sys\n"
        "import qmcmc\n"
        "assert 'scipy' not in sys.modules, 'import qmcmc loaded scipy'\n"
        "measured = [n for n in qmcmc.EXPERIMENT_NAMES if n != 'spectral-check']\n"
        "assert len(measured) == 6, measured\n"
        "for name in measured:\n"
        "    qmcmc.run(qmcmc.ExperimentSpec(name, shots=10))\n"
        "    assert 'scipy' not in sys.modules, f'a noiseless {name} run loaded scipy'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    paths = [
        path
        for folder in ("src/qmcmc", "tests", "scripts")
        for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert paths
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
