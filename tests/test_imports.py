"""What the package and its tests import.

The package runs on NumPy alone: no route loads SciPy, which only the tests
use.  Every
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


def test_runtime_runs_without_scipy():
    # A None entry in sys.modules makes every SciPy import raise ImportError.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qmcmc\n"
        "from qmcmc.cli import main\n"
        "from qmcmc.experiments import reference_pipelines\n"
        "from qmcmc.transpile import transpile_native\n"
        "noise = qmcmc.NoiseModel(p1=1e-3, p2=1e-2, p_meas=1e-2)\n"
        "assert noise.attach == 'native', noise.attach\n"
        "measured = [n for n in qmcmc.EXPERIMENT_NAMES if n != 'spectral-check']\n"
        "assert len(measured) == 6, measured\n"
        "for name in measured:\n"
        "    qmcmc.run(qmcmc.ExperimentSpec(name, shots=10, noise=noise))\n"
        "for circ in reference_pipelines().values():\n"
        "    transpile_native(circ)\n"
        "assert main(['transpile-report']) == 0\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert '"cswap-state-prep"' in done.stdout


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
