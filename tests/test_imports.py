"""What the package and its tests import.

The package runs on NumPy alone: no route loads SciPy, which only the tests
use, and no noiseless route loads ``numpy.random``.  Every
imported name in ``src/qmcmc``, ``tests`` and ``scripts`` is used in its
module; ``__init__.py`` files re-export and ``__future__`` imports are
directives, so both are skipped.
"""

from __future__ import annotations

import ast
import json
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


# Every noiseless route, printed as one JSON object.  With "blocked" as its
# argument the script first makes every numpy.random import raise ImportError.
_NOISELESS_ROUTES = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy.random"] = None
import numpy as np
import qmcmc
from qmcmc.algorithms import FunctionOracle, phase_estimation, prepare_stationary, qae_mean
from qmcmc.circuit import unitary_of
from qmcmc.experiments import reference_pipelines
from qmcmc.markov import two_state_kernel
from qmcmc.noise import ZERO_NOISE, sample_with_noise
from qmcmc.spue import szegedy_walk, two_state_row_prep
from qmcmc.statevector import from_amplitudes

out = {}
measured = [n for n in qmcmc.EXPERIMENT_NAMES if n != "spectral-check"]
assert len(measured) == 6, measured
for name in measured:
    out[name] = qmcmc.run(qmcmc.ExperimentSpec(name, shots=50, seed=7)).to_json()
pipeline = reference_pipelines()["cswap-state-prep"]
out["zero-noise"] = sample_with_noise(pipeline, ZERO_NOISE, 200, 7)
kernel = two_state_kernel(0.25)
walk = szegedy_walk(kernel)
initial = from_amplitudes(unitary_of(two_state_row_prep(kernel))[:, 0])
out["phase_estimation"] = phase_estimation(walk.circuit, initial, 4, 200, (7, 1)).histogram
uniform = from_amplitudes(np.full(2, 2**-0.5))
oracle = FunctionOracle.from_table([0.2, 0.9], 1)
out["qae_mean"] = {repr(k): v for k, v in qae_mean(uniform, oracle, 4, 200, 7).items()}
state, prob = prepare_stationary(walk, initial, 3)
out["prepare_stationary"] = [state.amps.tobytes().hex(), prob]
print(json.dumps(out, sort_keys=True))
"""


def test_noiseless_routes_never_load_numpy_random():
    # philox_key derives the key itself, so only the noisy engine needs numpy.random.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = {
        mode: subprocess.run(
            [sys.executable, "-c", _NOISELESS_ROUTES, mode],
            env=env, capture_output=True, text=True, timeout=300,
        )
        for mode in ("blocked", "open")
    }
    for done in runs.values():
        assert done.returncode == 0, done.stderr
    assert runs["blocked"].stdout == runs["open"].stdout
    assert len(json.loads(runs["blocked"].stdout)["phase_estimation"]) > 1


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
