"""Golden SHA-256 digests of reports, states, unitaries and native circuits.

These pin the exact bits the package produces, so a change to the simulator
paths that moves any histogram, any float in a report, any amplitude or any
native gate fails here.  Two runs in one process agreeing (``test_reproducible_byte_identical``)
cannot catch that.

Array digests cover the raw complex128 bytes, so they assume the same NumPy
and BLAS kernels.  Print the digests of the current code with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from math import pi

import numpy as np
import pytest

from qmcmc.algorithms import phase_estimation, prepare_stationary
from qmcmc.circuit import unitary_of
from qmcmc.experiments import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    cswap_state_prep_circuit,
    flip_proposal,
    reference_pipelines,
    run,
    run_with_comparison,
)
from qmcmc.markov import two_state_kernel
from qmcmc.noise import NoiseModel, apply_trajectory
from qmcmc.spue import (
    cswap_walk,
    dual_walk,
    lcu_walk,
    szegedy_walk,
    two_state_row_prep,
)
from qmcmc.statevector import basis_state, from_amplitudes, statevector_of
from qmcmc.transpile import transpile_native

MEASURED = tuple(name for name in EXPERIMENT_NAMES if name != "spectral-check")
NATIVE_NOISE = NoiseModel(p1=2e-5, p2=5e-3, p_meas=1e-3)
LOGICAL_NOISE = NoiseModel(p1=1e-3, p2=5e-2, p_meas=1e-2, attach="logical")
TRAJECTORY_NOISE = NoiseModel(p1=1e-3, p2=2e-2, p_meas=1e-2)


def _sha(payload: bytes | str) -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


def _array_sha(arr: np.ndarray) -> str:
    return _sha(np.ascontiguousarray(arr, dtype=complex).tobytes())


def _walks():
    kernel = two_state_kernel(0.25)
    return {
        "lcu": lcu_walk(0.25),
        "szegedy": szegedy_walk(kernel),
        "cswap": cswap_walk(flip_proposal(), pi / 6),
        "dual": dual_walk(pi / 4)[0],
    }


def _noiseless(name: str) -> str:
    return _sha(run_with_comparison(ExperimentSpec(name, shots=1000, seed=5)).to_json())


def _spectral(encoding: str) -> str:
    return _sha(run(ExperimentSpec("spectral-check", encoding=encoding)).to_json())


def _noisy(name: str) -> str:
    spec = ExperimentSpec(name, shots=200, seed=5, noise=NATIVE_NOISE)
    return _sha(run_with_comparison(spec).to_json())


def _logical_cswap() -> str:
    spec = ExperimentSpec("cswap-state-prep", shots=300, seed=5, noise=LOGICAL_NOISE)
    return _sha(run_with_comparison(spec).to_json())


def _qpe(mode: str) -> str:
    walk = szegedy_walk(two_state_kernel(0.25))
    unitary = walk.circuit if mode == "circuit" else walk.total
    pe = phase_estimation(unitary, basis_state(walk.circuit.num_qubits, 1), 4, 2000, 17)
    return _sha(json.dumps(sorted(pe.histogram.items())))


def _stationary() -> str:
    kernel = two_state_kernel(0.25)
    walk = szegedy_walk(kernel)
    initial = from_amplitudes(unitary_of(two_state_row_prep(kernel))[:, 0])
    state, prob = prepare_stationary(walk, initial, 3)
    return _sha(_array_sha(state.amps) + repr(prob))


def _walk_unitary(encoding: str) -> str:
    return _array_sha(unitary_of(_walks()[encoding].circuit))


def _dual_eigenstate() -> str:
    return _array_sha(statevector_of(dual_walk(pi / 4)[1]).amps)


def _native(name: str) -> str:
    return _sha(transpile_native(reference_pipelines()[name]).circuit.to_json())


def _native_ops(name: str) -> str:
    ops = transpile_native(reference_pipelines()[name]).circuit.ops
    return _sha(json.dumps([[op.kind, op.targets, op.controls] for op in ops]))


def _trajectories() -> str:
    circ = transpile_native(cswap_state_prep_circuit(pi / 6)).circuit
    parts = []
    for shot in range(200):
        state, outcomes = apply_trajectory(circ, TRAJECTORY_NOISE, 9, shot)
        parts.append(json.dumps(sorted(outcomes.items())) + _array_sha(state.amps))
    return _sha("\n".join(parts))


CASES = {
    **{f"noiseless/{name}": (lambda n=name: _noiseless(n)) for name in MEASURED},
    **{f"spectral/{enc}": (lambda e=enc: _spectral(e)) for enc in ("lcu", "szegedy", "cswap", "dual")},
    **{f"noisy/{name}": (lambda n=name: _noisy(n)) for name in MEASURED},
    "logical/cswap-state-prep": _logical_cswap,
    "qpe/circuit": lambda: _qpe("circuit"),
    "qpe/matrix": lambda: _qpe("matrix"),
    "prepare_stationary": _stationary,
    **{f"unitary_of/{enc}": (lambda e=enc: _walk_unitary(e)) for enc in ("lcu", "szegedy", "cswap", "dual")},
    "statevector_of/dual-eigenstate": _dual_eigenstate,
    "apply_trajectory/terminal": _trajectories,
    **{f"transpile/{name}": (lambda n=name: _native(n)) for name in reference_pipelines()},
    **{f"native-ops/{name}": (lambda n=name: _native_ops(n)) for name in reference_pipelines()},
}

GOLDEN = {
    "apply_trajectory/terminal": "8669eed75a4d0ada445dc6001b2154142f6dc641f283ac07e06e3460eccabed5",
    "logical/cswap-state-prep": "60c0e4f9f75707793cda8ab333724106fba432437b16fd335d3537fd434f7c05",
    "native-ops/cswap-state-prep": "b20740dbd568aa22180c9a9d00ba28e23e38fdb7f195453dfbc56d8529792f77",
    "native-ops/dual-eigenstate": "88134be26592681c0f5148755bca9974fadafda61dbd5079bba24f2fe21d8f62",
    "native-ops/dual-overlap": "97b2b79d4d7ff717805e6202a5ef45e82e012e5c6ff37ef2ae9adcb88aa27e12",
    "native-ops/lcu-qae": "6f8443d4a1f76f09c0d6497d564f617f9fd9cd5fbdbc33c0b706f99563a315e7",
    "native-ops/lcu-state-prep": "e08aade712cfd855227f5972266f41b6616b565d6645cf5b1ca7a4351b665e60",
    "native-ops/szegedy-state-prep": "4435df3b003131f4d525c7d28d8e5c19b9b3d7564abe4876c573a997b0582d07",
    "noiseless/cswap-state-prep": "24b4a6ef55746cd31f1af304746b23cb0692b319235288e82eb5a3fb4eec97c3",
    "noiseless/dual-eigenstate": "83831780bef2505e2f91ed503bf49e81a99bf644a6d4df50ecc24dddba67631a",
    "noiseless/dual-overlap": "5119c97ead772e1fc49312ed7bd237ab0c6ef3bef983cb68f93810378962fa61",
    "noiseless/lcu-qae": "c65f409e2cfe1d809d693895308ab1cc9c772ff0c95bd41e7e76e3e66c3b2aea",
    "noiseless/lcu-state-prep": "98b13a08ac95275aab0f3bd28a513d8938ef021c8d40b47054b421d72a77f753",
    "noiseless/szegedy-state-prep": "ee440e86fe8819fdc0475d7c9c17040e8a9d7e204eaa05785b3b2c90864c05c2",
    "noisy/cswap-state-prep": "7f37e314ff148ba7936fab2ca1330d8c2a5426ae12e7b24a346166d79b443e8e",
    "noisy/dual-eigenstate": "7541be9559f74e2306d9105c65f2301c3ca4ff3b563a355af55f25adb98889b4",
    "noisy/dual-overlap": "3288f3b9cbcf95bf81ade145fd818e123d27f0f8a9277cf76c24f2591449dcd1",
    "noisy/lcu-qae": "421c041f9ade55bb05c2d2d3ed53d3d06c131871b41d88d6f6e3532f15051e2e",
    "noisy/lcu-state-prep": "e2aaee152513769e7ddca459d81b5027361648b05a0fd408f106364d7509a233",
    "noisy/szegedy-state-prep": "d853fcb8ed741a82a277c78fcdd61f3997d303eca52f494392ce3372da005ca1",
    "prepare_stationary": "1ec55bdacb6ae52d01e4093e8afa918d7a0f0da177240f7dfda057953919c10b",
    "qpe/circuit": "9c77bde1951644d03fa0fbfad8010360e8244e25d8e777673b74a4eb7122a7cd",
    "qpe/matrix": "9c77bde1951644d03fa0fbfad8010360e8244e25d8e777673b74a4eb7122a7cd",
    "spectral/cswap": "8ba31e28e9f76a0648fe691bd99b224db51ca5032d3e9963c3df338e7f568511",
    "spectral/dual": "5a60c4abc764139a824546853f2d6f4c720749d83d6eb178d33ebbce9f1f847e",
    "spectral/lcu": "7d1d25caa0c8707620ae81529795817a36a33961a977109baf9e1c3c1688ff33",
    "spectral/szegedy": "66841ea1c47390403738435be87a3314b35d5fac5f0f4920ad90af9a5aed6d66",
    "statevector_of/dual-eigenstate": "f83d31764a7cdacd7a66da14a094500fa6a7b7620e82316a63495997e6d0baf0",
    "transpile/cswap-state-prep": "4bdc4a66ae1db3be147a03b21f4a50f07b0cc3456653873ee562129a011002c9",
    "transpile/dual-eigenstate": "bbdcb424f1bd495bcc17d1cab5d2b9c1770fea90aea897fb002b9e177e9a35d7",
    "transpile/dual-overlap": "e9d2aea32dcd1cc26ca2d8d09eb62170164c2706f872dca15312445eee03138b",
    "transpile/lcu-qae": "8c124ee817e60a5af0fd11e80df494a52e942a7f87a6c115f36c01459afaa805",
    "transpile/lcu-state-prep": "bedc8f2e336a9ccd2194de4b56f98a32d2e29c90dc8326695d8e37d728e1d9e5",
    "transpile/szegedy-state-prep": "2c8ec670e358638853ef49dafc09a283e50f72bae5f70f8817dd6dca2406d855",
    "unitary_of/cswap": "8ba11e8915287f859dd69086c5d3cd38217bf738e8a6e9ef852af89073f4a8a5",
    "unitary_of/dual": "bb1d1f124e20cc78e782900a459aa5e20cf54d9873e8849bafe347eae033d377",
    "unitary_of/lcu": "4bd52808878b234eba3d1bc39cc40ed31640c513cd673b7f2118c05436c3f30f",
    "unitary_of/szegedy": "569aa38baa083ae0c652925ccf5409d77f83599e6c395300abb6bb9424e8fe0e",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{CASES[case]()}",')
