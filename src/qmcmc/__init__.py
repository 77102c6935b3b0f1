"""Quantum Markov chain Monte Carlo simulation toolkit.

Markov-kernel unitary encodings (linear combination of unitaries, Szegedy,
controlled-swap, pair-space Metropolis-Hastings), qubitized walk operators,
phase-estimation state preparation, amplitude-estimation mean estimation, a
dense statevector engine with trajectory noise, and an experiment runner
that reproduces the bundled reference datasets.
"""

from .markov import (
    Distribution,
    MarkovKernel,
    constant_acceptance,
    discriminant,
    metropolis_acceptance,
    metropolis_hastings,
    spectral_gap,
    stationary,
    two_state_kernel,
)
from .circuit import Circuit, GateApplication, controlled, unitary_of
from .statevector import (
    StateVector,
    basis_state,
    from_amplitudes,
    post_select,
    statevector_of,
    zero_state,
)
from .transpile import TranspileReport, transpile_native
from .spue import (
    PartialIsometry,
    Spue,
    WalkOperator,
    check_spectral_correspondence,
    cswap_encoding,
    cswap_walk,
    dual_walk,
    encoded_operator,
    lcu_encoding,
    lcu_walk,
    szegedy_encoding,
    szegedy_walk,
    walk_operator,
)
from .algorithms import (
    FunctionOracle,
    PhaseEstimate,
    phase_estimation,
    prepare_stationary,
    qae_mean,
)
from .noise import ZERO_NOISE, NoiseModel, sample_with_noise
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentReport,
    ExperimentSpec,
    compare,
    run,
    run_with_comparison,
    transpile_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
