"""Each validation check keeps its own tolerance.

For every check, an input whose measured deviation is a quarter of the
tolerance is accepted, and one whose deviation is ten times the tolerance
raises the check's error.  The post-selection cutoff is a floor on the
branch probability, so there the accepted probability is four times the
cutoff and the rejected one a tenth of it.  The tolerances are written out
here as numbers, so a change to any of them in the package fails this test.
A NaN deviation fails every check.
"""

import numpy as np
import pytest

from qmcmc.algorithms import FunctionOracle, qae_mean
from qmcmc.circuit import GateApplication
from qmcmc.errors import (
    ConstructionInvalid,
    NotReversible,
    NotUnitary,
    PostSelectImpossible,
    SchemaError,
)
from qmcmc.markov import Distribution, MarkovKernel, discriminant
from qmcmc.spue import PartialIsometry, Spue, _check_encodes
from qmcmc.statevector import StateVector, from_amplitudes, post_select

INSIDE, OUTSIDE = 0.25, 10.0


def _kernel_rows(dev):
    # Row 0 sums to 1 + dev.
    MarkovKernel(np.array([[0.5 + dev, 0.5], [0.5, 0.5]]))


def _distribution_sum(dev):
    Distribution(np.array([0.5 + dev, 0.5]))


def _detailed_balance(dev):
    # Under the uniform law the flow asymmetry is |p01 - p10| / 2 = dev; the
    # discriminant's asymmetry (2 dev) stays within its own 1e-10 inside.
    a, b = 0.25, 0.25 + 2 * dev
    kernel = MarkovKernel(np.array([[1 - a, a], [b, 1 - b]]))
    discriminant(kernel, Distribution(np.array([0.5, 0.5])))


def _state_norm(dev):
    StateVector(1, np.array([1.0 + dev, 0.0]))


def _post_select(prob):
    # The selected branch has probability ``prob``; the cutoff is a floor.
    state = StateVector(1, np.array([np.sqrt(1 - prob), np.sqrt(prob)]))
    post_select(state, 0, 1)


def _gate_unitarity(dev):
    # diag(sqrt(1 + dev), 1) deviates from unitarity by dev in M^dag M.
    GateApplication("unitary", ("q",), matrix=np.diag([np.sqrt(1 + dev), 1.0]))


def _isometry_columns(dev):
    # A single column of norm sqrt(1 + dev): the Gram matrix deviates by dev.
    PartialIsometry(np.array([[np.sqrt(1 + dev)], [0.0]]))


def _encoded_kernel(dev):
    # The identity encoding of a one-state space, against the kernel [[1 + dev]].
    spue = Spue(np.eye(2), PartialIsometry(np.eye(2)[:, :1]))
    _check_encodes(spue, np.array([[1.0 + dev]]))


CHECKS = [
    ("kernel-row-sum", _kernel_rows, INSIDE * 1e-12, OUTSIDE * 1e-12, ValueError),
    ("distribution-sum", _distribution_sum, INSIDE * 1e-12, OUTSIDE * 1e-12, ValueError),
    ("detailed-balance", _detailed_balance, INSIDE * 1e-10, OUTSIDE * 1e-10, NotReversible),
    ("state-norm", _state_norm, INSIDE * 1e-10, OUTSIDE * 1e-10, ValueError),
    ("post-select-cutoff", _post_select, 1e-12 / INSIDE, 1e-12 / OUTSIDE, PostSelectImpossible),
    ("gate-unitarity", _gate_unitarity, INSIDE * 1e-10, OUTSIDE * 1e-10, NotUnitary),
    ("isometry-orthonormality", _isometry_columns, INSIDE * 1e-10, OUTSIDE * 1e-10, ValueError),
    ("encoded-kernel", _encoded_kernel, INSIDE * 1e-9, OUTSIDE * 1e-9, ConstructionInvalid),
]


@pytest.mark.parametrize(
    "build,inside,outside,error", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS]
)
def test_tolerance_boundary(build, inside, outside, error):
    build(inside)
    with pytest.raises(error):
        build(outside)


# A NaN deviation fails the check itself, or an earlier check that sees the
# NaN first: the NaN kernel fails the row sum, the NaN state its norm.
NAN_CAUGHT_EARLIER = {"detailed-balance": ValueError, "post-select-cutoff": ValueError}
NAN = float("nan")


@pytest.mark.parametrize(
    "name,build,error", [(c[0], c[1], c[4]) for c in CHECKS], ids=[c[0] for c in CHECKS]
)
def test_nan_deviation_raises(name, build, error):
    with pytest.raises(NAN_CAUGHT_EARLIER.get(name, error)):
        build(NAN)


def _qae_mean_of_nan_state():
    qae_mean(from_amplitudes([NAN, NAN]), FunctionOracle.from_table([0.0, 1.0], 1), 3, 100, 0)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (_qae_mean_of_nan_state, ValueError, None),
        (lambda: MarkovKernel.from_json('{"n": 2, "p": [[NaN, NaN], [NaN, NaN]]}'), SchemaError, None),
        (lambda: FunctionOracle.from_table([NAN, 1.0], 1), ValueError, r"must lie in \[0, 1\]"),
    ],
    ids=["qae-mean", "kernel-json", "oracle-table"],
)
def test_nan_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
