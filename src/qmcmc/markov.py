"""Classical Markov-chain machinery.

Kernels, stationary measures, reversibility, discriminant matrices and
spectral gaps.  This is the classical oracle every quantum construction in
the package is tested against.  State spaces are desk-scale, so everything
is dense and eigendecomposition-based; power iteration survives only as an
independent cross-check in the test suite.

All types are immutable after construction and all operations are pure
functions, so they are safe to use from any number of threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._apply import readonly
from .config import BALANCE_TOL, ROW_SUM_TOL, STATIONARY_TOL, SYMMETRY_TOL
from .errors import NotErgodic, NotReversible, NotSymmetric, SchemaError


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """Row-stochastic transition matrix over a finite state space."""

    p: np.ndarray

    def __post_init__(self):
        p = readonly(self.p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"kernel must be square, got shape {p.shape}")
        if p.shape[0] < 2:
            raise ValueError("kernel needs at least 2 states")
        if np.any(p < 0):
            raise ValueError("kernel entries must be nonnegative")
        row_err = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        if not row_err <= ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (max deviation {row_err:.3e})")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @cached_property
    def is_ergodic(self) -> bool:
        """Irreducible and aperiodic, i.e. the support of p is primitive.

        Wielandt's theorem: a nonnegative n x n matrix is primitive iff its
        ((n-1)^2 + 1)-th power is positive.  A row-stochastic support keeps
        a positive power positive, so squaring past that exponent suffices.
        """
        power, exponent = self.p > 0, 1
        while exponent < (self.n - 1) ** 2 + 1:
            power, exponent = power @ power, 2 * exponent
        return bool(power.all())

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "p": self.p.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "MarkovKernel":
        try:
            obj = json.loads(text)
            n, p = obj["n"], np.asarray(obj["p"], dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed kernel JSON: {exc}") from exc
        if p.shape != (n, n):
            raise SchemaError(f"declared n={n} does not match matrix shape {p.shape}")
        try:
            return cls(p)
        except ValueError as exc:
            raise SchemaError(f"kernel invariants violated: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over a finite state space."""

    weights: np.ndarray

    def __post_init__(self):
        w = readonly(self.weights)
        if w.ndim != 1:
            raise ValueError("distribution must be a vector")
        if np.any(w < 0):
            raise ValueError("probabilities must be nonnegative")
        if not abs(float(w.sum()) - 1.0) <= ROW_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)


def _two_state_matrix(delta: float) -> np.ndarray:
    """(1 - d) I + d X, the two-state kernel matrix, for every d in [0, 1]."""
    return np.array([[1 - delta, delta], [delta, 1 - delta]])


def two_state_kernel(delta: float) -> MarkovKernel:
    """Symmetric two-state kernel [[1-d, d], [d, 1-d]]."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return MarkovKernel(_two_state_matrix(delta))


def flip_proposal() -> MarkovKernel:
    """Deterministic two-state flip, the proposal behind the swap encodings."""
    return MarkovKernel(_two_state_matrix(1.0))


def stationary(kernel: MarkovKernel) -> Distribution:
    """Unique stationary distribution of an ergodic kernel.

    Dense eigendecomposition of p^T, eigenvalue nearest 1, normalized; the
    result is verified to satisfy pi @ p = pi before being returned.
    """
    if not kernel.is_ergodic:
        raise NotErgodic("kernel is reducible or periodic; no unique stationary law")
    vals, vecs = np.linalg.eig(kernel.p.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    pi = pi * np.sign(pi.sum())
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    resid = float(np.max(np.abs(pi @ kernel.p - pi)))
    if not resid <= STATIONARY_TOL:
        raise NotErgodic(f"stationary solve failed to converge (residual {resid:.3e})")
    return Distribution(pi)


def discriminant(kernel: MarkovKernel, pi: Distribution) -> np.ndarray:
    """Symmetrized kernel D(x, y) = sqrt(pi(x)/pi(y)) p(x, y).

    Requires detailed balance pi(x) p(x,y) = pi(y) p(y,x); for reversible
    kernels D is symmetric and isospectral with p.
    """
    w = pi.weights
    if np.any(w <= 0):
        raise ValueError("discriminant requires strictly positive pi")
    flow = w[:, None] * kernel.p
    balance_err = float(np.max(np.abs(flow - flow.T)))
    if not balance_err <= BALANCE_TOL:
        raise NotReversible(f"detailed balance violated (max flow asymmetry {balance_err:.3e})")
    d = np.sqrt(w[:, None] / w[None, :]) * kernel.p
    asym = float(np.max(np.abs(d - d.T)))
    if not asym <= SYMMETRY_TOL:
        raise NotSymmetric(f"discriminant asymmetry {asym:.3e} exceeds tolerance")
    return d


def metropolis_hastings(
    proposal: MarkovKernel, acceptance: Callable[[int, int], float]
) -> MarkovKernel:
    """Kernel with off-diagonal p(x,y) = T(x,y) A(x,y); rejected mass stays put."""
    n = proposal.n
    a = np.array([[acceptance(x, y) for y in range(n)] for x in range(n)], dtype=float)
    if np.any(a < 0) or np.any(a > 1):
        raise ValueError("acceptance values must lie in [0, 1]")
    p = proposal.p * a
    np.fill_diagonal(p, 0.0)
    # Clip rounding dust: off-diagonal mass can exceed 1 by ~1 ulp.
    np.fill_diagonal(p, np.maximum(0.0, 1.0 - p.sum(axis=1)))
    return MarkovKernel(p)


def constant_acceptance(delta: float) -> Callable[[int, int], float]:
    """Accept every proposed move with fixed probability delta."""
    if not 0 <= delta <= 1:
        raise ValueError("acceptance probability must lie in [0, 1]")
    return lambda x, y: delta


def metropolis_acceptance(pi: Distribution) -> Callable[[int, int], float]:
    """Classic min(1, pi(y)/pi(x)) rule; targets pi for symmetric proposals."""
    w = pi.weights
    if np.any(w <= 0):
        raise ValueError("metropolis rule requires strictly positive pi")
    return lambda x, y: min(1.0, w[y] / w[x])


def spectral_gap(kernel: MarkovKernel) -> float:
    """1 - max{|l| : l eigenvalue of the discriminant, l != 1}."""
    pi = stationary(kernel)
    d = discriminant(kernel, pi)
    vals = np.linalg.eigvalsh(d)
    rest = np.delete(vals, int(np.argmin(np.abs(vals - 1.0))))
    return float(1.0 - np.max(np.abs(rest)))
