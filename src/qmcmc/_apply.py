"""Low-level dense gate application on raw amplitude arrays.

Amplitude arrays are indexed with the leftmost qubit of the register order as
the most significant bit of the basis-state index.  The kernel works on
batch-first arrays of shape ``(B, 2, ..., 2)``: axis 0 holds B independent
statevectors (noise trajectories, or the basis columns of a unitary) and axis
q + 1 is qubit q.  ``apply_matrix`` is the entry for one flat state of shape
``(2**n,)``, ``apply_matrix_nd`` the entry for a batch, and ``evolve`` runs a
batch through a sequence of ``(matrix, targets, controls)`` gates such as
``Circuit.gates()``.  No entry mutates its input.

A gate's layout work is planned once per register shape and reused: the axis
permutation that brings the targets last (and its inverse) is cached on
``(ndim, targets)``, and a controlled gate's selector of the all-ones control
slice, with its targets renumbered inside that slice, on
``(n, targets, controls)``.  Each call then costs one transpose, one reshape
and the ``flat @ mat.T`` product, on the same layout as ``np.moveaxis``
would give, so amplitudes do not depend on whether a plan was cached.

The module also owns the rules that other modules share: the byte budget
``DENSE_BYTES`` and its one comparison, the one dense product
(``serial_blocks``, ``serial_product``) that keeps OpenBLAS on the calling
thread, the Gram deviation behind every unitarity and isometry check, the one
number-type rule for gate parameters, spec fields and noise rates, the one
count rule (shots, phase bits, powers and register widths), and the
read-only array copy.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Integral
from typing import Iterable, Iterator

import numpy as np

Gate = tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]

# Byte budget of one dense 2**n x 2**n complex matrix built from a circuit
# (the noisy engine's input frame, phase estimation's circuit unitary): its
# 16 * 4**n bytes fit for n <= 11.  Phase estimation's rows share it.
DENSE_BYTES = 64 << 20
# OpenBLAS runs a complex GEMM on its thread pool once m * n * k reaches
# 2**16, and a woken pool spins for about 0.1 s waiting for more work.  The
# dense products stay below that size (see ``serial_blocks``), so their callers
# hold one core and their speed does not hang on a second one being free.
_SERIAL_MNK = 1 << 16


def check_dense_bytes(nbytes: int, holds: str, excess: str) -> None:
    """Raise ``ValueError`` unless ``nbytes`` fits in ``DENSE_BYTES``; the
    message reads ``"<holds>; <excess> its 64 MiB budget"``."""
    if nbytes > DENSE_BYTES:
        raise ValueError(f"{holds}; {excess} its {DENSE_BYTES >> 20} MiB budget")


def gram_deviation(m: np.ndarray) -> float:
    """``max |m^dag m - I|``: how far ``m`` is from unitary, or from orthonormal columns."""
    return float(np.max(np.abs(serial_product(m.conj().T, m) - np.eye(m.shape[1]))))


def serial_blocks(rows: np.ndarray, mat: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(first, rows[first:first + b] @ mat)`` for consecutive row blocks
    of ``rows``, each product under ``_SERIAL_MNK`` where ``mat`` allows it.

    The blocks have one height, at least two rows because NumPy hands a
    one-row product to GEMV, which OpenBLAS threads at a smaller size still.
    Zero rows pad the ragged last block to that height, and its product is cut
    back, so every row goes through the same kind of kernel call.  A caller that
    reduces each block as it comes never holds the whole product.

    Where even two rows reach ``_SERIAL_MNK`` (``mat`` of 2**15 entries or
    more), no block stays on one thread, and thin blocks would only reread
    ``mat`` once each; the blocks then hold about ``_SERIAL_MNK`` output
    entries each, which still bounds the memory of one block.
    """
    size = len(rows)
    if 2 * mat.size < _SERIAL_MNK:
        most = (_SERIAL_MNK - 1) // mat.size
    else:
        most = max(2, _SERIAL_MNK // mat.shape[1])
    count = max(1, -(-size // most))
    block = max(2, -(-size // count))
    for first in range(0, size, block):
        part = rows[first : first + block]
        if len(part) < block:
            pad = np.zeros((block - len(part), rows.shape[1]), dtype=rows.dtype)
            part = np.concatenate([part, pad])
        yield first, (part @ mat)[: size - first]


def serial_product(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat`` on the calling thread, assembled from ``serial_blocks``."""
    out = np.empty((len(rows), mat.shape[1]), dtype=np.result_type(rows, mat))
    for first, product in serial_blocks(rows, mat):
        out[first : first + len(product)] = product
    return out


def is_plain_real(value) -> bool:
    """True for a ``float`` (``np.float64`` included) or a non-``bool`` ``int``.

    Other reals are refused, not coerced: ``float(np.float32(0.1))`` is not 0.1,
    and a report must hold the value it was given.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_count(value) -> bool:
    """True for an integral (``np.int64`` included), non-``bool`` number >= 1."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 1


def readonly(a, dtype=float) -> np.ndarray:
    """A write-protected copy of ``a`` with the given dtype."""
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def apply_matrix(
    amps: np.ndarray,
    mat: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
    num_qubits: int,
) -> np.ndarray:
    """Apply ``mat`` to the target qubits of one flat state, conditioned on all
    controls being 1; returns a new ``(2**n,)`` array."""
    out = _apply(amps.reshape((1,) + (2,) * num_qubits), mat, targets, controls)
    return out.reshape(amps.shape)


def apply_matrix_nd(
    arr: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], controls: tuple[int, ...]
) -> np.ndarray:
    """Gate application on a batch-first ``(B, 2, ..., 2)`` array."""
    return _apply(arr, mat, targets, controls)


def evolve(batch: np.ndarray, gates: Iterable[Gate]) -> np.ndarray:
    """Apply each ``(matrix, targets, controls)`` gate to a batch-first array, in order."""
    for mat, targets, controls in gates:
        batch = apply_matrix_nd(batch, mat, targets, controls)
    return batch


def _apply(
    arr: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], controls: tuple[int, ...]
) -> np.ndarray:
    k = len(targets)
    if mat.shape != (2**k, 2**k):
        raise ValueError(f"matrix shape {mat.shape} does not address {k} qubits")
    if not controls:
        # No in-place writes happen on this path, so a view suffices.
        return _apply_to_block(arr, mat, targets)
    sel, sub_targets = _control_plan(arr.ndim - 1, targets, controls)
    out = arr.copy()
    out[sel] = _apply_to_block(out[sel], mat, sub_targets)
    return out


def _apply_to_block(block: np.ndarray, mat: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    forward, inverse = _block_plan(block.ndim, targets)
    moved = block.transpose(forward)
    out = moved.reshape(-1, mat.shape[0]) @ mat.T
    return out.reshape(moved.shape).transpose(inverse)


@lru_cache(maxsize=1024)
def _block_plan(ndim: int, targets: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order with the target axes last, in target order, and its inverse."""
    src = tuple(t + 1 for t in targets)
    forward = tuple(ax for ax in range(ndim) if ax not in src) + src
    inverse = tuple(forward.index(ax) for ax in range(ndim))
    return forward, inverse


@lru_cache(maxsize=1024)
def _control_plan(
    n: int, targets: tuple[int, ...], controls: tuple[int, ...]
) -> tuple[tuple, tuple[int, ...]]:
    """Selector of the all-ones control slice and the targets' axes inside it."""
    sel = [slice(None)] * (n + 1)
    for c in controls:
        sel[c + 1] = 1
    # Control axes are dropped in the sliced view; remap target positions.
    remaining = [q for q in range(n) if q not in controls]
    return tuple(sel), tuple(remaining.index(t) for t in targets)


def marginal_probabilities(
    amps: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Born probabilities over the given qubits, in the given qubit order.

    ``amps`` holds B states, flat or batch-first; returns shape ``(B, 2**k)``.
    """
    probs = np.abs(amps.reshape((-1,) + (2,) * num_qubits)) ** 2
    keep = [q + 1 for q in qubits]
    drop = tuple(ax for ax in range(1, probs.ndim) if ax not in keep)
    probs = probs.sum(axis=drop)
    # Axes collapse preserves ascending qubit order; permute to requested order.
    ascending = sorted(qubits)
    src = [1 + ascending.index(q) for q in qubits]
    probs = np.moveaxis(probs, src, range(1, 1 + len(qubits)))
    return probs.reshape(-1, 2 ** len(qubits))
