"""Outside-in span tracing of the qmcmc module boundaries.

The program itself carries no instrumentation.  ``Tracer.install`` wraps the
public functions at each layer boundary and rebinds every name that refers to
them in the ``qmcmc`` modules (``from .x import f`` copies the reference, so
rebinding only the defining module would miss intra-package calls).  Each
wrapper records one span: a name, a start, an end and the enclosing span.
Spans live in flat typed arrays while the run lasts and are written out and
aggregated once it ends.  A layer's self time is its span durations minus
the durations of their direct children; the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _batched_name(args, kwargs) -> str:
    batched = kwargs.get("batched", args[5] if len(args) > 5 else False)
    return "_apply.batched" if batched else "_apply.single"


def _kernel_bytes(args, kwargs, out) -> float:
    # Computed bytes: the amplitude array read plus the array written.
    return float(args[0].nbytes + out.nbytes)


def _shots_arg(position):
    def value(args, kwargs, out):
        return float(kwargs.get("shots", args[position] if len(args) > position else 0))

    return value


def _gate_count(circuit) -> int:
    return sum(1 for op in circuit.ops if op.kind not in ("measure", "reset"))


def _built_gates(args, kwargs, out) -> dict:
    circuits = out if isinstance(out, tuple) else (out,)
    return {"gates": sum(_gate_count(c) for c in circuits if hasattr(c, "ops"))}


def _noise_info(args, kwargs, out) -> dict:
    circuit = args[0]
    shots = int(_shots_arg(2)(args, kwargs, out))
    return {
        "trajectories": shots,
        "sites": _gate_count(circuit),
        "batch_bytes": shots * 2**circuit.num_qubits * 16,
    }


def _trajectory_info(args, kwargs, out) -> dict:
    circuit = args[0]
    return {"trajectories": 1, "sites": _gate_count(circuit), "batch_bytes": 2**circuit.num_qubits * 16}


def _native_info(args, kwargs, out) -> dict:
    counts = out.circuit.gate_counts()
    return {
        "native": sum(c for kind, c in counts.items() if kind not in ("measure", "reset")),
        "native_2q": counts.get("zzphase", 0),
    }


_BUILDERS = (
    "lcu_state_prep_circuit",
    "szegedy_state_prep_circuit",
    "cswap_state_prep_circuit",
    "lcu_qae_circuit",
    "dual_eigenstate_circuits",
    "dual_overlap_circuit",
)
_WALKS = ("lcu_walk", "szegedy_walk", "cswap_walk", "dual_walk", "walk_operator")
_MARKOV = ("two_state_kernel", "stationary", "discriminant", "metropolis_hastings", "spectral_gap")

# (module, attribute, span name or name chooser, numeric payload, info payload).
# Numeric payloads suit high-rate spans; info dicts are kept for low-rate ones.
BOUNDARIES = (
    [
        ("qmcmc.rng", "ShotStreams.shot", "rng.seat", None, None),
        ("qmcmc.rng", "shot_rng", "rng.seat", None, None),
        ("qmcmc.statevector", "simulate", "statevector.evolve", None, None),
        ("qmcmc.statevector", "statevector_of", "statevector.evolve", None, None),
        ("qmcmc.statevector", "sample", "statevector.sample", None, None),
        ("qmcmc.statevector", "sample_from_probabilities", "statevector.sample", _shots_arg(2), None),
        ("qmcmc._apply", "apply_matrix", _batched_name, _kernel_bytes, None),
        ("qmcmc._apply", "apply_matrix_nd", "_apply.batched", _kernel_bytes, None),
        ("qmcmc.noise", "sample_with_noise", "noise.sample_with_noise", None, _noise_info),
        ("qmcmc.noise", "apply_trajectory", "noise.apply_trajectory", None, _trajectory_info),
        ("qmcmc.transpile", "transpile_native", "transpile.transpile_native", None, _native_info),
        ("qmcmc.circuit", "unitary_of", "circuit.unitary_of", None, None),
        ("qmcmc.circuit", "controlled", "circuit.build", None, _built_gates),
        ("qmcmc.algorithms", "qpe_circuit", "circuit.build", None, _built_gates),
        ("qmcmc.spue", "check_spectral_correspondence", "spue.spectral_check", None, None),
        ("qmcmc.algorithms", "phase_estimation", "algorithms.phase_estimation", None, None),
        ("qmcmc.algorithms", "qae_mean", "algorithms.qae_mean", None, None),
        ("qmcmc.algorithms", "prepare_stationary", "algorithms.prepare_stationary", None, None),
        ("qmcmc.experiments", "run", "experiments.run", None, None),
        ("qmcmc.experiments", "compare", "experiments.compare", None, None),
    ]
    + [("qmcmc.experiments", name, "circuit.build", None, _built_gates) for name in _BUILDERS]
    + [("qmcmc.spue", name, "spue.walk_build", None, None) for name in _WALKS]
    + [("qmcmc.markov", name, "markov.call", None, None) for name in _MARKOV]
)

ROOT = "bench.op"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.info: dict[int, dict] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.value.append(0.0)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        i = self._open(self.name_id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def wrap(self, fn, name, value=None, info=None):
        fixed = None if callable(name) else self.name_id(name)
        start, end, values, infos, stack, open_span = (
            self.start, self.end, self.value, self.info, self._stack, self._open
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            i = open_span(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if value is not None:
                values[i] = value(args, kwargs, out)
            if info is not None:
                infos[i] = info(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every boundary and rebind each qmcmc name that refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "qmcmc" or n.startswith("qmcmc.")]
        for module_name, attr, name, value, info in BOUNDARIES:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: rebinding the class attribute reaches every caller
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, self.wrap(original, name, value, info))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, value, info)
            for module in modules:
                for key, obj in list(vars(module).items()):
                    if obj is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, holder, key, wrapper) -> None:
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Vectorised queries over a finished trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.info = tracer.info
        self.kind, self.parent, self.value = a["kind"], a["parent"], a["value"]
        self.dur = a["end"] - a["start"]
        nested = self.parent >= 0
        children = np.bincount(
            self.parent[nested], weights=self.dur[nested], minlength=len(self.dur)
        )
        self.self_time = self.dur - children

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.kind, ids)

    def under(self, mask: np.ndarray) -> np.ndarray:
        """Spans with an ancestor in ``mask``."""
        out = np.zeros(len(self.kind), dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            out[live] |= mask[anc[live]]
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return out

    def outermost(self, *names: str) -> np.ndarray:
        m = self.mask(*names)
        return m & ~self.under(m)

    def info_sum(self, mask: np.ndarray, key: str) -> int:
        return sum(self.info[int(i)][key] for i in np.flatnonzero(mask))

    def info_max(self, mask: np.ndarray, key: str) -> int:
        return max((self.info[int(i)][key] for i in np.flatnonzero(mask)), default=0)

    def self_by_layer(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + float(self.self_time[self.kind == nid].sum())
        return layers
