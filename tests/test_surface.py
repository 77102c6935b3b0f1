"""Every public name in the package has a caller in the package.

A public module-level function or class must be named, and a public method
read as an attribute, somewhere in ``src/qmcmc`` outside its own
definition.  Imports do not count, so a name that ``__init__.py`` only
re-exports has no caller.  The exceptions are the entry points below, each
with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmcmc"

_BOUNDARY = "wrapped by perfbench BOUNDARIES; leaves with ROADMAP item 1"
_BUILDER = "gate-builder method; the builder covers every gate kind"
_MH = "Metropolis-Hastings constructor; README documents the classical chains the walks encode"

ENTRY_POINTS = {
    "algorithms.qae_mean": "README-documented mean estimation",
    "algorithms.prepare_stationary": "README-documented stationary-state preparation",
    "algorithms.qpe_circuit": _BOUNDARY,
    "statevector.simulate": _BOUNDARY,
    "statevector.sample": _BOUNDARY,
    "noise.apply_trajectory": _BOUNDARY,
    "markov.metropolis_hastings": _MH,
    "markov.constant_acceptance": _MH,
    "markov.metropolis_acceptance": _MH,
    "markov.spectral_gap": "acceptance criterion 9 pins it",
    "circuit.Circuit.y": _BUILDER,
    "circuit.Circuit.rx": _BUILDER,
    "circuit.Circuit.cz": _BUILDER,
    "circuit.Circuit.zzphase": _BUILDER,
    "circuit.Circuit.phasedx": _BUILDER,
}


def _public_definitions(trees):
    """(symbol, path, node, is_method) for each public function, class and method."""
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", path, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", path, item, True


def _unreferenced():
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    names, attrs = [], []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                attrs.append((path, node.lineno, node.attr))
    defined, missing = set(), []
    for symbol, path, node, is_method in _public_definitions(trees):
        defined.add(symbol)
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(
            name == node.name and not (p == path and line in inside)
            for p, line, name in (attrs if is_method else names)
        ):
            missing.append(symbol)
    return defined, missing


def test_every_public_name_has_a_caller():
    defined, missing = _unreferenced()
    unlisted = [s for s in missing if s not in ENTRY_POINTS]
    assert not unlisted, (
        f"{', '.join(unlisted)}: no caller in src/; "
        "move it to tests/conftest.py, delete it, or list it with a reason"
    )
    assert set(ENTRY_POINTS) <= defined, f"stale entries: {set(ENTRY_POINTS) - defined}"
    assert all(ENTRY_POINTS.values())
