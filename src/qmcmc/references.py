"""Access to the bundled reference measurement datasets.

The JSON resource carries, per experiment, the ideal (expected) counts and
the published trapped-ion hardware counts, with the bit order of each table.
Hardware rows are comparison material, not correctness contracts.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .errors import SchemaError


@lru_cache(maxsize=1)
def load_references() -> dict:
    text = resources.files("qmcmc.data").joinpath("references.json").read_text()
    return json.loads(text)


def experiment_reference(name: str) -> dict:
    refs = load_references()["experiments"]
    if name not in refs:
        raise SchemaError(f"no reference dataset for experiment {name!r}")
    return refs[name]


def gate_reference(name: str) -> dict | None:
    return load_references()["gate_references"].get(name)


def reference_table(name: str, source: str, kind: str) -> dict:
    """The ``kind`` table (counts, estimates or summary) of 'expected' or a device like 'H2-1'."""
    ref = experiment_reference(name)
    if source == "expected":
        table = ref.get(f"expected_{kind}")
    else:
        table = ref.get("devices", {}).get(source, {}).get(kind)
    if table is None:
        raise SchemaError(f"{name} has no {kind} table for source {source!r}")
    return dict(table)
