"""The benchmark's layer tracer patches package names; they must still exist.

``perfbench/spans.py`` wraps functions by replacing module and class
attributes.  A refactor that removes or renames one of them would break only
the benchmark's traced run, so this test enters and leaves the tracer.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import sepcert.certify
import sepcert.cli
import sepcert.hunter
from sepcert.families import OperatorFamily

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Every owner whose attributes the tracer may patch.
OWNERS = [sepcert.cli, sepcert.certify, sepcert.hunter, OperatorFamily, np.linalg]


def test_traced_names_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)
    before = [dict(vars(owner)) for owner in OWNERS]
    # Entering resolves every patched name: a missing one raises here.
    with spans.traced(spans.SpanRecorder()):
        patched = {
            (owner, name)
            for owner, saved in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if saved.get(name, value) is not value
        }
        for owner, name in patched:
            assert vars(owner)[name].__wrapped__ is before[OWNERS.index(owner)][name]
    assert {(o.__name__, name) for o, name in patched} >= {
        ("sepcert.cli", "_emit"),
        ("sepcert.certify", "numerical_rank"),
        ("sepcert.hunter", "hunt_product"),
        ("sepcert.hunter", "recover_product"),
        ("OperatorFamily", "grouped_factors"),
    }
    for owner, saved in zip(OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == saved.keys()
        assert all(after[name] is value for name, value in saved.items())
