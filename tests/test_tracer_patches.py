"""The benchmark's layer tracer patches package names; they must still exist.

``perfbench/spans.py`` wraps functions by replacing module and class
attributes.  A refactor that removes or renames one of them would break only
the benchmark's traced run, so this test enters and leaves the tracer.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import sepcert.certify
import sepcert.cli
import sepcert.hunter
from sepcert.certify import certify_unique
from sepcert.families import OperatorFamily
from sepcert.hunter import _product_cuts, hunt_product
from sepcert.zoo import gen_fourier_channel, gen_projective_basis

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


def _recording_grouped_factors(monkeypatch):
    """Record (side, include_weight) of each call of the side builder, the
    one name the tracer times as ``families.side_build_s``."""
    calls = []
    build = OperatorFamily.grouped_factors

    def recording(fam, side, include_weight=False):
        calls.append((tuple(sorted(side)), include_weight))
        return build(fam, side, include_weight)

    monkeypatch.setattr(OperatorFamily, "grouped_factors", recording)
    return calls


@pytest.mark.parametrize(
    "fam",
    [gen_fourier_channel((2, 2, 2)), gen_projective_basis(2, 3)],
    ids=["fourier-222", "projective-23"],
)
def test_certify_opens_every_side_through_the_builder(monkeypatch, fam):
    calls = _recording_grouped_factors(monkeypatch)
    reached = []
    side_matrix = OperatorFamily.side_matrix

    def recording_open(fam, side, include_weight=False):
        reached.append(side)
        return side_matrix(fam, side, include_weight)

    monkeypatch.setattr(OperatorFamily, "side_matrix", recording_open)
    certify_unique(fam)
    assert reached
    assert calls == [(side, False) for side in reached]


def test_hunt_builds_full_and_every_cut_side_through_the_builder(monkeypatch):
    fam = gen_fourier_channel((2, 2, 2))
    calls = _recording_grouped_factors(monkeypatch)
    hunt_product(fam, restarts=2, seed=0)
    expected = {((0, 1, 2), False)}
    for side_a, side_b in _product_cuts(fam.n_parties):
        expected |= {(side_a, False), (side_b, False)}
    assert set(calls) == expected
