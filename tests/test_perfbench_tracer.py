"""The benchmark's tracer against the package it patches.

perfbench/tracing.py swaps module attributes of the package for timing
wrappers.  A traced run that lost one of them would not notice, so these
tests run one small certify inside a Tracer and check both sides of the
patch: every attribute is replaced while the tracer is active, the run's
mass evaluations are counted, and every attribute is put back on exit.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import LAYERS, MASS_CLASSES, Tracer  # noqa: E402

from catspire import engine  # noqa: E402
from catspire.engine import EngineParams  # noqa: E402
from catspire.mass import CardinalityMass  # noqa: E402
from catspire.trees import CaterpillarTree  # noqa: E402
from catspire.witnesses import AnticompletePair  # noqa: E402
from helpers import hook_graph, path_graph  # noqa: E402


def _patched():
    sites = [(module, attr) for pairs in LAYERS.values() for module, attr in pairs]
    sites += [(cls, "mass") for cls in MASS_CLASSES]
    return {(owner, attr): owner.__dict__[attr] for owner, attr in sites}


def test_tracer_counts_a_run_and_restores_every_attribute():
    before = _patched()
    g = path_graph(200)
    with Tracer() as tracer:
        assert all(_patched()[site] is not value for site, value in before.items())
        out = engine.run_trichotomy(
            g, CardinalityMass(g.n), CaterpillarTree(hook_graph()), EngineParams(3, Fraction(1, 48), 2)
        )
    assert isinstance(out, AnticompletePair)
    assert _patched() == before

    layers = tracer.per_layer(1)
    # cardinality mass answers the axiom stage from the degrees, so the run
    # itself asks for no mass; its stages and the verifier do
    assert layers["engine.run_trichotomy.mass_evals"][0] == 0
    assert layers["engine.initial_blocks.mass_evals"][0] > 0
    assert layers["engine.big_piece.mass_evals"][0] > 0
    assert layers["oracles.verify_witness.calls"][0] == 1
