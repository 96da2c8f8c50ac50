"""The accuracy gate: one particle state and one grid state per preset
against long-double references (conftest's long_double_particle_terms and
long_double_g_field).

Byte identity with a parent commit is the rule for a change that keeps the
arithmetic.  A change that moves bits (a new reduction order or tile
partition) must keep each relative error under GATE instead: far above the
3e-17 to 4e-15 the library reads today, and far below any effect on a
verdict.  Each test also checks that a reference with one term dropped
fails the gate, so the gate can see a missing term.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import DenseKernelOperator, long_double_g_field, long_double_particle_terms
from msvgd.config import build_runtime, config_from_dict
from msvgd.engine import init_ensemble, stein_fisher_particles, update_field
from msvgd.gridflow import MirroredFlow

GATE = 1e-13
PRESETS = Path(__file__).resolve().parents[1] / "presets"


def _bundle(preset, **overrides):
    raw = json.loads((PRESETS / f"{preset}.json").read_text(encoding="utf-8"))
    return build_runtime(config_from_dict(dict(raw, **overrides)))


def _error(got, want):
    """max |got - want| / max |want|, in long double."""
    got = np.asarray(got, dtype=np.longdouble)
    want = np.asarray(want, dtype=np.longdouble)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("preset, overrides", [
    ("dirichlet-simplex-d2", {}),
    ("truncated-gaussian-box-d3", {}),
    ("quartic-1d-descent", {}),
    # the particles-box-snapshot workload's first state: four snapshot tiles
    ("truncated-gaussian-box-d3", {"particles": 1000, "seed": 1}),
], ids=["dirichlet-simplex-d2", "truncated-gaussian-box-d3", "quartic-1d-descent",
        "box-d3-1000"])
def test_particle_state_is_within_the_gate(preset, overrides):
    bundle = _bundle(preset, **overrides)
    cfg = bundle.config
    ensemble = init_ensemble(cfg.particles, bundle.dim, bundle.mirror_map, cfg.seed)
    field = update_field(ensemble, bundle.mirrored, bundle.kernel)
    value = stein_fisher_particles(ensemble, bundle.kernel, field)
    velocity_terms, value_terms = long_double_particle_terms(
        bundle.kernel, ensemble.primal, field.operand, field.dual_jacobian)
    for got, terms in ((field.velocity, velocity_terms), (value, value_terms)):
        assert _error(got, sum(terms)) < GATE
        for dropped in range(len(terms)):
            assert _error(got, sum(t for k, t in enumerate(terms) if k != dropped)) > GATE


@pytest.mark.parametrize("preset, nodes", [("dirichlet-simplex-d2", 24),
                                           ("quartic-1d-descent", 256)],
                         ids=["dirichlet-24x24", "quartic-256"])
def test_grid_state_is_within_the_gate(preset, nodes):
    bundle = _bundle(preset)
    flow = MirroredFlow(bundle.mirrored, bundle.kernel, nodes=nodes)
    density = flow.initial_density()
    field = flow.g_field(density)
    reference = long_double_g_field(flow, density)
    assert _error(field.values, reference.values) < GATE
    assert _error(field.derivs, reference.derivs) < GATE
    # K12's sum feeds the derivatives alone; without it they fail the gate
    dense = DenseKernelOperator(flow.kernel, flow.theta, primal=False)
    dense._K12[...] = 0.0
    flow.kernel_operator = dense
    assert _error(field.derivs, flow.g_field(density).derivs) > GATE
