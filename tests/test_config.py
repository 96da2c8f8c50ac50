"""Config schema: defaults, rejection messages and round trips; and the
cross-field checks, which build_runtime makes when it wires a config."""

import json
import math
import os

import numpy as np
import pytest

from msvgd import kernels
from msvgd.config import (
    RunConfig,
    build_runtime,
    certified_profile,
    config_from_dict,
    load_config,
)
from msvgd.errors import ConfigError
from msvgd.mirrors import EntropicBoxMap
from msvgd.targets import MirroredTarget, TruncatedGaussian


MINIMAL = {
    "map": "euclidean",
    "kernel": "imq",
    "target": "mirrored-power-law",
    "target_params": {"power": 4.0},
    "particles": 50,
    "steps": 100,
    "seed": 1,
}


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(dict(MINIMAL))
    assert cfg.cadence == 10
    assert cfg.alpha == 2.0
    assert cfg.gamma == "theorem"
    assert cfg.kernel_params == {}


def test_round_trip_is_semantically_identical():
    cfg = config_from_dict(dict(MINIMAL))
    again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(MINIMAL, gamma=0.25)))
    cfg = load_config(path, {})
    assert cfg.gamma == 0.25
    with pytest.raises(ConfigError, match="no config file or preset named .*missing.json"):
        load_config(tmp_path / "missing.json", {})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad, {})
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="single JSON object"):
        load_config(bad, {"seed": 3})


def test_load_config_merges_overrides_before_its_one_check(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(MINIMAL, gamma=0.25)))
    cfg = load_config(path, {"gamma": 0.5, "steps": 7, "seed": None})
    assert (cfg.gamma, cfg.steps, cfg.seed) == (0.5, 7, MINIMAL["seed"])
    assert cfg == config_from_dict(dict(MINIMAL, gamma=0.5, steps=7))
    with pytest.raises(ConfigError, match="'gamma' must be > 0"):
        load_config(path, {"gamma": -1.0})


def _wire(raw):
    """build_runtime on a schema-checked dict: where cross-field checks run."""
    return build_runtime(config_from_dict(raw))


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="bandwith"):
        config_from_dict(dict(MINIMAL, bandwith=2.0))


@pytest.mark.parametrize("key, value", [
    # --out is required on the command line, so a config's out was never read
    ("out", "results"),
    # an entropic-box map takes the target's box, so lo/hi had nothing to set
    ("map_params", {"lo": [-1.0], "hi": [1.0]}),
    ("map_params", {}),
])
def test_keys_that_cannot_change_a_result_are_unknown(key, value):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        config_from_dict(dict(MINIMAL, **{key: value}))


@pytest.mark.parametrize("gamma", [0.0, -0.5, "auto", True, float("inf")])
def test_gamma_must_be_positive_or_theorem(gamma):
    with pytest.raises(ConfigError, match="gamma"):
        config_from_dict(dict(MINIMAL, gamma=gamma))


def test_required_keys_enforced():
    raw = dict(MINIMAL)
    del raw["seed"]
    with pytest.raises(ConfigError, match="'seed'"):
        config_from_dict(raw)


def test_seed_must_be_non_negative(tmp_path):
    assert config_from_dict(dict(MINIMAL, seed=0)).seed == 0
    with pytest.raises(ConfigError, match="'seed' must be >= 0, got -1"):
        config_from_dict(dict(MINIMAL, seed=-1))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(MINIMAL, seed=-1)))
    with pytest.raises(ConfigError, match="'seed' must be >= 0"):
        load_config(path, {})


def test_schema_check_builds_nothing(monkeypatch):
    # a config whose wiring fails still passes the schema; build_runtime
    # refuses it
    raw = dict(MINIMAL, dim=3)
    monkeypatch.setattr("msvgd.config.make_target", None)
    assert config_from_dict(raw).dim == 3
    monkeypatch.undo()
    with pytest.raises(ConfigError, match="dim 3"):
        _wire(raw)


def test_theorem_gamma_needs_certified_constants():
    raw = dict(MINIMAL, target_params={"power": 1.5})
    with pytest.raises(ConfigError, match="l0, l1, c_p, p"):
        _wire(raw)
    boxed = {
        "map": "entropic-box",
        "kernel": "imq",
        "target": "truncated-gaussian",
        "target_params": {"mean": [0.0], "cov": 1.0, "lo": [-1.0], "hi": [1.0]},
        "particles": 10,
        "steps": 5,
        "seed": 0,
    }
    with pytest.raises(ConfigError, match="l0, l1, c_p, p"):
        _wire(boxed)
    # same configs are fine once gamma is explicit
    _wire(dict(raw, gamma=0.1))
    _wire(dict(boxed, gamma=0.1))


def test_theorem_gamma_rejects_adaptive_kernel_and_high_dim():
    raw = dict(MINIMAL, kernel="rbf", kernel_params={"bandwidth": "median"})
    with pytest.raises(ConfigError, match="median"):
        _wire(raw)
    high = {
        "map": "entropic-simplex",
        "kernel": "imq",
        "target": "dirichlet",
        "target_params": {"concentration": [2.0, 2.0, 2.0, 2.0]},
        "particles": 10,
        "steps": 5,
        "seed": 0,
    }
    with pytest.raises(ConfigError, match="dim <= 2"):
        _wire(high)


def test_dim_and_domain_cross_checks():
    with pytest.raises(ConfigError, match="dim 3"):
        _wire(dict(MINIMAL, dim=3))
    mismatched = {
        "map": "euclidean",
        "kernel": "imq",
        "target": "dirichlet",
        "target_params": {"concentration": [2.0, 2.0]},
        "particles": 10,
        "steps": 5,
        "seed": 0,
        "gamma": 0.1,
    }
    with pytest.raises(ConfigError, match="simplex"):
        _wire(mismatched)


def test_box_map_bounds_come_from_target():
    raw = {
        "map": "entropic-box",
        "kernel": "imq",
        "target": "truncated-gaussian",
        "target_params": {"mean": [0.0, 0.0], "cov": 1.0,
                          "lo": [-1.0, -2.0], "hi": [1.0, 2.0]},
        "particles": 10,
        "steps": 5,
        "seed": 0,
        "gamma": 0.1,
    }
    bundle = _wire(raw)
    assert isinstance(bundle.mirror_map, EntropicBoxMap)
    assert np.array_equal(bundle.mirror_map.lo, [-1.0, -2.0])
    assert np.array_equal(bundle.mirror_map.hi, [1.0, 2.0])


@pytest.mark.parametrize("key, value", [
    ("alpha", float("inf")),
    ("alpha", float("nan")),
    ("grid_halfwidth", float("inf")),
])
def test_non_finite_numbers_are_named(key, value):
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        config_from_dict(dict(MINIMAL, **{key: value}))


def test_particle_count_is_refused_only_past_physical_memory():
    # Past about 33k particles at d = 1 the field's blocks are one row
    # each, 8 n (d + 1) bytes, and the snapshot operator sets the price: one
    # tile of r rows twice over, numpy's two 8192-entry iteration buffers,
    # one tile's product with the 2 d^2 + 3 d = 5 wider features, those of
    # F' (F'' reads d^3 + 2 d^2 + d = 4), the d^3 + 3 d^2 + 3 d = 7 rows of
    # the feature stack and the d^3 + 4 d^2 + 4 d = 9 rows of the two
    # accumulators per point, 8 (2 r^2 + 16384 + 5 r + 16 n) bytes, where a
    # multiple of streamed_tile_rows() particles has r = streamed_tile_rows().
    # Counts only: no such config is ever run.
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    rows = kernels.streamed_tile_rows()
    tile = 2 * rows * rows + 2 * 8192 + 5 * rows
    ranges = (memory // 8 - tile) // (16 * rows)
    largest, past = rows * ranges, rows * (ranges + 1)
    assert _wire(dict(MINIMAL, particles=largest)).config.particles == largest
    need = 8 * (tile + 16 * past)
    with pytest.raises(ConfigError, match=rf"'particles' = {past} needs about {need} bytes"):
        _wire(dict(MINIMAL, particles=past))


def test_median_bandwidth_refresh_is_priced_at_two_square_blocks():
    # the refresh sums the (n, n) squared distances with one spare (n, n)
    # array: 16 n^2 bytes, far above the field's blocks and the snapshot at
    # these counts
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    largest = math.isqrt(memory // 16)
    median = dict(MINIMAL, kernel="rbf", kernel_params={"bandwidth": "median"}, gamma=0.1)
    assert _wire(dict(median, particles=largest)).config.particles == largest
    with pytest.raises(ConfigError, match=rf"'particles' = {largest + 1} needs about "
                                          rf"{16 * (largest + 1) ** 2} bytes"):
        _wire(dict(median, particles=largest + 1))
    # a fixed bandwidth takes the field's and the snapshot's price, which
    # that count fits
    fixed = dict(median, kernel_params={"bandwidth": 1.0}, particles=largest + 1)
    assert _wire(fixed).config.particles == largest + 1


def test_certified_profile_covers_catalog_only():
    quartic = _wire(dict(MINIMAL, gamma=0.1))
    assert quartic.profile is not None
    assert quartic.profile.tag("l0") == "analytic"

    boxed = MirroredTarget(
        TruncatedGaussian([0.0], 1.0, lo=[-1.0], hi=[1.0]),
        EntropicBoxMap([-1.0], [1.0]),
    )
    assert certified_profile(boxed) is None


def test_alpha_override_lands_in_profile():
    bundle = _wire(dict(MINIMAL, gamma=0.1, alpha=3.0))
    assert bundle.profile.alpha == 3.0
    assert bundle.profile.tag("alpha") == "user"
