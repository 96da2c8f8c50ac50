"""Stepper checks: SVGD reduction, a hand-rolled two-particle oracle,
degenerate-step identities, and the run artifact contract."""

import csv
import json
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvgd import engine, kernels
from msvgd.config import RunConfig, build_runtime, config_from_dict
from msvgd.engine import (
    ParticleEnsemble,
    init_ensemble,
    msvgd_step,
    run,
    update_field,
)
from msvgd.errors import NumericsError
from msvgd.kernels import DualIMQKernel, IMQKernel, RBFKernel, RescaledKernel
from msvgd.mirrors import EntropicBoxMap, EntropicSimplexMap, EuclideanMap
from msvgd.targets import Dirichlet, MirroredPowerLaw, MirroredTarget, TruncatedGaussian

from conftest import sample_box_interior, sample_simplex_interior


# announced reduction: with the identity chart the update must coincide with
# plain SVGD, so a from-scratch SVGD loop is the oracle for the whole stepper


def _reference_svgd_step(x, mean, prec, gamma, c=1.0, beta=-0.5):
    """Textbook SVGD step with an IMQ kernel, written loop-first."""
    n = x.shape[0]
    v = np.zeros_like(x)
    score = -(x - mean) @ prec
    for i in range(n):
        diff = x - x[i]
        sq = np.sum(diff * diff, axis=1)
        k = (c * c + sq) ** beta
        gradk = (beta * (c * c + sq) ** (beta - 1.0))[:, None] * (2.0 * diff)
        v[i] = (k[:, None] * score + gradk).sum(axis=0) / n
    return x + gamma * v


def test_svgd_reduction_trajectory():
    mean = np.array([0.5, -0.3])
    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    prec = np.linalg.inv(cov)
    gamma = 0.1

    mirror_map = EuclideanMap(2)
    target = TruncatedGaussian(mean, cov)
    kernel = IMQKernel(c=1.0, beta=-0.5)
    ensemble = init_ensemble(50, 2, mirror_map, seed=1234)

    reference = ensemble.primal.copy()
    worst = 0.0
    for _ in range(100):
        velocity = update_field(ensemble, MirroredTarget(target, mirror_map), kernel)
        ensemble = msvgd_step(ensemble, velocity, gamma, mirror_map)
        reference = _reference_svgd_step(reference, mean, prec, gamma)
        worst = max(worst, float(np.max(np.abs(ensemble.primal - reference))))
    assert worst <= 1e-12
    assert np.array_equal(ensemble.primal, ensemble.dual)


def test_two_particle_oracle():
    # independent straight-line transcription of the update for two particles
    # on the unit interval, scalar arithmetic only
    theta = np.array([0.3, 0.6])
    x = np.log(theta / (1.0 - theta))
    gamma = 0.05

    v = np.zeros(2)
    for i in range(2):
        acc = 0.0
        for j in range(2):
            kij = np.exp(-0.5 * (theta[i] - theta[j]) ** 2)
            hj = theta[j] * (1.0 - theta[j])
            sj = 1.0 / theta[j] - 1.0 / (1.0 - theta[j])
            divj = 1.0 - 2.0 * theta[j]
            dkj = -(theta[j] - theta[i]) * np.exp(-0.5 * (theta[j] - theta[i]) ** 2)
            acc += kij * (hj * sj + divj) + hj * dkj
        v[i] = acc / 2.0
    x_next = x + gamma * v
    theta_next = 1.0 / (1.0 + np.exp(-x_next))

    mirror_map = EntropicSimplexMap(1)
    target = Dirichlet([2.0, 2.0])
    kernel = RBFKernel(bandwidth=1.0)
    ensemble = ParticleEnsemble(primal=theta[:, None],
                                dual=mirror_map.grad_psi(theta[:, None]))

    field = update_field(ensemble, MirroredTarget(target, mirror_map), kernel)
    assert np.max(np.abs(field.velocity[:, 0] - v)) <= 1e-12

    stepped = msvgd_step(ensemble, field, gamma, mirror_map)
    assert np.max(np.abs(stepped.dual[:, 0] - x_next)) <= 1e-12
    assert np.max(np.abs(stepped.primal[:, 0] - theta_next)) <= 1e-12
    assert stepped.step_index == 1


def test_single_particle_symmetric_point_is_stationary():
    mirror_map = EntropicSimplexMap(1)
    target = Dirichlet([1.0, 1.0])
    kernel = IMQKernel(c=1.0, beta=-0.5)
    theta = np.array([[0.5]])
    ensemble = ParticleEnsemble(primal=theta, dual=mirror_map.grad_psi(theta))
    field = update_field(ensemble, MirroredTarget(target, mirror_map), kernel).velocity
    assert field.shape == (1, 1)
    assert field[0, 0] == 0.0


def test_zero_step_is_bitwise_identity():
    mirror_map = EntropicSimplexMap(2)
    target = Dirichlet([5.0, 5.0, 5.0])
    kernel = IMQKernel()
    ensemble = init_ensemble(16, 2, mirror_map, seed=3)
    velocity = update_field(ensemble, MirroredTarget(target, mirror_map), kernel)
    stepped = msvgd_step(ensemble, velocity, 0.0, mirror_map)
    assert np.array_equal(stepped.dual, ensemble.dual)
    assert np.array_equal(stepped.primal, ensemble.primal)
    assert stepped.step_index == 1


def test_permutation_equivariance(rng):
    mirror_map = EntropicSimplexMap(2)
    target = Dirichlet([3.0, 1.5, 2.0])
    kernel = IMQKernel()
    theta = sample_simplex_interior(rng, 17, 2, margin=1e-3)
    ensemble = ParticleEnsemble(primal=theta, dual=mirror_map.grad_psi(theta))
    field = update_field(ensemble, MirroredTarget(target, mirror_map), kernel).velocity

    perm = rng.permutation(17)
    shuffled = ParticleEnsemble(primal=theta[perm],
                                dual=ensemble.dual[perm])
    field_perm = update_field(shuffled, MirroredTarget(target, mirror_map), kernel).velocity
    assert np.max(np.abs(field_perm - field[perm])) <= 1e-12


# ---------------------------------------------------------------------------
# the field one row range at a time


def _field_inputs(gen, map_name, n, d):
    """A mirror map, a target on its domain and a cloud inside it."""
    if map_name == "euclidean":
        return (EuclideanMap(d), TruncatedGaussian(np.full(d, 0.3), np.eye(d)),
                gen.standard_normal((n, d)))
    if map_name == "simplex":
        return (EntropicSimplexMap(d), Dirichlet(np.linspace(1.5, 4.0, d + 1)),
                sample_simplex_interior(gen, n, d, margin=1e-3))
    lo, hi = -np.ones(d), np.linspace(1.0, 2.0, d)
    return (EntropicBoxMap(lo, hi), TruncatedGaussian(np.zeros(d), np.eye(d), lo=lo, hi=hi),
            sample_box_interior(gen, n, lo, hi))


def _field_kernel(kernel_name, mirror_map):
    return {"imq": lambda: IMQKernel(c=0.8), "rbf": lambda: RBFKernel(bandwidth=0.7),
            "rbf-median": lambda: RBFKernel(bandwidth="median"),
            "rescaled": lambda: RescaledKernel(IMQKernel(), 1.5),
            "dual-imq": lambda: DualIMQKernel(mirror_map)}[kernel_name]()


@pytest.mark.parametrize("kernel_name", ["imq", "rbf", "rbf-median", "rescaled", "dual-imq"])
@pytest.mark.parametrize("map_name", ["simplex", "box", "euclidean"])
def test_field_row_ranges_give_the_same_bits(rng, monkeypatch, map_name, kernel_name):
    mirror_map, target, theta = _field_inputs(rng, map_name, 37, 2)
    ensemble, mirrored = SimpleNamespace(primal=theta), MirroredTarget(target, mirror_map)
    whole = update_field(ensemble, mirrored, _field_kernel(kernel_name, mirror_map))
    # a budget of seven rows per block: six blocks of 6 or 7 rows
    monkeypatch.setattr(kernels, "STREAM_BYTES", 8 * 37 * 3 * 7)
    assert len(kernels.row_ranges(37, kernels.field_rows(37, 2))) == 6
    ranged = update_field(ensemble, mirrored, _field_kernel(kernel_name, mirror_map))
    for got, want in zip((ranged.velocity, ranged.operand, ranged.dual_jacobian),
                         (whole.velocity, whole.operand, whole.dual_jacobian)):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    map_name=st.sampled_from(["simplex", "box", "euclidean"]),
    kernel_name=st.sampled_from(["imq", "rbf", "rbf-median", "rescaled", "dual-imq"]),
    d=st.integers(1, 3),
    n=st.integers(2, 30),
    block_rows=st.integers(3, 8),
)
def test_field_is_permutation_equivariant_over_row_ranges(seed, map_name, kernel_name, d, n,
                                                          block_rows):
    gen = np.random.default_rng(seed)
    mirror_map, target, theta = _field_inputs(gen, map_name, n, d)
    mirrored = MirroredTarget(target, mirror_map)
    perm = gen.permutation(n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "STREAM_BYTES", 8 * n * (d + 1) * block_rows)
        field = update_field(SimpleNamespace(primal=theta), mirrored,
                             _field_kernel(kernel_name, mirror_map)).velocity
        shuffled = update_field(SimpleNamespace(primal=theta[perm]), mirrored,
                                _field_kernel(kernel_name, mirror_map)).velocity
    assert np.max(np.abs(shuffled - field[perm])) <= 1e-13 * np.max(np.abs(field))


def test_field_holds_one_row_block_at_a_time():
    raw = json.loads((Path(__file__).resolve().parents[1] / "presets"
                      / "truncated-gaussian-box-d3.json").read_text(encoding="utf-8"))
    assert len(kernels.row_ranges(1000, kernels.field_rows(1000, 3))) == 32
    for kernel, params in (("imq", {}), ("rescaled", {"inner": "imq", "scale": 2.0}),
                           ("dual-imq", {})):
        bundle = build_runtime(config_from_dict(dict(raw, kernel=kernel, kernel_params=params)))
        ensemble = init_ensemble(1000, bundle.dim, bundle.mirror_map, seed=3)
        tracemalloc.start()
        try:
            update_field(ensemble, bundle.mirrored, bundle.kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 32 blocks of 31 or 32 rows: the (1000, 32, 3) gradient block is
        # 0.77 MB and its factor 0.26 MB, and with the per-particle operand
        # and Jacobians the peak reads 1.31 to 1.40 MB for every kernel,
        # since the block stays in chart slots.  Eight blocks of 125 rows
        # peaked at 4.3 MB, two of 500 at 16 MB, and the whole (n, n) gram
        # and (n, n, 3) blocks with their temporaries at 64 MB.
        assert peak < 1.45e6
        assert peak <= kernels.particle_bytes(bundle.kernel, 1000, bundle.dim)


def test_stepping_is_deterministic():
    mirror_map = EntropicSimplexMap(2)
    target = Dirichlet([5.0, 5.0, 5.0])

    def evolve():
        kernel = RBFKernel(bandwidth="median")
        ensemble = init_ensemble(25, 2, mirror_map, seed=11)
        states = []
        for _ in range(30):
            velocity = update_field(ensemble, MirroredTarget(target, mirror_map), kernel)
            ensemble = msvgd_step(ensemble, velocity, 0.05, mirror_map)
            states.append(ensemble.dual.copy())
        return states

    first, second = evolve(), evolve()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_feasibility_and_chart_consistency():
    mirror_map = EntropicSimplexMap(2)
    target = Dirichlet([5.0, 5.0, 5.0])
    kernel = IMQKernel()
    ensemble = init_ensemble(30, 2, mirror_map, seed=5)
    for _ in range(100):
        velocity = update_field(ensemble, MirroredTarget(target, mirror_map), kernel)
        ensemble = msvgd_step(ensemble, velocity, 0.05, mirror_map)
        theta = ensemble.primal
        assert np.all(theta > 0.0)
        assert np.all(theta.sum(axis=1) < 1.0)
        gap = np.abs(mirror_map.grad_psi(theta) - ensemble.dual)
        assert np.max(gap) <= 1e-8


def test_init_ensemble_moments_and_reproducibility():
    mirror_map = EuclideanMap(3)
    ensemble = init_ensemble(100_000, 3, mirror_map, seed=2024)
    assert np.array_equal(ensemble.primal, ensemble.dual)
    mean_sq = float(np.mean(np.sum(ensemble.dual**2, axis=1)))
    assert abs(mean_sq - 3.0) < 0.05
    # the 300 000 draws against N(0, 1): the standard errors of the mean,
    # the variance and the fourth moment are 0.0018, 0.0026 and 0.018, and
    # each margin is over five of them
    draws = ensemble.dual.ravel()
    assert abs(float(np.mean(draws))) < 0.01
    assert abs(float(np.var(draws)) - 1.0) < 0.015
    assert abs(float(np.mean(draws**4)) - 3.0) < 0.1

    again = init_ensemble(100_000, 3, mirror_map, seed=2024)
    assert np.array_equal(again.dual, ensemble.dual)
    other = init_ensemble(100_000, 3, mirror_map, seed=2025)
    assert not np.any(other.dual == ensemble.dual)

    simplex = init_ensemble(64, 2, EntropicSimplexMap(2), seed=9)
    assert np.all(simplex.primal > 0)
    assert np.all(simplex.primal.sum(axis=1) < 1)


# ---------------------------------------------------------------------------
# run(): file artifacts


def _dirichlet_config(**overrides):
    base = dict(
        map="entropic-simplex",
        kernel="imq",
        target="dirichlet",
        target_params={"concentration": [5.0, 5.0, 5.0]},
        particles=20,
        steps=25,
        seed=7,
        gamma=0.05,
        cadence=10,
    )
    base.update(overrides)
    return RunConfig(**base)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_writes_cadenced_rows(tmp_path):
    cfg = _dirichlet_config()
    summary = run(build_runtime(cfg), tmp_path / "out")

    rows = _read_csv(tmp_path / "out" / "diagnostics.csv")
    assert rows[0] == ["step", "stein_fisher", "a_n", "gamma", "bandwidth", "wallclock_ms"]
    steps = [int(r[0]) for r in rows[1:]]
    assert steps == [0, 10, 20, 25]
    assert summary["logged_steps"] == steps
    # catalog profile for this target is constant, half the concentration mass
    assert all(float(r[2]) == 7.5 for r in rows[1:])
    assert all(float(r[3]) == 0.05 for r in rows[1:])
    # no bandwidth notion for IMQ
    assert all(r[4] == "nan" for r in rows[1:])

    traj = _read_csv(tmp_path / "out" / "trajectory.csv")
    assert traj[0] == ["step", "i", "theta1", "theta2", "x1", "x2"]
    assert len(traj) == 1 + 4 * 20
    body = np.array([[float(v) for v in row] for row in traj[1:]])
    assert np.all(body[:, 2:4] > 0)
    assert np.all(body[:, 2] + body[:, 3] < 1)

    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["target"] == "dirichlet"
    assert manifest["summary"]["abort"] is None
    assert manifest["build"]["package"] == "msvgd"
    assert manifest["wallclock"]["minor_faults"] > 0
    assert manifest["wallclock"]["peak_rss_mb"] > 0
    # final estimate should not have grown in 25 steps from a cold start
    assert summary["stein_fisher_final"] <= summary["stein_fisher_first"]


def test_manifest_records_the_blas_and_its_thread_settings(tmp_path, monkeypatch):
    # the snapshot's bits depend on the BLAS thread count, so a run records
    # the library and the settings it found, None for an unset variable
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run(build_runtime(_dirichlet_config(steps=1)), tmp_path / "out")
    build = json.loads((tmp_path / "out" / "manifest.json").read_text())["build"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert build["blas"] == f"{blas['name']} {blas['version']}"
    assert build["OPENBLAS_NUM_THREADS"] == "1"
    assert build["OMP_NUM_THREADS"] is None
    assert build["cpu_affinity"] == len(os.sched_getaffinity(0))


def test_trajectory_rows_are_each_values_shortest_repr(tmp_path):
    primal = np.array([[0.1, 1.0 / 3.0], [-0.0, 5e-324]])
    dual = np.array([[1e300, -2.5], [np.pi, 7.0]])
    writer = engine._RunWriter(tmp_path, 2)
    writer.log(ParticleEnsemble(primal=primal, dual=dual, step_index=12),
               engine.DiagnosticsRecord(step=12, stein_fisher=1.0, a_n=2.0, gamma=0.1),
               float("nan"), 0.0)
    writer.close()
    expected = "step,i,theta1,theta2,x1,x2\r\n" + "".join(
        ",".join(["12", str(i), *(repr(float(v)) for v in (*primal[i], *dual[i]))]) + "\r\n"
        for i in range(2))
    assert (tmp_path / "trajectory.csv").read_bytes() == expected.encode("utf-8")


def test_peak_rss_is_null_without_proc(monkeypatch):
    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(engine, "open", no_proc, raising=False)
    assert engine._peak_rss_mb() is None


def test_run_zero_steps_header_only(tmp_path):
    cfg = _dirichlet_config(steps=0)
    summary = run(build_runtime(cfg), tmp_path / "out")
    diag = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(diag) == 1 and len(traj) == 1
    assert summary["logged_steps"] == []
    assert summary["stein_fisher_final"] is None


def test_run_outputs_deterministic_modulo_wallclock(tmp_path):
    cfg = _dirichlet_config(steps=40, kernel="rbf",
                            kernel_params={"bandwidth": "median"})
    run(build_runtime(cfg), tmp_path / "a")
    run(build_runtime(cfg), tmp_path / "b")

    traj_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    traj_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert traj_a == traj_b

    diag_a = _read_csv(tmp_path / "a" / "diagnostics.csv")
    diag_b = _read_csv(tmp_path / "b" / "diagnostics.csv")
    assert [r[:5] for r in diag_a] == [r[:5] for r in diag_b]
    # median bandwidth is logged and positive
    assert all(float(r[4]) > 0 for r in diag_a[1:])


def test_run_records_numeric_abort(tmp_path):
    cfg = _dirichlet_config(particles=4, steps=50, gamma=1e8,
                            target_params={"concentration": [0.5, 0.5, 0.5]})
    with pytest.raises(NumericsError):
        run(build_runtime(cfg), tmp_path / "out")

    rows = _read_csv(tmp_path / "out" / "diagnostics.csv")
    assert [int(r[0]) for r in rows[1:]] == [0]  # final valid state kept
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    abort = manifest["summary"]["abort"]
    assert abort is not None
    assert abort["step"] is not None


def test_run_records_a_collapsed_median_bandwidth(tmp_path, monkeypatch):
    # a cloud whose median pairwise distance is 0 gives h = 0: the refresh
    # refuses it before any kernel sum divides by 2 h^2 or 4 h^4
    monkeypatch.setattr(RBFKernel, "median_bandwidth", staticmethod(lambda X: 0.0))
    cfg = _dirichlet_config(particles=5, steps=3, kernel="rbf",
                            kernel_params={"bandwidth": "median"})
    with pytest.raises(NumericsError, match="cloud of 5 points has collapsed"):
        run(build_runtime(cfg), tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["summary"]["abort"]["step"] == 0
    assert "collapsed" in manifest["summary"]["abort"]["message"]


def test_run_builds_one_field_per_state(tmp_path, monkeypatch):
    # The field of each state serves both its step and its snapshot, so the
    # snapshot builds no field block of its own; 20 particles are one block.
    steps = 25
    cfg = _dirichlet_config(steps=steps, cadence=10)
    bundle = build_runtime(cfg)
    calls = {"msvgd_step": 0, "update_field": 0, "field_factors": 0}

    def counting(name, inner):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(engine, "msvgd_step", counting("msvgd_step", engine.msvgd_step))
    monkeypatch.setattr(engine, "update_field", counting("update_field", engine.update_field))
    monkeypatch.setattr(kernels, "field_factors",
                        counting("field_factors", kernels.field_factors))
    summary = run(bundle, tmp_path / "out")
    assert summary["logged_steps"] == [0, 10, 20, 25]
    assert calls == {"msvgd_step": steps, "update_field": steps + 1, "field_factors": steps + 1}


def test_run_logs_the_median_bandwidth_of_each_logged_state(tmp_path):
    preset = Path(__file__).resolve().parents[1] / "presets" / "dirichlet-simplex-d2.json"
    cfg = config_from_dict(dict(json.loads(preset.read_text()), kernel="rbf",
                                kernel_params={"bandwidth": "median"},
                                particles=30, steps=3, cadence=1))
    run(build_runtime(cfg), tmp_path / "out")

    traj = _read_csv(tmp_path / "out" / "trajectory.csv")
    diag = _read_csv(tmp_path / "out" / "diagnostics.csv")
    assert [int(r[0]) for r in diag[1:]] == [0, 1, 2, 3]
    for row in diag[1:]:
        primal = np.array([[float(v) for v in r[2:4]] for r in traj[1:] if r[0] == row[0]])
        assert float(row[4]) == RBFKernel.median_bandwidth(primal)


def test_run_theorem_gamma_resolves(tmp_path):
    cfg = RunConfig(
        map="euclidean",
        kernel="imq",
        target="mirrored-power-law",
        target_params={"power": 4.0, "scale": 1.0, "dim": 1},
        particles=10,
        steps=5,
        seed=1,
        gamma="theorem",
        cadence=5,
    )
    bundle = build_runtime(cfg)
    assert bundle.gamma_mode == "theorem"
    assert 0 < bundle.gamma < 1e-2
    summary = run(bundle, tmp_path / "out")
    assert summary["gamma"] == bundle.gamma
    rows = _read_csv(tmp_path / "out" / "diagnostics.csv")
    assert all(float(r[3]) == bundle.gamma for r in rows[1:])
