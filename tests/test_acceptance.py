"""The ten acceptance gates, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run) and then asserts.  Expensive runs are
shared through module-scoped fixtures: the 200-step quartic quadrature flow
backs criteria 1 and 4, and the 2000-step Dirichlet particle run backs
criteria 6 and 10.
"""

import json
import math
import time

import numpy as np
import pytest

from msvgd import cli, theory
from msvgd.config import build_runtime, load_config
from msvgd.engine import init_ensemble, msvgd_step, update_field
from msvgd.gridflow import (
    GridDensity,
    MirroredFlow,
    descent_check,
    fisher_norm_margins,
    grid_for_target,
    kl_quadrature,
    standard_normal_density,
)
from msvgd.kernels import IMQKernel
from msvgd.mirrors import EntropicSimplexMap, EuclideanMap
from msvgd.targets import (
    Dirichlet,
    MirroredPowerLaw,
    MirroredTarget,
    TruncatedGaussian,
    certified_profile,
)


def _report(number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number:>2}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def quartic_setup():
    """Criterion 1's run: quartic preset, theorem step size, 200 steps."""
    started = time.perf_counter()
    cfg = load_config("quartic-1d-descent", {})
    bundle = build_runtime(cfg)
    flow = MirroredFlow(bundle.mirrored, bundle.kernel)
    out = flow.run(bundle.gamma, cfg.steps)
    report = descent_check(flow, out["records"], bundle.gamma, certificate=bundle.certificate)
    elapsed = time.perf_counter() - started
    return {
        "cfg": cfg,
        "bundle": bundle,
        "flow": flow,
        "records": out["records"],
        "report": report,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def dirichlet_run(tmp_path_factory):
    """Criterion 6's run: the simplex preset end to end through the CLI."""
    out_dir = tmp_path_factory.mktemp("crit6") / "run"
    started = time.perf_counter()
    code = cli.main(["run", "--config", "dirichlet-simplex-d2",
                     "--out", str(out_dir)])
    elapsed = time.perf_counter() - started
    return {"code": code, "out": out_dir, "elapsed": elapsed}


def test_criterion_01_descent_lemma(quartic_setup):
    report = quartic_setup["report"]
    elapsed = quartic_setup["elapsed"]
    worst = min(row["margin"] for row in report["steps"])
    ok = (
        len(report["steps"]) == 200
        and report["descent_ok"]
        and report["kl_strictly_decreased"]
        and elapsed < 60.0
    )
    _report(1, ok,
            f"200-step quartic flow: worst margin {worst:.3e} (tol 1e-7), "
            f"KL {report['kl_first']:.4f} -> {report['kl_last']:.4f}, "
            f"{elapsed:.1f}s")


def test_criterion_02_falsification(tmp_path):
    started = time.perf_counter()
    code = cli.main(["verify", "--suite", "descent",
                     "--target", "quartic-1d-descent",
                     "--out", str(tmp_path / "v10"), "--gamma-scale", "10"])
    elapsed = time.perf_counter() - started
    report = json.loads((tmp_path / "v10" / "report.json").read_text())
    ok = code == 1 and report["violations"] and elapsed < 60.0
    _report(2, ok,
            f"10x step size: exit {code}, "
            f"{len(report['violations'])} violation(s) reported, {elapsed:.1f}s")


def test_criterion_03_field_formula_identities():
    started = time.perf_counter()
    target = MirroredTarget(Dirichlet([3.0, 2.0]), EntropicSimplexMap(1))
    flow = MirroredFlow(target, IMQKernel())
    worst = 0.0
    for step, density, field in flow.states(gamma=0.05, steps=100):
        if step % 10 == 0:  # steps 0, 10, ..., 100
            gaps = flow.g_forms_gap(density, field)
            worst = max(worst, *gaps.values())
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(3, ok,
            f"three field formulas agree to {worst:.3e} (tol 1e-6) at "
            f"steps 0..100, {elapsed:.1f}s")


def test_criterion_04_field_norm_bound(quartic_setup):
    bundle = quartic_setup["bundle"]
    rows = fisher_norm_margins(quartic_setup["records"], bundle.kernel.bounds(),
                               bundle.mirror_map.strong_convexity, 1)
    worst = min(row["margin"] for row in rows)
    ok = worst >= -1e-8 and len(rows) == 201
    _report(4, ok,
            f"norm bound margin >= {worst:.3e} (floor -1e-8) at all "
            f"{len(rows)} logged steps")


def test_criterion_05_svgd_reduction():
    started = time.perf_counter()
    mean = np.array([0.5, -0.3])
    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    prec = np.linalg.inv(cov)
    target = TruncatedGaussian(mean, cov)
    mirror_map = EuclideanMap(2)
    kernel = IMQKernel()
    gamma = 0.05

    mirrored = MirroredTarget(target, mirror_map)
    ens = init_ensemble(50, 2, mirror_map, seed=123)
    reference = ens.dual.copy()
    worst = 0.0
    for _ in range(100):
        ens = msvgd_step(ens, update_field(ens, mirrored, kernel), gamma, mirror_map)
        # independent SVGD oracle: explicit per-particle loop
        score = (mean[None, :] - reference) @ prec
        new = np.empty_like(reference)
        n = reference.shape[0]
        for i in range(n):
            diff = reference - reference[i]
            sq = np.sum(diff * diff, axis=1)
            k = (1.0 + sq) ** -0.5
            gradk = (-0.5 * (1.0 + sq) ** -1.5)[:, None] * (2.0 * diff)
            new[i] = reference[i] + gamma * (k[:, None] * score + gradk).sum(axis=0) / n
        reference = new
        worst = max(worst, float(np.max(np.abs(ens.dual - reference))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(5, ok,
            f"Euclidean trajectory matches reference SVGD to {worst:.2e} "
            f"(tol 1e-12) over 100 steps, {elapsed:.1f}s")


def test_criterion_06_constrained_particle_run(dirichlet_run):
    _, traj = _read_rows(dirichlet_run["out"] / "trajectory.csv")
    theta = np.array([[float(row[2]), float(row[3])] for row in traj])
    feasible = bool(np.all(theta > 0.0) and np.all(theta.sum(axis=1) < 1.0))

    header, diag = _read_rows(dirichlet_run["out"] / "diagnostics.csv")
    steps = [int(row[0]) for row in diag]
    fisher = [float(row[1]) for row in diag]
    decay = fisher[-1] < 0.1 * fisher[0]

    averages = np.cumsum(fisher) / np.arange(1, len(fisher) + 1)
    tail = [avg for step, avg in zip(steps, averages) if step >= 100]
    monotone = bool(np.all(np.diff(tail) <= 0.0))

    ok = (dirichlet_run["code"] == 0 and feasible and decay and monotone
          and steps[-1] == 2000 and dirichlet_run["elapsed"] < 120.0)
    _report(6, ok,
            f"simplex run: feasible={feasible}, fisher {fisher[0]:.4f} -> "
            f"{fisher[-1]:.5f} ({fisher[-1] / fisher[0]:.1%}), running average "
            f"monotone after step 100: {monotone}, {dirichlet_run['elapsed']:.1f}s")


def test_criterion_07_gaussian_moments():
    started = time.perf_counter()
    exact = theory.gaussian_moment(1, 2) == 2.0
    rng = np.random.default_rng(20260817)
    worst_z = 0.0
    for p in (1, 2, 3):
        for d in (1, 2, 3, 5):
            x = rng.standard_normal((200_000, d))
            norms = np.linalg.norm(x, axis=1) ** (p + 1)
            se = norms.std(ddof=1) / math.sqrt(norms.size)
            z = abs(norms.mean() - theory.gaussian_moment(p, d)) / se
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - started
    ok = exact and worst_z <= 3.0 and elapsed < 30.0
    _report(7, ok,
            f"gaussian_moment(1,2)=2 exact: {exact}; Monte Carlo worst "
            f"|z|={worst_z:.2f} (limit 3) on p x d grid, {elapsed:.1f}s")


def test_criterion_08_initial_kl_bound():
    started = time.perf_counter()
    cases = {
        "gaussian": MirroredPowerLaw(2.0, scale=0.5),
        "quartic": MirroredPowerLaw(4.0),
        "cubic": MirroredPowerLaw(3.0),
    }
    margins = {}
    for name, base in cases.items():
        target = MirroredTarget(base, EuclideanMap(1))
        profile = certified_profile(target)
        # the flow's grid is the box certify prices on: the same walk and nodes
        grid = grid_for_target(target)
        log_pi = -target.potential(grid.nodes)
        bound = theory.kl0_upper_bound(target, profile, 1, grid.log_mass(log_pi))
        reference = GridDensity.normalized(grid, log_pi)
        actual = kl_quadrature(standard_normal_density(grid), reference)
        margins[name] = bound - actual
    elapsed = time.perf_counter() - started
    ok = all(m >= 0.0 for m in margins.values()) and elapsed < 30.0
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in margins.items())
    _report(8, ok, f"initial-KL bound margins nonnegative ({detail}), {elapsed:.1f}s")


def test_criterion_09_step_size_formula(quartic_setup):
    rng = np.random.default_rng(7)
    monotone = True
    for _ in range(10_000):
        profile = theory.SmoothnessProfile(
            l0=float(rng.uniform(0.0, 200.0)),
            l1=float(rng.uniform(0.0, 10.0)),
            c_p=float(rng.uniform(0.1, 10.0)),
            p=float(rng.uniform(1.0, 4.0)),
            alpha=float(rng.uniform(1.1, 5.0)),
        )
        bounds = (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.0, 2.0)))
        k = float(rng.uniform(0.1, 3.0))
        d = int(rng.integers(1, 4))
        x1, x2 = sorted(rng.uniform(0.0, 50.0, size=2))
        if theory.step_size_cap(x2, profile, bounds, k, d) > \
           theory.step_size_cap(x1, profile, bounds, k, d) * (1 + 1e-12):
            monotone = False
            break

    # independent arithmetic re-derivation on criterion 1's constants
    bundle = quartic_setup["bundle"]
    prof = bundle.certificate.profile
    b1, b2 = bundle.kernel.bounds()
    p, cp, a = prof.p, prof.c_p, prof.alpha
    kl0 = max(bundle.certificate.kl0_upper, 0.0)
    w = (2.0 ** (0.5 * p) * math.gamma(0.5 * (p + 1.0))
         / math.gamma(0.5)) ** (1.0 / p)
    reach = prof.c_pi_p * 2.0 * (kl0 ** (1.0 / p) + (0.5 * kl0) ** (0.5 / p))
    x = cp * (reach + w) ** p + cp
    lead = min(1.0 / (b1 * prof.l1), (a - 1.0) * 1.0 / (a * b2 * 1.0))
    first = lead * 1.0 / (1.0 * b1 * x + b2 * 1.0)
    second = 1.0 / (a * a * b2 * b2 + (math.e - 1.0) * b1 * b1 * (prof.l1 * x + prof.l0))
    manual = min(first, second)
    rel = abs(manual - bundle.gamma) / bundle.gamma

    ok = monotone and rel <= 1e-12
    _report(9, ok,
            f"cap nonincreasing on 10^4 random tuples: {monotone}; "
            f"independent re-derivation matches to rel {rel:.2e} (tol 1e-12)")


def test_criterion_10_determinism(dirichlet_run, tmp_path):
    rerun = tmp_path / "rerun"
    code = cli.main(["run", "--config", "dirichlet-simplex-d2",
                     "--out", str(rerun)])
    traj_a = (dirichlet_run["out"] / "trajectory.csv").read_bytes()
    traj_b = (rerun / "trajectory.csv").read_bytes()
    trajectories_equal = traj_a == traj_b

    # diagnostics carry a real elapsed-time column; identical up to it
    def _strip_wallclock(path):
        lines = path.read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    diag_equal = (_strip_wallclock(dirichlet_run["out"] / "diagnostics.csv")
                  == _strip_wallclock(rerun / "diagnostics.csv"))
    ok = code == 0 and trajectories_equal and diag_equal
    _report(10, ok,
            f"rerun byte-identical: trajectory={trajectories_equal}, "
            f"diagnostics (modulo wallclock column)={diag_equal}")
