"""Finite-particle mirrored-flow stepper.

Particles are tracked in both charts: primal positions live inside the
constraint set, dual positions in the unconstrained space where the kernel
update is applied.  A run builds one averaged kernel field per state
(update_field) and uses it twice: msvgd_step moves the dual cloud along it
and maps back through the conjugate gradient, so feasibility is automatic;
then a logged state's Stein-Fisher snapshot (stein_fisher_particles) and
smoothness level (a_n) read it, together with the operand and the kernel's
chart-to-dual Jacobians G (msvgd.kernels) the field was built from, so no
score or mirror Hessian is evaluated twice per state.
With the Euclidean map the whole scheme collapses to standard SVGD, which
is the reduction the tests pin.

One streaming budget, kernels.STREAM_BYTES (1 MiB), sizes every kernel
block a particle run streams.  The field is built over its own blocks of
rows, not the kernel operator's tiles: near-equal ranges of at most
kernels.field_rows(n, d) particles, so that one block and its factor take
about that budget (one block of 200 particles in 2-D, 32 of 31 or 32 for
1000 in 3-D).  The snapshot's operator builds tiles of at most
kernels.streamed_tile_rows() rows, whose two factors take about the same
(one tile for 200 particles, four ranges of 250 for 1000).  The field
evaluates the chart once per state, and a logged state evaluates it once
more, in the snapshot's operator.  For each block of r rows one pass of
squared distances and one profile pass give f and f' (r, n): f feeds the
drift einsum and is dropped, then f' becomes the (n, r, d) chart-slot
gradient block for the repulsion einsum.  Each velocity row is the same
einsum sum over the same operands whichever block it falls in, and the
tests pin the blocked field to one block's bits.  The einsum contractions
stay until the field is one operator apply per state, as the snapshot
already is.

The start cloud is standard normal in the dual chart, drawn from Python's
random.Random(seed) (init_ensemble), so a run never imports numpy.random.
Reductions over the particle index use fixed-order einsum paths, and the
snapshot reduces through matrix products of fixed shape (the kernel operator
of msvgd.kernels), so a fixed seed gives bit-identical trajectories and
diagnostics.
"""

from __future__ import annotations

import csv
import json
import os
import random
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .config import RunConfig, RuntimeBundle
from .errors import NumericsError

TRAJECTORY_FILE = "trajectory.csv"
DIAGNOSTICS_FILE = "diagnostics.csv"
MANIFEST_FILE = "manifest.json"


@dataclass
class ParticleEnsemble:
    """Matched primal/dual particle clouds at one step.

    primal is (n, d) and strictly interior; dual is (n, d) with
    dual[i] = grad_psi(primal[i]) up to conjugate round-trip error (the
    stepper always derives primal from dual, never the other way).
    """

    primal: np.ndarray
    dual: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        self.primal = np.asarray(self.primal, dtype=float)
        self.dual = np.asarray(self.dual, dtype=float)
        if self.primal.shape != self.dual.shape or self.primal.ndim != 2:
            raise ValueError("primal and dual must be matched (n, d) arrays")

    @property
    def size(self) -> int:
        return self.primal.shape[0]

    @property
    def dim(self) -> int:
        return self.primal.shape[1]


def init_ensemble(particles: int, dim: int, mirror_map, seed: int) -> ParticleEnsemble:
    """Standard-normal dual cloud, mapped to primal.

    The draws are random.Random(seed).gauss(0.0, 1.0), filled in row-major
    order.  Python's random module is loaded with numpy already, so a run
    never imports numpy.random, whose generators would add about 6 MB of
    resident memory and 15 ms of imports for a few hundred numbers.
    """
    gen = random.Random(seed)
    dual = np.fromiter((gen.gauss(0.0, 1.0) for _ in range(particles * dim)),
                       dtype=float, count=particles * dim).reshape(particles, dim)
    primal = mirror_map.grad_psi_star(dual)
    return ParticleEnsemble(primal=primal, dual=dual, step_index=0)


@dataclass(frozen=True)
class ParticleField:
    """One state's update field and the per-particle values it was built
    from: ``velocity`` (n, d) is the field at each particle, ``operand``
    (n, d) the score-plus-divergence term Hinv(t_j) s(t_j) + div Hinv(t_j),
    and ``dual_jacobian`` (n, d, d) the kernel's G(t_j) = Hinv(t_j) J(t_j)."""

    velocity: np.ndarray
    operand: np.ndarray
    dual_jacobian: np.ndarray


def update_field(ensemble: ParticleEnsemble, mirrored, kernel) -> ParticleField:
    """Averaged dual-space velocity field evaluated at every particle.

    velocity[i] = (1/n) sum_j [ k(t_i, t_j) (Hinv(t_j) s(t_j) + div Hinv(t_j))
                                + G(t_j) grad1 k(t_j, t_i) ]

    with t the primal positions, s the primal score, grad1 in the kernel's
    first chart slot and G = Hinv J (Kernel.dual_jacobian).  The second term
    is the product-rule remainder of the kernel-smoothed divergence; together
    they make the field a pure average of certified primal primitives.  The
    operand and Hinv come from the mirrored target (MirroredTarget.operand).
    An adaptive kernel first refreshes its bandwidth from this primal cloud.
    The returned field keeps the operand and G it was built from, for
    the state's Stein-Fisher snapshot and smoothness level.

    The sums run one block of r <= kernels.field_rows(n, d) particles at a
    time, so the peak is one (n, r, d) gradient block and its (r, n)
    factor, about kernels.STREAM_BYTES.  kernels.particle_bytes prices
    that peak.
    """
    theta = ensemble.primal
    n = theta.shape[0]
    if kernel.adaptive:
        kernel.update_bandwidth(theta)
    _, hinv, operand = mirrored.operand(theta)
    jac = kernel.dual_jacobian(hinv)
    x = kernel.chart(theta)

    velocity = np.empty_like(operand)
    for rows in kernels.row_ranges(n, kernels.field_rows(n, x.shape[1])):
        f, fp = kernels.field_factors(kernel.profile, x, rows)
        drift = np.einsum("ij,jd->id", f, operand)
        del f  # before the (n, r, d) block is built
        # grad1[j, i] = d/dx_j k(t_j, t_i); the block and f' go before the
        # next block's factors are built
        repulsion = np.einsum("jde,jie->id", jac, kernels.field_gradient(x, rows, fp))
        del fp
        velocity[rows] = (drift + repulsion) / float(n)
    return ParticleField(velocity=velocity, operand=operand, dual_jacobian=jac)


def a_n(operand, profile) -> float:
    """Smoothness level along the current cloud: l0 + l1 * mean ||grad V||.

    ``operand`` (n, d) holds -grad V at each particle: the operand of the
    state's field (``ParticleField``), so no potential gradient is
    evaluated again.  grad V itself gives the same value.
    """
    if profile.l1 == 0.0:
        return profile.l0
    return profile.growth(float(np.mean(np.sqrt(np.sum(operand * operand, axis=1)))))


def stein_fisher_particles(ensemble: ParticleEnsemble, kernel, field: ParticleField) -> float:
    """Squared kernel-space norm of the update field over the ensemble: the
    V-statistic of the score-plus-divergence operand op_j = Hinv(t_j) s(t_j)
    + div Hinv(t_j).  ``field`` is what ``update_field`` built for this
    ensemble and kernel; its ``operand`` and ``dual_jacobian``
    G_j = Hinv(t_j) J(t_j) are those per-particle values and its
    ``velocity`` is the field v itself, so nothing per particle is
    evaluated again.  With grad1 and grad12 in the kernel's chart slots
    (``msvgd.kernels``), the V-statistic's gram term and one of its two
    equal cross terms sum to (1/n) sum_b op_b.v_b, so

        SF = (1/n) sum_b op_b.v_b + (1/n^2) sum_{b,j} [op_j.G_b grad1 k(t_b,t_j)
                                                      + tr(G_b grad12 k(t_b,t_j) G_j^T)].

    The second sum is sum_b <G_b, dvals_b>_F with (_, dvals) the kernel
    operator's apply(op, G) over the particles (``kernels.kernel_operator``,
    which builds each tile, two factors of at most
    ``kernels.streamed_tile_rows()`` rows, inside the one apply instead of
    caching them):
    its dvals_b pairs grad1 k with op and grad12 k with G_j^T, which is G_j
    because every chart-to-dual Jacobian here is symmetric.  The operator
    reduces through matrix products of fixed shape, so a given ensemble
    always produces the same float.  Nonnegative up to roundoff.  A point
    mass still scores positive through the kernel-derivative block; the
    statistic detects non-convergence, not mere stationarity of the
    velocity.
    """
    theta = ensemble.primal
    n, _ = theta.shape
    velocity, operand, jac = field.velocity, field.operand, field.dual_jacobian
    if np.shape(velocity) != theta.shape:
        raise ValueError(f"velocity has shape {np.shape(velocity)}, expected {theta.shape}")
    _, dvals = kernels.kernel_operator(kernel, theta).apply(operand, jac)
    total = float(np.einsum("bdc,bdc->", jac, dvals))
    return (float(np.einsum("bd,bd->", operand, velocity)) + total / n) / n


@dataclass
class DiagnosticsRecord:
    """One logged row of a run: current step, Stein-Fisher estimate, local
    smoothness level and step size."""

    step: int
    stein_fisher: float
    a_n: float
    gamma: float

    def __post_init__(self) -> None:
        # The estimator is a nonnegative quadratic form; anything below the
        # roundoff floor, or NaN, means the estimate itself is broken.
        if not self.stein_fisher >= -1e-10:
            raise NumericsError(
                f"stein_fisher estimate {self.stein_fisher!r} below the roundoff floor",
                step=self.step,
            )


def _require_finite_field(ensemble: ParticleEnsemble, field: ParticleField) -> None:
    finite = np.isfinite(field.velocity).all(axis=1)
    if not finite.all():
        particle = int(np.argmin(finite))
        raise NumericsError(
            f"non-finite velocity for particle {particle}",
            step=ensemble.step_index,
            particle=particle,
        )


def msvgd_step(ensemble: ParticleEnsemble, field: ParticleField, gamma: float, mirror_map) -> ParticleEnsemble:
    """One explicit step along the state's field (from update_field): move dual, map back."""
    _require_finite_field(ensemble, field)
    dual = ensemble.dual + gamma * field.velocity
    try:
        primal = mirror_map.grad_psi_star(dual)
    except NumericsError as exc:
        raise NumericsError(str(exc), step=ensemble.step_index + 1,
                            particle=exc.particle) from exc
    return ParticleEnsemble(primal=primal, dual=dual, step_index=ensemble.step_index + 1)


def _fmt(value) -> str:
    """Shortest round-trip decimal form; plain ints stay plain."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class _RunWriter:
    """Owns the two CSV files and the logging cadence of a run."""

    def __init__(self, out_dir: Path, dim: int):
        self.trajectory_path = out_dir / TRAJECTORY_FILE
        self.diagnostics_path = out_dir / DIAGNOSTICS_FILE
        self._traj_fh = open(self.trajectory_path, "w", newline="", encoding="utf-8")
        self._diag_fh = open(self.diagnostics_path, "w", newline="", encoding="utf-8")
        self._traj = csv.writer(self._traj_fh)
        self._diag = csv.writer(self._diag_fh)
        names = [f"theta{k + 1}" for k in range(dim)] + [f"x{k + 1}" for k in range(dim)]
        self._traj.writerow(["step", "i"] + names)
        self._diag.writerow(["step", "stein_fisher", "a_n", "gamma", "bandwidth", "wallclock_ms"])
        self.logged_steps: list[int] = []

    def log(self, ensemble: ParticleEnsemble, record: DiagnosticsRecord,
            bandwidth: float, wallclock_ms: float) -> None:
        step = ensemble.step_index
        values = np.hstack([ensemble.primal, ensemble.dual]).tolist()
        self._traj.writerows([str(step), str(i), *map(repr, row)] for i, row in enumerate(values))
        self._diag.writerow([
            str(step),
            _fmt(record.stein_fisher),
            _fmt(record.a_n),
            _fmt(record.gamma),
            _fmt(bandwidth),
            f"{wallclock_ms:.3f}",
        ])
        self.logged_steps.append(step)

    def close(self) -> None:
        self._traj_fh.close()
        self._diag_fh.close()


def run(bundle: RuntimeBundle, out_dir) -> dict:
    """Execute a run wired by config.build_runtime (a "theorem" step size is
    priced here), writing trajectory and diagnostics CSVs.

    Rows are written at step 0, every cadence-th step, and the final step,
    each after its state is stepped, from the field it was stepped with;
    steps=0 builds no field and produces header-only files.  The final state
    is not stepped, but its field gets the same finite check.  A numeric
    abort fills the abort block, logs the last valid state if its field is
    finite, and writes a manifest before the error propagates.  Returns a
    summary dict (also serialized into the manifest).
    """
    started = time.perf_counter()
    cfg = bundle.config
    gamma = bundle.gamma
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    kernel = bundle.kernel
    mirror_map = bundle.mirror_map
    ensemble = init_ensemble(cfg.particles, bundle.dim, mirror_map, cfg.seed)

    writer = _RunWriter(out_dir, bundle.dim)
    logged_sf = []
    abort = None

    def snapshot(ens: ParticleEnsemble, field: ParticleField) -> None:
        sf = stein_fisher_particles(ens, kernel, field)
        an = float("nan") if bundle.profile is None else a_n(field.operand, bundle.profile)
        record = DiagnosticsRecord(step=ens.step_index, stein_fisher=sf, a_n=an, gamma=gamma)
        bandwidth = getattr(kernel, "bandwidth", float("nan"))
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        writer.log(ens, record, bandwidth, elapsed_ms)
        logged_sf.append(sf)

    try:
        for step in range(cfg.steps + 1 if cfg.steps > 0 else 0):
            field, stepped = None, ensemble
            try:
                field = update_field(ensemble, bundle.mirrored, kernel)
                if step < cfg.steps:
                    stepped = msvgd_step(ensemble, field, gamma, mirror_map)
                else:
                    _require_finite_field(ensemble, field)
            except NumericsError as exc:
                at = ensemble.step_index if exc.step is None else exc.step
                abort = {"step": at, "particle": exc.particle, "message": str(exc)}
                if field is not None and np.isfinite(field.velocity).all():
                    snapshot(ensemble, field)
                raise
            if step % cfg.cadence == 0 or step == cfg.steps:
                snapshot(ensemble, field)
            ensemble = stepped
    finally:
        writer.close()
        summary = {
            "steps_completed": ensemble.step_index,
            "particles": cfg.particles,
            "dim": bundle.dim,
            "gamma": gamma,
            "gamma_mode": bundle.gamma_mode,
            "kl0_upper": (bundle.certificate.kl0_upper
                          if bundle.gamma_mode == "theorem" else None),
            "stein_fisher_first": logged_sf[0] if logged_sf else None,
            "stein_fisher_final": logged_sf[-1] if logged_sf else None,
            "logged_steps": list(writer.logged_steps),
            "abort": abort,
        }
        write_manifest(out_dir, cfg, summary=summary,
                       outputs=[TRAJECTORY_FILE, DIAGNOSTICS_FILE],
                       elapsed_s=time.perf_counter() - started, timings=None)
    return summary


def _peak_rss_mb() -> float | None:
    """This process's own high-water RSS (VmHWM), or None where
    /proc/self/status does not exist.  A parent's wait4 ru_maxrss cannot
    give it: a vfork+exec child reports at least its parent's mark."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return None


def write_manifest(out_dir, cfg: RunConfig | None, summary: dict, outputs: list,
                   elapsed_s: float, timings: dict | None) -> Path:
    """Drop a manifest.json describing what was produced and from what.
    Its ``build`` block names the BLAS library and the thread settings the
    run found (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, each None when unset,
    and the CPU affinity size), since the snapshot's bits depend on the
    BLAS thread count.  ``timings``, the command's time.perf_counter spans
    in seconds within elapsed_s, becomes a ``timings`` block; a command
    that keeps none passes None and writes no block."""
    from . import __version__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "build": {
            "package": "msvgd",
            "version": __version__,
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "config": None if cfg is None else cfg.to_dict(),
        "outputs": sorted(outputs),
        "summary": summary,
        "wallclock": {
            "elapsed_s": elapsed_s,
            "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
            "peak_rss_mb": _peak_rss_mb(),
            "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    if timings is not None:
        manifest["timings"] = timings
    path = Path(out_dir) / MANIFEST_FILE
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
