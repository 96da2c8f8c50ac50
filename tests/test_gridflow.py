"""Quadrature-flow checks: finite differences against known stencils, KL
against closed-form Gaussian values, the fixed point of the flow, agreement
of the three field formulas, the lattice and point-set kernel operators
against dense gram blocks, pushforward identities, and the descent report in
both step-size regimes."""

import functools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DenseKernelOperator, ReferenceStep, gram, same_bits

from msvgd import gridflow, kernels, theory
from msvgd.config import build_runtime, load_config
from msvgd.errors import ConfigError, DomainError, NumericsError
from msvgd.gridflow import (
    FieldOnGrid,
    GridDensity,
    MirroredFlow,
    bounds_suite,
    descent_check,
    descent_suite,
    fisher_norm_margins,
    fornberg_weights,
    grid_for_target,
    kl_quadrature,
    lemmas_suite,
    nonuniform_gradient,
    pushforward_step,
    standard_normal_density,
)
from msvgd.kernels import DualIMQKernel, IMQKernel, RBFKernel, RescaledKernel, make_kernel
from msvgd.mirrors import EntropicSimplexMap, EuclideanMap
from msvgd.quadrature import TAIL_DROP_NATS, Grid
from msvgd.targets import Dirichlet, MirroredPowerLaw, MirroredTarget, certified_profile


def quartic_target():
    return MirroredTarget(MirroredPowerLaw(4.0, dim=1), EuclideanMap(1))


def dirichlet_target(conc=(3.0, 2.0)):
    d = len(conc) - 1
    return MirroredTarget(Dirichlet(conc), EntropicSimplexMap(d))


class GaussianDual:
    """Stub dual-native target: potential ||x - mean||^2 / 2."""

    def __init__(self, dim=1, mean=0.0):
        self.dim = dim
        self.mean = float(mean)

    def potential(self, x):
        diff = np.atleast_2d(np.asarray(x, dtype=float)) - self.mean
        return 0.5 * np.einsum("nd,nd->n", diff, diff)


class WindowedGaussian(GaussianDual):
    """Gaussian potential that jumps to +inf outside |x| < cut."""

    def __init__(self, cut):
        super().__init__(dim=1)
        self.cut = float(cut)

    def potential(self, x):
        base = super().potential(x)
        outside = np.abs(np.atleast_2d(np.asarray(x, dtype=float))[:, 0]) >= self.cut
        return np.where(outside, np.inf, base)


class DipThenRise:
    """V = x^2/2 for |x| <= 20 and 200 - 10 (|x| - 20) beyond: exp(-V) dips,
    then rises without bound, so it cannot be normalized."""

    dim = 1

    def potential(self, x):
        r = np.abs(np.atleast_2d(np.asarray(x, dtype=float))[:, 0])
        return np.where(r <= 20.0, 0.5 * r * r, 200.0 - 10.0 * (r - 20.0))


def dirichlet_preset_bundle():
    """The Dirichlet preset's runtime at its theorem step size."""
    return build_runtime(load_config("dirichlet-simplex-d2", {"gamma": "theorem"}))


def dual_reference(grid, target):
    """The target's dual density, normalized on the grid."""
    return GridDensity.normalized(grid, -target.potential(grid.nodes))


# ---------------------------------------------------------------------------
# oracles: plain constructions the library does not need itself


def refined(grid):
    """Same box with the spacing halved (for quadrature sanity checks)."""
    return Grid(tuple(np.linspace(a[0], a[-1], 2 * a.size - 1) for a in grid.axes))


def density_from_values(grid, density):
    """GridDensity from linear-space values, refusing non-positive ones."""
    density = np.asarray(density, dtype=float).ravel()
    if np.any(density <= 0.0):
        node = int(np.argmin(density))
        raise DomainError(f"density is not positive at node {node}; its log is undefined there")
    return GridDensity(grid, np.log(density))


def stein_fisher_double(flow, density):
    """The Stein-Fisher value as an explicit double integral of the full
    gram matrix against both dual score ratios (the definition-shaped
    estimate)."""
    ratio = flow.dual_score_ratio(density)
    q = (flow.grid.weights * density.density)[:, None] * ratio
    K = gram(flow.kernel, flow.theta, flow.theta)
    return float(np.einsum("id,ij,jd->", q, K, q))


def invert_by_bisection(grid, field, gamma):
    """Solve y - gamma * field(y) = x at every 1D node x by 200 rounds of
    bisection on a bracket that must contain the root."""
    targets = grid.nodes[:, 0]
    reach = abs(gamma) * float(np.max(np.abs(field.values))) + 1.0
    lo = np.full_like(targets, grid.axes[0][0] - reach)
    hi = np.full_like(targets, grid.axes[0][-1] + reach)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        too_low = mid - gamma * field_at(field, mid[:, None])[0][:, 0] < targets
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
        if float(np.max(hi - lo)) <= 1e-12:
            break
    return (0.5 * (lo + hi))[:, None]


def field_at(field, points):
    """(values (n, d), Jacobians (n, d, d)) of the interpolated field at
    points (n, d), read off a table of the field built here, at one cell
    lookup per axis."""
    grid = field.grid
    cells = cells_of(grid, points)
    value, *slopes = table_at(field.hermite(), cells, offsets(grid, cells, points), grid, True)
    return value.T, np.moveaxis(np.stack(slopes), (0, 1, 2), (2, 1, 0))


def cells_of(grid, points):
    """The cell (a column per axis) of each point (n, d), one search per axis."""
    return tuple(gridflow._hermite_columns(gridflow._closed(x), q)
                 for x, q in zip(grid.axes, points.T))


def offsets(grid, cells, points):
    """Offsets t (d, n) of points (n, d) in the cells that hold them, from
    each column's left node (x_0 below the box)."""
    origins = np.stack([x[np.maximum(c - 1, 0)] for x, c in zip(grid.axes, cells)])
    return (points.T - origins) / np.array(grid.spacing)[:, None]


def table_at(table, cells, t, grid, slopes):
    """A Hermite table's interpolant, and with ``slopes`` its derivatives,
    at offsets t (d, n) in the given cells, a list of arrays rest + (n,)."""
    return gridflow._horner(gridflow._gather(table, cells), t, grid.spacing, slopes)


def target_density(flow):
    """The target normalized on the flow's grid, which flow.kl measures
    every density against: KL 0 to itself."""
    density = GridDensity.normalized(flow.grid, -flow.target.potential(flow.grid.nodes))
    assert flow.kl(density) == 0.0
    return density


def mass(density):
    """The density's trapezoid mass on its grid."""
    return math.exp(density.grid.log_mass(density.log_density))


def fornberg_scalar(points, center, order):
    """Fornberg's recursion for one stencil in plain Python floats."""
    n = len(points)
    c = [[0.0] * (order + 1) for _ in range(n)]
    c[0][0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        mn = min(i, order)
        for j in range(i):
            c3 = points[i] - points[j]
            c2 *= c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    c[i][m] = c1 * (m * c[i - 1][m - 1] - (points[i - 1] - center) * c[i - 1][m]) / c2
                c[i][0] = -c1 * (points[i - 1] - center) * c[i - 1][0] / c2
            for m in range(mn, 0, -1):
                c[j][m] = ((points[i] - center) * c[j][m] - m * c[j][m - 1]) / c3
            c[j][0] = (points[i] - center) * c[j][0] / c3
        c1 = c2
    return np.array([row[order] for row in c])


def with_dense_operator(flow):
    """The same flow with its kernel products on explicit long-double gram
    blocks in the kernel's chart slots, which g_field takes to the dual
    chart itself."""
    flow.kernel_operator = DenseKernelOperator(flow.kernel, flow.theta, primal=False)
    return flow


# ---------------------------------------------------------------------------
# stencils


class TestFiniteDifferences:
    def test_fornberg_matches_tabulated_central_stencils(self):
        pts = np.arange(-2.0, 3.0)
        w1 = fornberg_weights(pts, 0.0, 1)
        assert np.allclose(w1, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, atol=1e-13)
        w2 = fornberg_weights(pts, 0.0, 2)
        assert np.allclose(w2, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, atol=1e-13)

    def test_fornberg_matches_tabulated_one_sided_stencil(self):
        w = fornberg_weights(np.arange(5.0), 0.0, 1)
        assert np.allclose(w, np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0, atol=1e-13)

    def test_fornberg_exact_on_polynomials_nonuniform(self, rng):
        pts = np.sort(rng.uniform(-1.0, 1.0, size=6))
        center = float(rng.uniform(-0.5, 0.5))
        coeffs = rng.standard_normal(6)
        for order in (1, 2, 3):
            w = fornberg_weights(pts, center, order)
            val = float(np.dot(w, np.polyval(coeffs, pts)))
            deriv = np.polyder(np.poly1d(coeffs), order)(center)
            assert val == pytest.approx(deriv, rel=1e-9, abs=1e-9)

    def test_fornberg_rejects_short_stencil(self):
        with pytest.raises(ConfigError):
            fornberg_weights(np.arange(3.0), 0.0, 3)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), order=st.integers(1, 6),
           batch=st.integers(1, 9))
    def test_batched_fornberg_equals_scalar_recursion_bit_for_bit(self, seed, n, order, batch):
        order = min(order, n - 1)
        rng = np.random.default_rng(seed)
        points = np.sort(rng.uniform(-3.0, 3.0, size=(batch, n)), axis=1)
        points += np.arange(n) * 1e-3  # distinct nodes
        centers = rng.uniform(-3.0, 3.0, size=batch)
        weights = fornberg_weights(points, centers, order)
        assert weights.shape == (batch, n)
        for row, pts, center in zip(weights, points, centers):
            expected = fornberg_scalar([float(p) for p in pts], float(center), order)
            assert row.tobytes() == expected.tobytes()

    def test_uniform_gradient_exact_on_quartic(self):
        grid = Grid((np.linspace(-2.0, 2.0, 64),))
        x = grid.axes[0]
        density = GridDensity(grid, x**4 - 2.0 * x**2 + 0.5)
        grad = density.log_gradient
        expected = 4.0 * x**3 - 4.0 * x
        assert np.max(np.abs(grad[:, 0] - expected)) < 1e-10

    def test_gradient_refuses_zero_density(self):
        grid = Grid((np.linspace(-1.0, 1.0, 16),))
        logrho = np.zeros(16)
        logrho[3] = -np.inf
        with pytest.raises(DomainError, match="node 3"):
            GridDensity(grid, logrho).log_gradient

    def test_nonuniform_gradient_exact_on_quartic(self, rng):
        pts = np.sort(rng.uniform(0.0, 2.0, size=40))
        vals = pts**4 - 3.0 * pts + 1.0
        grad = nonuniform_gradient(pts, vals)
        assert np.max(np.abs(grad - (4.0 * pts**3 - 3.0))) < 1e-8

    def test_2d_log_gradient(self):
        grid = Grid((np.linspace(-1.0, 1.0, 32), np.linspace(-2.0, 2.0, 48)))
        nodes = grid.nodes
        logrho = nodes[:, 0] ** 2 + 0.5 * nodes[:, 1] ** 3
        grad = GridDensity(grid, logrho).log_gradient
        assert np.max(np.abs(grad[:, 0] - 2.0 * nodes[:, 0])) < 1e-10
        assert np.max(np.abs(grad[:, 1] - 1.5 * nodes[:, 1] ** 2)) < 1e-10


# ---------------------------------------------------------------------------
# grids and densities


class TestGridDensity:
    def test_standard_normal_mass_before_renormalization(self):
        grid = Grid((np.linspace(-8.0, 8.0, 4096),))
        nodes = grid.nodes
        logrho = -0.5 * nodes[:, 0] ** 2 - 0.5 * math.log(2.0 * math.pi)
        raw = GridDensity(grid, logrho)
        assert abs(mass(raw) - 1.0) <= 1e-6
        assert abs(grid.log_mass(GridDensity.normalized(grid, logrho).log_density)) <= 1e-13

    def test_moments_of_standard_normal(self):
        grid = Grid((np.linspace(-8.0, 8.0, 4096),))
        density = standard_normal_density(grid)
        x = grid.nodes[:, 0]
        assert density.expectation(x) == pytest.approx(0.0, abs=1e-12)
        assert density.expectation(x * x) == pytest.approx(1.0, abs=1e-9)

    def test_from_density_names_offending_node(self):
        grid = Grid((np.linspace(-1.0, 1.0, 16),))
        vals = np.ones(16)
        vals[7] = 0.0
        with pytest.raises(DomainError, match="node 7"):
            density_from_values(grid, vals)

    def test_normalized_subtracts_the_log_mass(self):
        grid = Grid((np.linspace(-8.0, 8.0, 4096),))
        logrho = -0.5 * grid.nodes[:, 0] ** 2
        want = logrho - grid.log_mass(logrho)
        assert GridDensity.normalized(grid, logrho).log_density.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_normalized_rejects_nan_and_plus_inf(self, bad):
        grid = Grid((np.linspace(-1.0, 1.0, 16),))
        vals = np.zeros(16)
        vals[3] = bad
        # refused quietly: no numpy warning on the way to the DomainError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError):
                GridDensity.normalized(grid, vals)
            with pytest.raises(DomainError):
                GridDensity.normalized(grid, np.full(16, -np.inf))

    def test_rejects_nan_and_plus_inf(self):
        grid = Grid((np.linspace(-1.0, 1.0, 16),))
        bad = np.zeros(16)
        bad[0] = np.nan
        with pytest.raises(DomainError):
            GridDensity(grid, bad)
        bad[0] = np.inf
        with pytest.raises(DomainError):
            GridDensity(grid, bad)

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            Grid((np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),))
        with pytest.raises(ConfigError):
            Grid((np.linspace(0, 1, 4),))

    @pytest.mark.parametrize("nodes", [12000, 16384, 65536])
    @pytest.mark.parametrize("halfwidth", [1.0, 8.0, 64.0])
    def test_large_linspace_axes_are_uniform(self, nodes, halfwidth):
        # np.linspace's steps differ by about one ulp of the halfwidth, which
        # a tolerance relative to the step refused from about 12 000 nodes
        grid = Grid.box(1, nodes, halfwidth)
        assert grid.shape == (nodes,) and grid.size == nodes

    @pytest.mark.parametrize("nodes, halfwidth", [(8, 1.0), (16384, 1.0), (65536, 64.0)])
    def test_a_node_moved_by_a_millionth_of_a_step_is_refused(self, nodes, halfwidth):
        axis = np.linspace(-halfwidth, halfwidth, nodes)
        axis[nodes // 2] += 1e-6 * (axis[1] - axis[0])
        with pytest.raises(ConfigError, match="uniformly spaced"):
            Grid((axis,))
        axis[nodes // 2] = np.nan
        with pytest.raises(ConfigError, match="uniformly spaced"):
            Grid((axis,))

    def test_refined_grid_halves_spacing(self):
        grid = Grid((np.linspace(-2.0, 2.0, 9),))
        fine = refined(grid)
        assert fine.shape == (17,)
        assert fine.spacing[0] == pytest.approx(grid.spacing[0] / 2.0)
        assert fine.axes[0][0] == grid.axes[0][0]
        assert fine.axes[0][-1] == grid.axes[0][-1]

    def test_dip_then_rise_is_refused_by_both_walks(self):
        # exp(-V) falls 128 nats by |x| = 16, then rises without bound past
        # |x| = 20: a box's border alone would accept halfwidth 16
        target = DipThenRise()
        with pytest.raises(NumericsError, match="does not decay"):
            grid_for_target(target)
        profile = theory.SmoothnessProfile(l0=1.0, l1=0.0, c_p=1.0, p=1.0)
        with pytest.raises(NumericsError, match="does not decay"):
            theory.certify(target, profile, (1.0, 1.0), 1.0, 1)

    def test_grid_for_target_keeps_tail_drop(self):
        grid = grid_for_target(quartic_target())
        assert grid.shape == (4096,)
        logpi = -quartic_target().potential(grid.nodes)
        assert logpi[0] <= logpi.max() - TAIL_DROP_NATS
        explicit = grid_for_target(quartic_target(), nodes=512, halfwidth=3.0)
        assert explicit.shape == (512,)
        assert explicit.axes[0][0] == -3.0


# ---------------------------------------------------------------------------
# KL quadrature


class TestKL:
    def test_identical_densities_give_zero(self):
        target = GaussianDual()
        grid = Grid((np.linspace(-8.0, 8.0, 4096),))
        reference = dual_reference(grid, target)
        assert abs(kl_quadrature(standard_normal_density(grid), reference)) <= 1e-10

    def test_mean_shift_closed_form(self):
        m = 0.7
        target = GaussianDual(mean=0.0)
        grid = Grid((np.linspace(-9.0, 9.0, 4096),))
        x = grid.nodes[:, 0]
        shifted = GridDensity(grid, -0.5 * (x - m) ** 2 - 0.5 * math.log(2 * math.pi))
        reference = dual_reference(grid, target)
        assert kl_quadrature(shifted, reference) == pytest.approx(m * m / 2.0, abs=1e-6)

    def test_variance_change_closed_form(self):
        sigma = 1.3
        target = GaussianDual()
        grid = Grid((np.linspace(-10.0, 10.0, 4096),))
        x = grid.nodes[:, 0]
        wide = GridDensity(
            grid, -0.5 * (x / sigma) ** 2 - math.log(sigma) - 0.5 * math.log(2 * math.pi)
        )
        expected = (sigma**2 - 1.0 - 2.0 * math.log(sigma)) / 2.0
        reference = dual_reference(grid, target)
        assert kl_quadrature(wide, reference) == pytest.approx(expected, abs=1e-6)

    def test_support_mismatch_is_infinite(self):
        grid = Grid((np.linspace(-8.0, 8.0, 1024),))
        density = standard_normal_density(grid)
        reference = dual_reference(grid, WindowedGaussian(cut=4.0))
        assert kl_quadrature(density, reference) == math.inf

    def test_never_meaningfully_negative(self, rng):
        target = GaussianDual()
        grid = Grid((np.linspace(-8.0, 8.0, 2048),))
        x = grid.nodes[:, 0]
        reference = dual_reference(grid, target)
        for _ in range(5):
            bump = 0.05 * rng.standard_normal() * np.cos(x * rng.uniform(0.5, 2.0))
            density = GridDensity.normalized(grid, -0.5 * x * x + bump)
            assert kl_quadrature(density, reference) >= -1e-9


# ---------------------------------------------------------------------------
# the field and its fixed point


class TestGField:
    def test_stationary_at_target_quartic(self):
        flow = MirroredFlow(quartic_target(), IMQKernel())
        assert flow.grid.shape == (4096,)
        field = flow.g_field(target_density(flow), form="score")
        assert np.max(np.abs(field.values)) <= 1e-8
        assert abs(flow.stein_fisher(target_density(flow))) <= 1e-10

    def test_stationary_at_target_dirichlet(self):
        flow = MirroredFlow(dirichlet_target(), IMQKernel())
        field = flow.g_field(target_density(flow), form="score")
        assert np.max(np.abs(field.values)) <= 1e-8

    def test_three_forms_agree_along_a_run(self):
        flow = MirroredFlow(dirichlet_target(), IMQKernel())
        checked = []
        for step, density, field in flow.states(gamma=0.05, steps=30):
            if step % 10:
                continue
            checked.append(step)
            gaps = flow.g_forms_gap(density, field)
            for name, gap in gaps.items():
                assert gap <= 1e-6, f"step {step}: {name} gap {gap}"
        assert checked == [0, 10, 20, 30]

    def test_unknown_form_rejected(self):
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=256, halfwidth=4.0)
        with pytest.raises(ConfigError, match="unknown g form"):
            flow.g_field(target_density(flow), form="both")

    def test_flow_on_given_grid_matches_own_grid(self):
        target = quartic_target()
        kernel = IMQKernel()
        flow = MirroredFlow(target, kernel, nodes=512, halfwidth=6.0)
        density = flow.initial_density()
        a = flow.g_field(density).values
        b = MirroredFlow(target, kernel, grid=density.grid).g_field(density).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("every", [1, 10])
    def test_run_builds_one_field_per_state(self, monkeypatch, every):
        # however few of the states the consumer records
        calls = []
        original = MirroredFlow.g_field

        def counting(self, density, form="score"):
            calls.append(form)
            return original(self, density, form=form)

        monkeypatch.setattr(MirroredFlow, "g_field", counting)
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=256, halfwidth=6.0)
        records = [flow.record(*state) for state in flow.states(gamma=0.01, steps=12)
                   if state[0] % every == 0]
        assert len(records) == 12 // every + 1
        assert calls == ["score"] * 13

    def test_run_takes_each_log_gradient_once(self, monkeypatch):
        # a state's Stein-Fisher record and its 1-D pushforward share the
        # density's finite-difference gradient
        calls = []
        original = gridflow._fd4_uniform
        monkeypatch.setattr(gridflow, "_fd4_uniform",
                            lambda values, h: calls.append(h) or original(values, h))
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=256, halfwidth=6.0)
        records = []
        for state in flow.states(gamma=0.01, steps=12):
            records.append(flow.record(*state))
        assert len(calls) == 13
        density = state[1]
        grad = density.log_gradient
        assert grad is density.log_gradient and not grad.flags.writeable
        # the records of a run are scalars: they keep no state alive
        assert all("density" not in rec for rec in records)


def count_builds(monkeypatch, cls, name):
    """Wrap the cached property cls.name so every computation appends its
    instance to the returned list."""
    built, compute = [], vars(cls)[name].func

    def counted(self):
        built.append(self)
        return compute(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return built


class TestOneStateAtATime:
    def test_each_array_is_built_once(self, monkeypatch):
        grids = {name: count_builds(monkeypatch, Grid, name) for name in ("nodes", "weights")}
        states = {name: count_builds(monkeypatch, GridDensity, name)
                  for name in ("density", "wrho")}
        flow = MirroredFlow(quartic_target(), IMQKernel())
        records = []
        for step, final, field in flow.states(gamma=1e-3, steps=20):
            records.append(flow.record(step, final, field))
        assert len(records) == 21
        for built in (*grids.values(), *states.values()):
            assert len({id(obj) for obj in built}) == len(built)  # once per object
        for built in grids.values():
            assert any(grid is flow.grid for grid in built)
        assert len(states["density"]) == 21 and len(states["wrho"]) == 21
        for values in (flow.grid.nodes, flow.grid.weights, final.density, final.wrho):
            assert not values.flags.writeable

    def test_run_keeps_at_most_two_states_alive(self, monkeypatch):
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=512, halfwidth=6.0)
        alive, counts = weakref.WeakSet(), []
        init, g_field = GridDensity.__init__, MirroredFlow.g_field

        def tracked_init(self, *args):
            init(self, *args)
            alive.add(self)

        def counting_g_field(self, density, form="score"):
            counts.append(len(alive))
            return g_field(self, density, form=form)

        monkeypatch.setattr(GridDensity, "__init__", tracked_init)
        monkeypatch.setattr(MirroredFlow, "g_field", counting_g_field)
        records = [flow.record(*s) for s in flow.states(gamma=0.01, steps=200)]
        assert len(records) == 201 and len(counts) == 201
        assert max(counts) <= 2

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pushforward_builds_one_density_per_step(self, monkeypatch, dim):
        if dim == 1:
            flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=512, halfwidth=6.0)
        else:
            flow = MirroredFlow(dirichlet_target((3.0, 3.0, 3.0)), IMQKernel(),
                                nodes=16, halfwidth=6.0)
        built = []
        init = GridDensity.__init__

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(GridDensity, "__init__", counting_init)
        density = flow.initial_density()
        assert len(built) == 1
        for step in range(3):
            density = pushforward_step(density, flow.g_field(density), 0.01)
            assert len(built) == step + 2

    def test_states_push_forward_only_on_demand(self, monkeypatch):
        pushes = []
        original = gridflow.pushforward_step
        monkeypatch.setattr(gridflow, "pushforward_step",
                            lambda *args: pushes.append(1) or original(*args))
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=256, halfwidth=6.0)
        states = flow.states(gamma=0.01, steps=5)
        assert next(states)[0] == 0 and not pushes
        assert next(states)[0] == 1 and len(pushes) == 1
        assert [step for step, _, _ in states] == [2, 3, 4, 5]
        assert len(pushes) == 5


class TestSteinFisher:
    def test_pairing_matches_double_integral(self):
        flow = MirroredFlow(quartic_target(), IMQKernel())
        for step, density, _ in flow.states(gamma=0.01, steps=5):
            if step % 2:
                continue
            pairing = flow.stein_fisher(density)
            double = stein_fisher_double(flow, density)
            assert pairing == pytest.approx(double, rel=1e-6, abs=1e-12)

    def test_nonnegative_on_perturbed_densities(self, rng):
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=1024)
        x = flow.grid.nodes[:, 0]
        for _ in range(5):
            bump = 0.1 * rng.standard_normal() * np.sin(x * rng.uniform(0.3, 1.5))
            density = GridDensity.normalized(flow.grid, -0.5 * x * x + bump)
            assert stein_fisher_double(flow, density) >= -1e-12

    def test_flow_on_given_grid_matches_own_grid(self):
        target = quartic_target()
        flow = MirroredFlow(target, IMQKernel(), nodes=512, halfwidth=6.0)
        density = flow.initial_density()
        again = MirroredFlow(target, IMQKernel(), grid=density.grid)
        assert again.stein_fisher(density) == pytest.approx(
            flow.stein_fisher(density), rel=1e-12
        )

    def test_matches_particle_estimator_loosely(self):
        target = dirichlet_target()
        kernel = IMQKernel()
        flow = MirroredFlow(target, kernel)
        density = flow.initial_density()
        quad = flow.stein_fisher(density)

        from msvgd.engine import init_ensemble, stein_fisher_particles, update_field

        vals = []
        for seed in (0, 1, 2):
            ens = init_ensemble(4000, 1, target.map, seed)
            field = update_field(ens, target, kernel)
            vals.append(stein_fisher_particles(ens, kernel, field))
        assert np.mean(vals) == pytest.approx(quad, rel=0.1)


# ---------------------------------------------------------------------------
# the kernel operator


def _assert_fields_close(fast, reference, rel=1e-13):
    for a, b in ((fast.values, reference.values), (fast.derivs, reference.derivs)):
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


class TestKernelOperator:
    def test_operator_choice(self):
        # kernels.cached_kernel_operator chooses by the points: the lattice
        # when they are the grid's own nodes (the euclidean map, where every
        # chart is affine), the point set otherwise
        def chosen(kernel, target, nodes, halfwidth=None):
            grid = gridflow.grid_for_target(target, nodes, halfwidth)
            theta = target.map.grad_psi_star(grid.nodes)
            return type(kernels.cached_kernel_operator(kernel, theta, grid))

        quartic, dirichlet = quartic_target(), dirichlet_target()
        plane = MirroredTarget(MirroredPowerLaw(4.0, dim=2), EuclideanMap(2))
        lattice, radial = kernels._LatticeOperator, kernels._RadialOperator
        assert chosen(IMQKernel(), quartic, 64, 4.0) is lattice
        assert chosen(IMQKernel(), plane, 12, 4.0) is lattice
        for inner in (IMQKernel(), RBFKernel(0.5)):
            assert chosen(RescaledKernel(inner, 2.0), quartic, 64, 4.0) is lattice
            assert chosen(RescaledKernel(inner, 2.0), plane, 12, 4.0) is lattice
        assert chosen(IMQKernel(), dirichlet, 64) is radial
        assert chosen(RescaledKernel(RBFKernel(0.5), 2.0), dirichlet, 64) is radial
        # dual-imq's chart is grad_psi, the identity on the euclidean map
        for mirror_map, target in ((EuclideanMap(1), quartic), (EuclideanMap(2), plane)):
            dual_imq = make_kernel("dual-imq", mirror_map=mirror_map)
            assert chosen(dual_imq, target, 12, 4.0) is lattice
        assert chosen(make_kernel("dual-imq", mirror_map=dirichlet.map), dirichlet, 64) is radial

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.one_of(st.tuples(st.integers(8, 64)),
                        st.tuples(st.integers(8, 20), st.integers(8, 20))),
        halfwidths=st.tuples(st.floats(2.0, 8.0), st.floats(2.0, 8.0)),
        kernel_name=st.sampled_from(["imq", "rbf", "rescaled-imq", "dual-imq"]),
        width=st.floats(0.5, 3.0),
        mean=st.floats(-1.0, 1.0),
        scale=st.floats(1.0, 2.0),
    )
    def test_lattice_matches_dense_blocks(self, shape, halfwidths, kernel_name, width,
                                          mean, scale):
        self._check_lattice_against_dense_blocks(kernel_name, shape, halfwidths, width, mean,
                                                 scale)

    @pytest.mark.parametrize("shape, halfwidths", [((40,), (5.0,)), ((12, 14), (4.0, 5.5))],
                             ids=["1d", "2d"])
    def test_dual_imq_on_the_euclidean_lattice_matches_dense_blocks(self, shape, halfwidths):
        self._check_lattice_against_dense_blocks("dual-imq", shape, halfwidths, 1.3, 0.4, 1.2)

    @staticmethod
    def _check_lattice_against_dense_blocks(kernel_name, shape, halfwidths, width, mean, scale):
        dim = len(shape)
        mirror_map = EuclideanMap(dim)
        kernel = {"imq": IMQKernel(c=width), "rbf": RBFKernel(bandwidth=width),
                  "rescaled-imq": RescaledKernel(IMQKernel(), width),
                  "dual-imq": DualIMQKernel(mirror_map, c=width)}[kernel_name]
        grid = Grid(tuple(np.linspace(-h, h, n) for n, h in zip(shape, halfwidths)))
        target = MirroredTarget(MirroredPowerLaw(4.0, dim=dim), mirror_map)
        flow = MirroredFlow(target, kernel, grid=grid)
        assert isinstance(flow.kernel_operator, kernels._LatticeOperator)
        x = grid.nodes
        density = GridDensity(grid, -0.5 * np.sum((x - mean) ** 2, axis=1) / scale**2)
        forms = gridflow.G_FORMS if dim == 1 else ("score", "dual")
        lattice = [flow.g_field(density, form=form) for form in forms]
        with_dense_operator(flow)
        for form, fast in zip(forms, lattice):
            _assert_fields_close(fast, flow.g_field(density, form=form))

    @pytest.mark.parametrize("conc, nodes", [((3.0, 2.0), 64), ((2.0, 2.0, 2.0), 12)])
    def test_streaming_matches_precomputed(self, monkeypatch, conc, nodes):
        flow = MirroredFlow(dirichlet_target(conc), IMQKernel(), nodes=nodes)
        assert len(flow.kernel_operator._ranges) == 1
        density = flow.initial_density()
        forms = gridflow.G_FORMS if flow.grid.dim == 1 else ("score", "dual")
        single = [flow.g_field(density, form=form) for form in forms]
        # at most ten rows per tile: 64 nodes in seven ranges of 9 or 10
        # rows, 144 in fifteen of 9 or 10
        monkeypatch.setattr(kernels, "TILE_ROWS", 10)
        flow.kernel_operator = kernels.cached_kernel_operator(flow.kernel, flow.theta, flow.grid)
        assert flow.kernel_operator._tiles is not None
        assert len(flow.kernel_operator._ranges) == -(-flow.grid.size // 10)
        cached = [flow.g_field(density, form=form) for form in forms]
        monkeypatch.setattr(kernels, "PRECOMPUTE_BYTES", 0)
        flow.kernel_operator = kernels.cached_kernel_operator(flow.kernel, flow.theta, flow.grid)
        assert flow.kernel_operator._tiles is None
        for form, tiled, reference in zip(forms, cached, single):
            streamed = flow.g_field(density, form=form)
            # both ways run one loop over the same tiles
            assert streamed.values.tobytes() == tiled.values.tobytes()
            assert streamed.derivs.tobytes() == tiled.derivs.tobytes()
            _assert_fields_close(streamed, reference)

    @pytest.mark.parametrize("conc, nodes", [((3.0, 2.0), 64), ((2.0, 2.0, 2.0), 12)])
    def test_radial_matches_dense_blocks(self, conc, nodes):
        # dual-imq's chart is the dual coordinate, so its field derivatives
        # are the operator's own, with no mirror Hessian in or out: on the
        # 12 x 12 grid, where cond(hess_psi) reaches 1.6e14, they are as
        # close to the long-double blocks as imq's
        target = dirichlet_target(conc)
        for kernel in (IMQKernel(), make_kernel("dual-imq", mirror_map=target.map)):
            flow = MirroredFlow(target, kernel, nodes=nodes)
            assert isinstance(flow.kernel_operator, kernels._RadialOperator)
            density = flow.initial_density()
            forms = gridflow.G_FORMS if flow.grid.dim == 1 else ("score", "dual")
            radial = [flow.g_field(density, form=form) for form in forms]
            with_dense_operator(flow)
            for form, fast in zip(forms, radial):
                _assert_fields_close(fast, flow.g_field(density, form=form))

    def test_lattice_flow_builds_no_node_by_node_array(self):
        tracemalloc.start()
        try:
            flow = MirroredFlow(quartic_target(), IMQKernel())
            for state in flow.states(gamma=1e-3, steps=1):
                flow.record(*state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flow.grid.size == 4096
        # one dense 4096 x 4096 gram matrix alone is 134 MB
        assert peak < 32e6

    @staticmethod
    def _radial_flow_peaks():
        """(operator, tracemalloc peak of the build, peak of the build and
        one step) of a 48 x 48 Dirichlet flow, for imq and dual-imq."""
        target = dirichlet_target((5.0, 5.0, 5.0))
        for kernel in (IMQKernel(), make_kernel("dual-imq", mirror_map=target.map)):
            tracemalloc.start()
            try:
                flow = MirroredFlow(target, kernel, nodes=48)
                build = tracemalloc.get_traced_memory()[1]
                for state in flow.states(gamma=1e-3, steps=1):
                    flow.record(*state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert isinstance(flow.kernel_operator, kernels._RadialOperator)
            assert flow.grid.size == 2304
            assert len(flow.kernel_operator._ranges) == 4
            yield flow.kernel_operator, build, peak

    def test_radial_flow_builds_no_gram_blocks(self):
        for operator, build, peak in self._radial_flow_peaks():
            # the 10 upper tiles of F' and F'' over four ranges of 576 rows
            assert operator._tiles is not None
            assert all(len(tile) == 2 for tile in operator._tiles)
            stored = sum(factor.nbytes for tile in operator._tiles for factor in tile)
            assert stored == kernels._cached_tile_bytes(2304) == 53_084_160
            # The build peaks at 53.7 MB for either kernel, the stored tiles
            # alone: the last tile's F'' takes its squared distances' buffer
            # and F' the one more it builds in (56 MB when the build held f
            # in a third).  The build and a step peak at 56.0 MB inside
            # the push, which holds the field's 0.6 MB Hermite table and the
            # inverse's gathers; the next field's build peaks at 55.5 MB
            # (56.1 MB while the field kept its table until then).  A stored
            # F would add 27 MB (the three factors peaked at 80 MB, their
            # full n x n matrices at 130 MB); gram
            # blocks would be 1 + d + d^2 = 7 n x n arrays (297 MB), and on
            # them the same flow and step peaked at 637 MB for imq and
            # 638 MB for dual-imq.
            assert build < 55e6
            assert peak < 58e6

    def test_flow_build_evaluates_the_operand_once(self, monkeypatch):
        # grad V at the nodes is the negated operand, so the build reads the
        # chart, the mirror Hessians and the score once each (twice when it
        # evaluated grad V on its own)
        calls = {}
        for cls, name in ((EntropicSimplexMap, "grad_psi_star"),
                          (EntropicSimplexMap, "hess_psi_inv"),
                          (EntropicSimplexMap, "div_hess_psi_inv"),
                          (Dirichlet, "grad_log_density")):
            def counting(self, *args, _name=name, _original=getattr(cls, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counting)
        flow = MirroredFlow(dirichlet_target((5.0, 5.0, 5.0)), IMQKernel(), nodes=48)
        assert flow.grid.size == 2304
        assert calls == {"grad_psi_star": 1, "hess_psi_inv": 1, "div_hess_psi_inv": 1,
                         "grad_log_density": 1}
        nodes = flow.grid.nodes
        assert np.array_equal(flow.grad_potential,
                              -flow.target.operand(flow.map.grad_psi_star(nodes))[2])

    def test_radial_flow_streams_one_tile_at_a_time(self, monkeypatch):
        monkeypatch.setattr(kernels, "PRECOMPUTE_BYTES", 0)
        for operator, _, peak in self._radial_flow_peaks():
            assert operator._tiles is None
            # one tile's two factors, built in two buffers, are 5.3 MB; the
            # peak reads 7.6 MB for either kernel.  A build in three buffers
            # read 10.5 MB, and holding the previous tile's three factors
            # while building the next 18 MB.
            assert peak < 8.5e6


# ---------------------------------------------------------------------------
# pushforward


class TestPushforward:
    def test_zero_gamma_is_identity(self):
        grid = Grid((np.linspace(-6.0, 6.0, 512),))
        density = standard_normal_density(grid)
        field = FieldOnGrid(grid, np.ones((512, 1)), np.zeros((512, 1, 1)))
        assert pushforward_step(density, field, 0.0) is density

    def test_constant_field_translates(self):
        grid = Grid((np.linspace(-8.0, 8.0, 2048),))
        density = standard_normal_density(grid)
        c, gamma = 0.8, 0.5
        field = FieldOnGrid(grid, np.full((2048, 1), c), np.zeros((2048, 1, 1)))
        moved = pushforward_step(density, field, gamma)
        x = grid.nodes[:, 0]
        expected = np.exp(-0.5 * (x + gamma * c) ** 2) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(moved.density - expected)) <= 1e-8

    def test_injectivity_violation_names_node(self):
        grid = Grid((np.linspace(-4.0, 4.0, 256),))
        density = standard_normal_density(grid)
        x = grid.nodes
        field = FieldOnGrid(grid, x.copy(), np.ones((256, 1, 1)))
        with pytest.raises(NumericsError, match="not injective"):
            pushforward_step(density, field, 2.0)

    def test_injectivity_is_checked_between_nodes(self):
        # zero nodal derivatives, but the Hermite slope of values x peaks at
        # 1.5 mid-interval: gamma 0.9 folds the map there
        grid = Grid((np.linspace(-3.0, 3.0, 16),))
        field = FieldOnGrid(grid, grid.nodes.copy(), np.zeros((16, 1, 1)))
        stretch, node = field.max_stretch(field.hermite())
        assert stretch == pytest.approx(1.5, rel=1e-12)
        assert 0 <= node < 16
        with pytest.raises(NumericsError, match="not injective") as info:
            pushforward_step(standard_normal_density(grid), field, 0.9)
        assert info.value.particle == node
        assert f"at node {node}" in str(info.value)

    def test_max_stretch_bounds_the_hermite_slope(self, rng):
        grid = Grid((np.linspace(-2.0, 2.0, 12),))
        dense = np.linspace(-2.0, 2.0, 200_001)
        for _ in range(20):
            field = FieldOnGrid(grid, rng.standard_normal((12, 1)),
                                rng.standard_normal((12, 1, 1)))
            stretch, _ = field.max_stretch(field.hermite())
            sampled = float(np.max(np.abs(field_at(field, dense[:, None])[1])))
            assert sampled <= stretch <= sampled * (1.0 + 1e-6)

    def test_linear_field_rescales_gaussian(self):
        # g(x) = x contracts N(0,1) to N(0, (1-gamma)^2) in one step
        grid = Grid((np.linspace(-8.0, 8.0, 4096),))
        density = standard_normal_density(grid)
        x = grid.nodes
        field = FieldOnGrid(grid, x.copy(), np.ones((4096, 1, 1)))
        gamma = 0.25
        moved = pushforward_step(density, field, gamma)
        s = 1.0 - gamma
        expected = np.exp(-0.5 * (x[:, 0] / s) ** 2) / (s * math.sqrt(2 * math.pi))
        assert np.max(np.abs(moved.density - expected)) <= 1e-7

    @pytest.mark.parametrize("nodes", [48, 96])
    def test_linear_field_rescales_gaussian_2d(self, nodes):
        # g(x) = A x pushes N(0, I) to N(0, M M^T), M = I - gamma A, in one step
        grid = Grid.box(2, nodes, 8.0)
        a = np.array([[1.0, 0.3], [0.3, 0.5]])
        field = FieldOnGrid(grid, grid.nodes @ a.T, np.broadcast_to(a, (grid.size, 2, 2)))
        gamma = 0.25
        moved = pushforward_step(standard_normal_density(grid), field, gamma)
        assert set(vars(field)) == {"grid", "values", "derivs"}  # no table outlives the push
        m = np.eye(2) - gamma * a
        cov = m @ m.T
        x = grid.nodes
        quad = np.einsum("ni,ij,nj->n", x, np.linalg.inv(cov), x)
        expected = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
        assert np.max(np.abs(moved.density - expected)) <= 1e-7

    @pytest.mark.parametrize("fraction", [1e-3, 0.5, 0.9])
    def test_newton_inverse_matches_bisection(self, fraction):
        flow = MirroredFlow(quartic_target(), IMQKernel())
        field = flow.g_field(flow.initial_density())
        stretch, _ = field.max_stretch(field.hermite())
        gamma = fraction / stretch
        newton, det, _, _ = gridflow._invert(flow.grid, field, field.hermite(), gamma)
        bisection = invert_by_bisection(flow.grid, field, gamma)
        assert np.max(np.abs(newton - bisection)) <= 1e-12
        assert det.tobytes() == (1.0 - gamma * field_at(field, newton)[1][:, 0, 0]).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_table_reproduces_per_axis_cubics(self, rng, dim):
        # field component i is p_i(x) q_i(y), with cubics p_i and q_i: the
        # tensor-product table holds it exactly inside the box, its values
        # and Jacobians, and each axis holds it constant beyond the box.
        axes = (np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 3.0, 11))[:dim]
        grid = Grid(axes)
        coef = rng.standard_normal((dim, dim, 4))  # (component, axis, power)
        poly = [[np.polynomial.Polynomial(c) for c in row] for row in coef]
        lo = np.array([a[0] for a in axes])
        hi = np.array([a[-1] for a in axes])

        def exact(points, clip):
            """Values (n, c) and Jacobians (n, c, axis) of p_i(x) q_i(y), held
            constant along each axis beyond the box when clip is set."""
            edge = np.clip(points, lo, hi) if clip else points
            factors = np.array([[p(edge[:, k]) for k, p in enumerate(row)] for row in poly])
            slopes = np.array([[p.deriv()(edge[:, k]) for k, p in enumerate(row)] for row in poly])
            held = (edge != points).T
            jac = np.stack([np.where(held[k], 0.0, slopes[:, k]
                                     * np.prod(np.delete(factors, k, axis=1), axis=1))
                            for k in range(dim)], axis=-1)
            return factors.prod(axis=1).T, np.moveaxis(jac, 1, 0)

        values, jac = exact(grid.nodes, clip=False)
        field = FieldOnGrid(grid, values, jac)
        inside = rng.uniform(lo, hi, (300, dim))
        beyond = rng.uniform(lo - 2.0, hi + 2.0, (300, dim))
        for points in (inside, beyond, grid.nodes):
            want_v, want_j = exact(points, clip=True)
            got_v, got_j = field_at(field, points)
            assert np.max(np.abs(got_v - want_v)) <= 1e-12 * np.max(np.abs(want_v))
            assert np.max(np.abs(got_j - want_j)) <= 1e-12 * np.max(np.abs(want_j))

    def test_2d_inverse_returns_its_converged_pieces(self):
        target = dirichlet_target((5.0, 5.0, 5.0))
        flow = MirroredFlow(target, IMQKernel(), nodes=24)
        field = flow.g_field(flow.initial_density())
        gamma = 0.5 / field.max_stretch(field.hermite())[0]
        y, det, cells, t = gridflow._invert(flow.grid, field, field.hermite(), gamma)
        values, jac = field_at(field, y)
        assert np.max(np.abs(y - gamma * values - flow.grid.nodes)) <= gridflow.NEWTON_TOL
        want = np.linalg.det(np.eye(2) - gamma * jac)
        assert np.max(np.abs(det - want)) <= 1e-14
        lookup = cells_of(flow.grid, y)
        for got, expect in zip(cells, lookup):
            assert got.tobytes() == expect.tobytes()
        assert t.tobytes() == offsets(flow.grid, lookup, y).tobytes()

    def test_elimination_solves_and_takes_the_determinant(self, rng):
        # diagonally dominant systems of size 1 to 3, nodes last
        for d in (1, 2, 3):
            a = rng.uniform(-1.0, 1.0, (d, d, 50)) / (2 * d) + np.eye(d)[:, :, None]
            b = rng.standard_normal((d, 50))
            mats = np.moveaxis(a, -1, 0)
            want_x = np.linalg.solve(mats, b.T[:, :, None])[:, :, 0].T
            want_det = np.linalg.det(mats)
            x, det = gridflow._eliminate(a, b)  # in place
            assert x is b
            assert np.max(np.abs(x - want_x)) <= 1e-14
            assert np.max(np.abs(det - want_det)) <= 1e-14

    def test_2d_max_stretch_bounds_the_sampled_row_sum(self, rng):
        # on random fields and on the Dirichlet preset's first state; on the
        # latter the largest row sum at the nodes falls short of the sup
        grid = Grid((np.linspace(-2.0, 2.0, 8), np.linspace(-1.0, 3.0, 10)))
        dense = np.stack(np.meshgrid(np.linspace(-3.0, 3.0, 241), np.linspace(-2.0, 4.0, 241),
                                     indexing="ij"), axis=-1).reshape(-1, 2)
        for _ in range(10):
            field = FieldOnGrid(grid, rng.standard_normal((grid.size, 2)),
                                rng.standard_normal((grid.size, 2, 2)))
            stretch, node = field.max_stretch(field.hermite())
            sampled = np.abs(field_at(field, dense)[1]).sum(axis=2).max()
            assert sampled <= stretch
            assert 0 <= node < grid.size
        bundle = dirichlet_preset_bundle()
        flow = MirroredFlow(bundle.mirrored, bundle.kernel, nodes=48)
        field = flow.g_field(flow.initial_density())
        stretch, _ = field.max_stretch(field.hermite())
        # 12 points per cell along each axis, a chunk of rows at a time
        x0, x1 = (np.linspace(a[0], a[-1], 12 * (a.size - 1) + 1) for a in flow.grid.axes)
        sampled = max(
            np.abs(field_at(field, np.stack(np.broadcast_arrays(x0[i:i + 48, None], x1),
                                            axis=-1).reshape(-1, 2))[1]).sum(axis=2).max()
            for i in range(0, x0.size, 48))
        nodal = np.abs(field.derivs).sum(axis=2).max()
        assert nodal < sampled <= stretch

    @pytest.mark.parametrize("case", ["beyond-both-ends", "onto-nodes", "fixed-node"])
    def test_inverse_matches_bisection_on_edge_cases(self, case):
        grid = Grid((np.linspace(-4.0, 4.0, 65),))  # spacing 1/8, exact in binary
        x = grid.nodes[:, 0]
        if case == "beyond-both-ends":
            # an outward field: the edge nodes' preimages lie beyond the box
            values, slopes, gamma = 0.5 * x + 0.3 * np.sin(2 * x), 0.5 + 0.6 * np.cos(2 * x), 0.8
        elif case == "onto-nodes":
            # gamma * field = 2 spacings exactly: every preimage is a node
            values, slopes, gamma = np.full(65, 0.5), np.zeros(65), 0.5
        else:
            # the field vanishes at the middle node, which is its own preimage
            values, slopes, gamma = 0.3 * np.sin(x), 0.3 * np.cos(x), 1.0
        field = FieldOnGrid(grid, values[:, None], slopes[:, None, None])
        assert gamma * field.max_stretch(field.hermite())[0] < 1.0
        newton, det, cells, t = gridflow._invert(grid, field, field.hermite(), gamma)
        bisection = invert_by_bisection(grid, field, gamma)
        assert np.max(np.abs(newton - bisection)) <= 1e-12
        assert det.tobytes() == (1.0 - gamma * field_at(field, newton)[1][:, 0, 0]).tobytes()
        # the cells and offsets locate the inverse on the field's own table
        on_table = table_at(field.hermite(), cells, t, grid, False)[0][0]
        assert on_table.tobytes() == field_at(field, newton)[0][:, 0].tobytes()
        if case == "beyond-both-ends":
            assert newton[0, 0] < x[0] and newton[-1, 0] > x[-1]
            assert cells[0][0] == 0 and cells[0][-1] == x.size
        elif case == "onto-nodes":
            assert np.array_equal(newton[:-2, 0], x[2:])
        else:
            assert newton[32, 0] == x[32] == 0.0

    def test_1d_pushforward_makes_one_interval_lookup(self, monkeypatch):
        flow = MirroredFlow(quartic_target(), IMQKernel())
        density = flow.initial_density()
        field = flow.g_field(density)
        gamma = 0.5 / field.max_stretch(field.hermite())[0]
        calls = []
        for name in ("searchsorted", "interp", "digitize", "argsort"):
            original = getattr(np, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        moved = pushforward_step(density, field, gamma)
        # the one lookup is a merge of the sorted nodes and forward images
        assert calls == ["argsort"]
        assert abs(mass(moved) - 1.0) <= 1e-12

    @pytest.mark.parametrize("shape", [(16,), (16, 16)])
    @pytest.mark.parametrize("part", ["values", "derivs"])
    def test_non_finite_field_is_a_numeric_abort(self, shape, part):
        grid = Grid(tuple(np.linspace(-4.0, 4.0, n) for n in shape))
        arrays = {"values": np.zeros((grid.size, grid.dim)),
                  "derivs": np.zeros((grid.size, grid.dim, grid.dim))}
        arrays[part][5] = np.nan
        field = FieldOnGrid(grid, arrays["values"], arrays["derivs"])
        with pytest.raises(NumericsError, match="non-finite field at node 5") as info:
            pushforward_step(standard_normal_density(grid), field, 0.1)
        assert info.value.particle == 5

    def test_unconverged_2d_inverse_names_worst_node(self, monkeypatch):
        grid = Grid((np.linspace(-4.0, 4.0, 32), np.linspace(-4.0, 4.0, 32)))
        x0, x1 = grid.nodes.T
        values = 0.4 * np.stack([np.sin(x0 + x1), np.cos(x0 - x1)], axis=1)
        derivs = 0.4 * np.stack([np.stack([np.cos(x0 + x1), np.cos(x0 + x1)], axis=1),
                                 np.stack([-np.sin(x0 - x1), np.sin(x0 - x1)], axis=1)], axis=1)
        field = FieldOnGrid(grid, values, derivs)
        density = standard_normal_density(grid)
        pushforward_step(density, field, 1.0)
        monkeypatch.setattr(gridflow, "NEWTON_ROUNDS", 1)
        with pytest.raises(NumericsError, match="in 1 Newton rounds") as info:
            pushforward_step(density, field, 1.0)
        assert f"at node {info.value.particle}" in str(info.value)

    def test_unconverged_1d_inverse_names_worst_node(self, monkeypatch):
        grid = Grid((np.linspace(-4.0, 4.0, 64),))
        x = grid.nodes[:, 0]
        field = FieldOnGrid(grid, 0.9 * np.sin(x)[:, None], 0.9 * np.cos(x)[:, None, None])
        density = standard_normal_density(grid)
        pushforward_step(density, field, 1.0)
        monkeypatch.setattr(gridflow, "NEWTON_ROUNDS", 1)
        with pytest.raises(NumericsError, match="in 1 Newton rounds") as info:
            pushforward_step(density, field, 1.0)
        assert f"at node {info.value.particle}" in str(info.value)

    def test_mass_preserved_2d(self):
        grid = Grid((np.linspace(-5.0, 5.0, 48), np.linspace(-5.0, 5.0, 48)))
        density = standard_normal_density(grid)
        values = np.stack(
            [0.3 * np.tanh(grid.nodes[:, 0]), -0.2 * np.tanh(grid.nodes[:, 1])], axis=1
        )
        derivs = np.zeros((grid.size, 2, 2))
        derivs[:, 0, 0] = 0.3 / np.cosh(grid.nodes[:, 0]) ** 2
        derivs[:, 1, 1] = -0.2 / np.cosh(grid.nodes[:, 1]) ** 2
        moved = pushforward_step(density, FieldOnGrid(grid, values, derivs), 0.5)
        assert abs(mass(moved) - 1.0) <= 1e-6


class TestStepMatchesReference:
    """The grid step builds each per-grid constant once per grid and each
    per-state array once per state, with the same floating-point
    operations in the same order as conftest.ReferenceStep, which builds
    every array where it is used: every stage must match it bit for bit."""

    @staticmethod
    def _assert_state(flow, density, field, gamma, push):
        grid = flow.grid
        assert same_bits(density.log_gradient,
                         ReferenceStep.log_gradient(grid, density.log_density))
        assert same_bits(flow.kl(density), ReferenceStep.kl(density, target_density(flow)))
        table = field.hermite()
        assert same_bits(table, ReferenceStep.hermite_tensor(grid, field.values, field.derivs))
        stretch = field.max_stretch(table)
        assert stretch == ReferenceStep.max_stretch(field, table)
        assert same_bits(stretch[0], ReferenceStep.max_stretch(field, table)[0])
        inverse = gridflow._invert(grid, field, table, gamma)
        reference = ReferenceStep.invert(grid, field, table, gamma)
        assert same_bits(inverse[0], reference[0]) and same_bits(inverse[1], reference[1])
        assert all(same_bits(a, b) for a, b in zip(inverse[2], reference[2]))
        assert same_bits(inverse[3], reference[3])
        if push:
            moved = pushforward_step(density, field, gamma)
            log_density, reference_stretch = ReferenceStep.pushforward(density, field, gamma)
            assert same_bits(moved.log_density, log_density)
            assert reference_stretch == stretch

    def test_quartic_flow_first_five_states(self):
        bundle = build_runtime(load_config("quartic-1d-descent", {}))
        flow = MirroredFlow(bundle.mirrored, bundle.kernel)
        assert isinstance(flow.kernel_operator, kernels._LatticeOperator)
        operator = flow.kernel_operator
        for step, density, field in flow.states(bundle.gamma, 4):
            q = density.wrho[:, None] * flow.operand
            u = density.wrho[:, None, None] * flow.dual_jacobian
            for parts in ((q, u), (q, None)):
                got = operator.apply(*parts)
                want = ReferenceStep.lattice_apply(operator, flow.kernel, flow.grid, *parts)
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            self._assert_state(flow, density, field, bundle.gamma, push=step < 4)

    @pytest.mark.parametrize("kernel", [IMQKernel(), RescaledKernel(IMQKernel(), 2.0),
                                        DualIMQKernel(EuclideanMap(2))],
                             ids=["imq", "rescaled-imq", "dual-imq"])
    def test_2d_lattice_apply(self, kernel, rng):
        grid = Grid((np.linspace(-5.0, 5.0, 24), np.linspace(-4.0, 6.0, 20)))
        target = MirroredTarget(MirroredPowerLaw(4.0, dim=2), EuclideanMap(2))
        operator = MirroredFlow(target, kernel, grid=grid).kernel_operator
        assert isinstance(operator, kernels._LatticeOperator)
        q = rng.standard_normal((grid.size, 2))
        u = rng.standard_normal((grid.size, 2, 2))
        for parts in ((q, u), (q, None)):
            got = operator.apply(*parts)
            want = ReferenceStep.lattice_apply(operator, kernel, grid, *parts)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("kernel", [IMQKernel(), RBFKernel(0.7)], ids=["imq", "rbf"])
    def test_lattice_k1_spectrum_is_odd(self, kernel):
        # DV's first term reads -K1 for the unreflected samples' spectrum:
        # the same numbers, though where both are exact zeros their signs
        # may differ (the tests above pin the apply's outputs bit for bit)
        grid = Grid((np.linspace(-5.0, 5.0, 24), np.linspace(-4.0, 6.0, 20)))
        operator = kernels._LatticeOperator(kernel, grid)
        unreflected = operator._spectrum(kernels._lag_samples(kernel, grid)[1])
        assert np.array_equal(unreflected, -operator._K1)

    @pytest.mark.parametrize("spacing", [(0.25,), (0.0123, 0.75), (2.5, 1e-3)])
    def test_bernstein_rows_match_the_reference_construction(self, spacing):
        for axis in range(len(spacing)):
            assert same_bits(gridflow._bernstein_rows(spacing, axis),
                             ReferenceStep.bernstein_rows(spacing, axis))

    def test_dirichlet_48x48_states_0_and_1_at_the_theorem_gamma(self):
        bundle = dirichlet_preset_bundle()
        flow = MirroredFlow(bundle.mirrored, bundle.kernel, nodes=48)
        for step, density, field in flow.states(bundle.gamma, 1):
            self._assert_state(flow, density, field, bundle.gamma, push=step < 1)

    def test_2d_linear_field(self):
        grid = Grid.box(2, 48, 8.0)
        a = np.array([[1.0, 0.3], [0.3, 0.5]])
        field = FieldOnGrid(grid, grid.nodes @ a.T, np.broadcast_to(a, (grid.size, 2, 2)))
        density = standard_normal_density(grid)
        moved = pushforward_step(density, field, 0.25)
        log_density, stretch = ReferenceStep.pushforward(density, field, 0.25)
        assert same_bits(moved.log_density, log_density)
        assert field.max_stretch(field.hermite()) == stretch

    def test_max_stretch_value_and_node(self, rng):
        # 1-D fields whose slope peaks inside an interval or at a node, and
        # 2-D fields, whose bound comes from the Bernstein rows
        grid = Grid((np.linspace(-2.0, 2.0, 12),))
        for _ in range(20):
            field = FieldOnGrid(grid, rng.standard_normal((12, 1)),
                                rng.standard_normal((12, 1, 1)))
            table = field.hermite()
            got, want = field.max_stretch(table), ReferenceStep.max_stretch(field, table)
            assert got == want and same_bits(got[0], want[0])
        grid = Grid((np.linspace(-2.0, 2.0, 16), np.linspace(-1.0, 3.0, 12)))
        for _ in range(5):
            field = FieldOnGrid(grid, rng.standard_normal((grid.size, 2)),
                                rng.standard_normal((grid.size, 2, 2)))
            table = field.hermite()
            got, want = field.max_stretch(table), ReferenceStep.max_stretch(field, table)
            assert got == want and same_bits(got[0], want[0])

    def test_merged_columns_match_the_binary_search(self, rng):
        breaks = np.cumsum(rng.uniform(0.1, 1.0, 40))
        # every breakpoint itself, points between them, and beyond both ends
        q = np.sort(np.concatenate([breaks, rng.uniform(breaks[0] - 3.0, breaks[-1] + 3.0, 200),
                                    [breaks[-1], breaks[-1] + 1e-9]]))
        closed = gridflow._closed(breaks)
        merged = gridflow._merged_columns(closed, q)
        assert same_bits(merged, gridflow._hermite_columns(closed, q))
        assert merged[0] == 0 and merged[-1] == breaks.size
        assert merged[np.searchsorted(q, breaks[-1])] == breaks.size - 1


# ---------------------------------------------------------------------------
# flow runs and the descent report


class TestFlowRuns:
    def test_quartic_descent_with_theorem_step(self):
        target = quartic_target()
        kernel = IMQKernel()
        certificate = theory.certify(target, certified_profile(target), kernel.bounds(), 1.0, 1)
        flow = MirroredFlow(target, kernel)
        gamma = certificate.fixed_cap
        assert gamma > 0.0

        report, records = descent_suite(flow, gamma, 20, certificate)
        assert report["passed"]
        assert report["kl_strictly_decreased"]
        assert report["fixed_cap"] == pytest.approx(gamma, rel=1e-12)
        assert all(row["margin"] >= 0.0 for row in report["steps"])

        inflated = descent_check(flow, records, 10.0 * gamma, certificate=certificate)
        assert not inflated["fixed_cap_ok"]

    def test_certificate_cap_is_the_exact_per_state_cap(self):
        target, kernel = quartic_target(), IMQKernel()
        profile = certified_profile(target).with_values("user", c_pi_p=2.5)
        certificate = theory.certify(target, profile, kernel.bounds(), 1.0, 1)
        flow = MirroredFlow(target, kernel, nodes=512, halfwidth=6.0)
        for rec in [flow.record(*s) for s in flow.states(certificate.fixed_cap, steps=3)]:
            norm = math.sqrt(max(rec["stein_fisher"], 0.0))
            growth = profile.l0 + profile.l1 * rec["mean_grad_norm"]
            assert certificate.cap(norm, rec["mean_grad_norm"]) == theory.step_size_cap_exact(
                norm, growth, profile, kernel.bounds(), 1.0, 1)

    def test_descent_check_refuses_a_certificate_for_another_setting(self):
        target, kernel = quartic_target(), IMQKernel()
        profile = certified_profile(target).with_values("user", c_pi_p=2.5)
        flow = MirroredFlow(target, kernel, nodes=512, halfwidth=6.0)
        records = [flow.record(*s) for s in flow.states(gamma=0.01, steps=1)]
        other = theory.certify(target, profile, RBFKernel(0.5).bounds(), 1.0, 1)
        with pytest.raises(ConfigError, match="different map, kernel or dimension"):
            descent_check(flow, records, 0.01, certificate=other)

    def test_records_and_density_bookkeeping(self):
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=512, halfwidth=6.0)
        records = []
        for step, final, field in flow.states(gamma=0.01, steps=7):
            records.append(flow.record(step, final, field))
        assert [r["step"] for r in records] == list(range(8))
        kept = [(step, density) for step, density, _ in flow.states(gamma=0.01, steps=7)
                if step % 3 == 0 or step == 7]
        assert [step for step, _ in kept] == [0, 3, 6, 7]
        for step, density in kept:
            assert density.grid is flow.grid
            assert flow.kl(density) == records[step]["kl"]
        assert np.array_equal(kept[-1][1].log_density, final.log_density)
        kls = [r["kl"] for r in records]
        assert kls == sorted(kls, reverse=True)

    def test_descent_check_needs_every_step(self):
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=512, halfwidth=6.0)
        records = [flow.record(*state) for state in flow.states(gamma=0.01, steps=7)
                   if state[0] % 3 == 0 or state[0] == 7]
        assert [r["step"] for r in records] == [0, 3, 6, 7]
        with pytest.raises(ConfigError, match="every step"):
            descent_check(flow, records, 0.01)

    def test_descent_report_trivial_at_target(self):
        flow = MirroredFlow(quartic_target(), IMQKernel())
        # gamma = 0 leaves the density in place, so both records sit at pi
        records = [flow.record(*s)
                   for s in flow.states(gamma=0.0, steps=1, density=target_density(flow))]
        report = descent_check(flow, records, 0.01)
        assert report["descent_ok"]
        assert abs(report["kl_first"]) <= 1e-9

    def test_descent_suite_adds_strict_decrease_to_descent_check(self):
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=512, halfwidth=6.0)
        # gamma = 0 leaves KL where it was: the inequality holds, the run fails
        report, records = descent_suite(flow, 0.0, 1, None)
        assert [r["step"] for r in records] == [0, 1]
        assert descent_check(flow, records, 0.0)["descent_ok"]
        assert report["violations"] == ["KL did not strictly decrease over the run"]
        assert report["passed"] is False
        assert flow.timings["records"] > 0.0 and flow.timings["checks"] > 0.0

    @pytest.mark.parametrize("suite", [lemmas_suite, bounds_suite])
    def test_suites_record_every_tenth_state_and_the_last(self, suite):
        flow = MirroredFlow(quartic_target(), IMQKernel(), nodes=1024)
        report, records = suite(flow, 1e-4, 12)
        assert [r["step"] for r in records] == [0, 10, 12]
        assert report["violations"] == [] and report["passed"] is True
        assert flow.timings["records"] > 0.0 and flow.timings["checks"] > 0.0

    def test_fisher_norm_margins(self):
        target = quartic_target()
        kernel = IMQKernel()
        flow = MirroredFlow(target, kernel)
        records = [flow.record(*s) for s in flow.states(gamma=1e-4, steps=3)]
        rows = fisher_norm_margins(records, kernel.bounds(), 1.0, 1)
        assert all(row["margin"] >= -1e-8 for row in rows)

    def test_richardson_refinement_stability(self):
        target = quartic_target()
        kernel = IMQKernel()
        coarse = MirroredFlow(target, kernel)
        fine = MirroredFlow(target, kernel, grid=refined(coarse.grid))
        gamma = 1e-3
        last_c, last_f = ([flow.record(*s) for s in flow.states(gamma, steps=3)][-1]
                          for flow in (coarse, fine))
        for key in ("kl", "stein_fisher"):
            a, b = last_c[key], last_f[key]
            assert abs(a - b) <= 1e-5 * abs(b), f"{key}: {a} vs {b}"

    def test_2d_decrement_converges_in_the_grid(self):
        # the step-1 KL decrement of the Dirichlet preset at its theorem
        # step, at 48 and 96 nodes per axis (bilinear: 1.3e-2 apart)
        bundle = dirichlet_preset_bundle()
        drops = []
        for nodes in (48, 96):
            flow = MirroredFlow(bundle.mirrored, bundle.kernel, nodes=nodes)
            records = [flow.record(*s) for s in flow.states(bundle.gamma, steps=1)]
            drops.append(records[1]["kl"] - records[0]["kl"])
        assert drops[0] < 0.0
        assert abs(drops[0] - drops[1]) <= 1e-5 * abs(drops[1])

    def test_2d_dirichlet_smoke(self):
        target = dirichlet_target((2.0, 2.0, 2.0))
        kernel = IMQKernel()
        flow = MirroredFlow(target, kernel, nodes=48)
        assert flow.grid.dim == 2
        density = flow.initial_density()
        assert abs(mass(density) - 1.0) <= 1e-6
        kls = []
        for step, final, field in flow.states(gamma=0.05, steps=2):
            kls.append(flow.record(step, final, field)["kl"])
        assert kls[-1] < kls[0]
        assert abs(mass(final) - 1.0) <= 1e-6

    def test_primal_form_needs_1d(self):
        target = dirichlet_target((2.0, 2.0, 2.0))
        flow = MirroredFlow(target, IMQKernel(), nodes=32)
        with pytest.raises(ConfigError, match="d=1"):
            flow.g_field(flow.initial_density(), form="primal")


@functools.lru_cache(maxsize=None)
def quartic_preset_suite(gamma, steps):
    """descent_suite with no certificate on the quartic preset's flow, its
    default 4096-node box of halfwidth 8, run once per (gamma, steps)."""
    bundle = build_runtime(load_config("quartic-1d-descent", {}))
    return descent_suite(MirroredFlow(bundle.mirrored, bundle.kernel), gamma, steps, None)


class TestLongQuarticFlows:
    """Beyond the box the log density is held constant, as the field is, so
    no mass comes in past the edge at a push.  Extended linearly there, it
    broke the quartic's descent inequality after 1000 to 2000 pushes (28
    violations by step 1700 at gamma 4.9e-3, 17 by step 1000 at 0.16) and
    then aborted as not injective."""

    @pytest.mark.parametrize("gamma, steps", [(4.9e-3, 3000), (0.16, 2000)])
    def test_every_push_descends(self, gamma, steps):
        report, records = quartic_preset_suite(gamma, steps)
        assert [r["step"] for r in records] == list(range(steps + 1))
        assert [row["step"] for row in report["steps"] if not row["ok"]] == []
        assert report["descent_ok"] and report["kl_strictly_decreased"]

    def test_kl_is_the_kl_of_a_box_twice_as_wide(self):
        # halfwidth 16 on 8191 nodes keeps the default box's spacing, 16 /
        # 4095; the linear extension's KL there was 0.0604, 5.5% off
        _, records = quartic_preset_suite(4.9e-3, 3000)
        bundle = build_runtime(load_config("quartic-1d-descent", {}))
        wide = MirroredFlow(bundle.mirrored, bundle.kernel, nodes=8191, halfwidth=16.0)
        for _, density, _ in wide.states(4.9e-3, 1700):
            pass
        kl = wide.kl(density)
        assert abs(records[1700]["kl"] - kl) <= 1e-10 * kl
