"""Population-limit mirrored flow on dual-space grids.

Everything here works with densities on a fixed truncated grid instead of
particles: the update field is computed by quadrature, one step pushes the
density through x - gamma * g with the change-of-variables formula, and KL
and the smoothed Fisher value are read off the same grid.  This is the
verification side of the package: the descent inequality and the two-formula
identities for g are checked here at quadrature accuracy, in d <= 2.

A flow's grid is the box msvgd.quadrature's bracket walk picks for the dual
target (target_box), unless a halfwidth is given.  The flow holds one state
at a time.  MirroredFlow.states builds each state's field once and pushes
the state forward only when the next one is asked for; MirroredFlow.run
keeps scalar records and the final density only.
Each array is computed once per grid (nodes, weights, log weights), per flow
(the target density, |grad V|), per state (exp(log rho), w rho, the log
gradient; GridDensity.normalized builds and validates each state once) or
per field (its 1D Hermite table, its 2D table of nodal values and
Jacobians).
descent_check reads the records and the caps of a theory.Certificate priced
beforehand; it never rebuilds a flow or a field and never prices a constant.

The field is a handful of kernel-matrix products over the nodes, and one
kernel operator performs them.  The flow holds no operator code: it asks
msvgd.kernels.cached_kernel_operator for the operator over its primal
nodes, which picks FFT convolutions on the lattice when the primal nodes
are the grid itself (the euclidean map), and the point-set operator
otherwise.  g_field takes the operator's chart-slot sums to the dual chart
with the kernel's chart-to-dual Jacobian G per node (msvgd.kernels; the
identity for dual-imq, so its field derivatives are the operator's own).

The pushforward inverts x - gamma * g by Newton's method.  In 1D one search
finds the interval of the field's Hermite table that holds each node's
preimage, Newton runs inside it, and the state's log density is
interpolated there without a second lookup; in 2D each round reads the
field and its Jacobian from one cell lookup and one gather, and the log
density is interpolated on the converged round's cells.

Densities are carried in log space throughout.  Targets like exp(-x^4) reach
log values around -4000 on a grid wide enough to hold the standard-normal
start, so linear-space storage would underflow to exact zeros and poison the
finite differences.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .kernels import cached_kernel_operator
from .quadrature import Grid, chart_saturation_refused, read_only, target_box
from .targets import MirroredTarget
from .theory import field_norm_bound

DEFAULT_NODES_1D = 4096
# Per-axis 2-d default.  Off the euclidean lattice each kernel sum of the
# field is an n x n matrix product over the P = 48^2 nodes.  The operator
# stores the upper tiles of its two symmetric factors f' and f'', four
# ranges of 576 rows (10 tiles, 53 MB against 85 MB for the two full
# factors), inside kernels.PRECOMPUTE_BYTES with room to spare; a flow with
# one step peaks near 56 MB.  Past 95 per axis the tiles are built inside
# every product.
DEFAULT_NODES_2D = 48
# nodes whose density sits this far (nats) below the peak are excluded from
# finite differences in the primal chart, where the grid spacing collapses
PRIMAL_FD_DROP_NATS = 40.0
# pushforward inverse: Newton rounds and the residual it must reach
NEWTON_ROUNDS = 80
NEWTON_TOL = 1e-12

G_FORMS = ("score", "dual", "primal")


# ---------------------------------------------------------------------------
# grids and densities


def grid_for_target(target, nodes: int | None = None, halfwidth: float | None = None) -> Grid:
    """Symmetric box wide enough that the tails of both the dual target and
    the standard-normal start carry less than 1e-12 mass.

    The box is ``quadrature.target_box``, the walk that also prices the
    certificate: halfwidth 8.0 (which already pins the standard-normal
    tail), doubled until the dual log density sits
    quadrature.TAIL_DROP_NATS under its peak at every border node and keeps
    falling along rays far beyond.  A given halfwidth is used as is.
    """
    if nodes is None:
        nodes = DEFAULT_NODES_1D if target.dim == 1 else DEFAULT_NODES_2D
    if halfwidth is None:
        return target_box(target, nodes)[0]
    if not halfwidth > 0:
        raise ConfigError(f"grid halfwidth must be positive, got {halfwidth}")
    return Grid.box(target.dim, nodes, halfwidth)


class GridDensity:
    """Probability density on a Grid, stored as flat log values."""

    def __init__(self, grid: Grid, log_density: np.ndarray):
        log_density = np.asarray(log_density, dtype=float).ravel()
        if log_density.size != grid.size:
            raise ConfigError(
                f"log density has {log_density.size} values for a grid of {grid.size} nodes"
            )
        if np.any(np.isnan(log_density)) or np.any(log_density == np.inf):
            raise DomainError("log density must be finite or -inf")
        self.grid = grid
        self.log_density = log_density

    @functools.cached_property
    def density(self) -> np.ndarray:
        """exp(log density) at every node, read-only, computed once."""
        return read_only(np.exp(self.log_density))

    @functools.cached_property
    def wrho(self) -> np.ndarray:
        """Trapezoid weight times density at every node, read-only."""
        return read_only(self.grid.weights * self.density)

    @functools.cached_property
    def log_gradient(self) -> np.ndarray:
        """Finite-difference gradient of the log density at every node,
        shape (size, dim), read-only.  Computed once per density: a state's
        dual score ratio and its 1-D pushforward share it."""
        if np.any(np.isneginf(self.log_density)):
            node = int(np.argmin(self.log_density))
            raise DomainError(
                f"density is zero at node {node}; the log gradient is undefined there"
            )
        grid = self.grid
        logrho = self.log_density.reshape(grid.shape)
        if grid.dim == 1:
            grad = _fd4_uniform(logrho, grid.spacing[0])[:, None]
        else:
            d0 = _fd4_uniform(logrho.T, grid.spacing[0]).T
            d1 = _fd4_uniform(logrho, grid.spacing[1])
            grad = np.stack([d0.ravel(), d1.ravel()], axis=1)
        return read_only(grad)

    @classmethod
    def normalized(cls, grid: Grid, log_values: np.ndarray) -> "GridDensity":
        """The density proportional to exp(log_values), built and validated
        once: a nan or +inf value, or every value -inf, makes the difference
        nan (quietly), and it is refused."""
        log_values = np.asarray(log_values, dtype=float).ravel()
        if log_values.size == grid.size:
            with np.errstate(invalid="ignore"):
                log_values = log_values - grid.log_mass(log_values)
        return cls(grid, log_values)

    def expectation(self, values: np.ndarray) -> float:
        """Trapezoid integral of node values against this density."""
        return float(np.dot(self.wrho, values))


def standard_normal_density(grid: Grid) -> GridDensity:
    nodes = grid.nodes
    logrho = -0.5 * np.einsum("nd,nd->n", nodes, nodes) - 0.5 * grid.dim * math.log(2.0 * math.pi)
    return GridDensity.normalized(grid, logrho)


# ---------------------------------------------------------------------------
# finite differences


def fornberg_weights(points: np.ndarray, center, order: int) -> np.ndarray:
    """Stencil weights w with sum(w * f(points)) approximating the order-th
    derivative of f at center, by Fornberg's recursion.

    Broadcasts over leading stencil axes: points (..., n) and center (...)
    give weights (..., n).  Every stencil takes the scalar recursion's
    operations in the same order, so a batch equals its stencils' scalar
    calls bit for bit."""
    points = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float)
    n = points.shape[-1]
    if order >= n:
        raise ConfigError("stencil too short for the requested derivative order")
    x = [points[..., i] for i in range(n)]
    c = np.zeros(points.shape[:-1] + (n, order + 1))
    c[..., 0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        mn = min(i, order)
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    c[..., i, m] = c1 * (m * c[..., i - 1, m - 1] - (x[i - 1] - center) * c[..., i - 1, m]) / c2
                c[..., i, 0] = -c1 * (x[i - 1] - center) * c[..., i - 1, 0] / c2
            for m in range(mn, 0, -1):
                c[..., j, m] = ((x[i] - center) * c[..., j, m] - m * c[..., j, m - 1]) / c3
            c[..., j, 0] = (x[i] - center) * c[..., j, 0] / c3
        c1 = c2
    return c[..., order]


# (row, stencil) of the one-sided five-point first-derivative stencils at the
# two edge nodes of each end, for unit spacing; rows 0 and 1 read the first
# five nodes, rows -2 and -1 the last five
_FD4_EDGE_STENCILS = tuple(
    (row, fornberg_weights(np.arange(5.0), center, 1))
    for row, center in ((0, 0.0), (1, 1.0), (-2, 3.0), (-1, 4.0))
)


def _fd4_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative along the last axis of a uniform grid,
    one-sided five-point stencils at the edges."""
    v = values
    out = np.empty_like(v)
    out[..., 2:-2] = (v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1] - v[..., 4:]) / (12.0 * h)
    for row, w in _FD4_EDGE_STENCILS:
        chunk = v[..., :5] if row >= 0 else v[..., -5:]
        out[..., row] = np.dot(chunk, w / h)
    return out


def nonuniform_gradient(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """First derivative on a strictly increasing 1D point set, five-point
    Fornberg stencils shifted one-sided at the ends, all built in one
    batched call."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    n = points.size
    if n < 5:
        raise ConfigError("nonuniform_gradient needs at least 5 points")
    stencils = np.clip(np.arange(n) - 2, 0, n - 5)[:, None] + np.arange(5)
    weights = fornberg_weights(points[stencils], points, 1)
    return np.vecdot(weights, values[stencils])


# ---------------------------------------------------------------------------
# interpolation


# A 1-D Hermite table has one column per piece of the line: column 0 lies
# below the box, column j in 1..n-1 is the interval [x_{j-1}, x_j] (the last
# node closes the last interval), and column n lies above the box.  A point's
# offset t on its piece is measured from the piece's left node (x_0 below
# the box, x_{n-1} above it) in units of the spacing.


def _hermite_table(v: np.ndarray, m: np.ndarray, h: float, extend: str) -> np.ndarray:
    """(4, n + 1) coefficients of the cubic Hermite interpolant through node
    values v and slopes m, spacing h: on column j the value is
    c0 + t (c1 + t (c2 + t c3)).  Beyond the box it is held "constant" or
    extended "linear"-ly along the edge slope."""
    n = v.size
    table = np.zeros((4, n + 1))
    c0, c1, c2, c3 = table[:, 1:n]  # the intervals, written in place
    c0[:] = v[:-1]
    np.multiply(m[:-1], h, out=c1)
    fall = v[:-1] - v[1:]
    np.multiply(m[1:], h, out=c3)
    c3 += c1
    c3 += fall
    c3 += fall  # 2 fall + h m0 + h m1
    np.add(c3, fall, out=c2)
    c2 += c1
    np.negative(c2, out=c2)  # -(3 fall + 2 h m0 + h m1)
    table[0, 0], table[0, n] = v[0], v[-1]
    if extend == "linear":
        table[1, 0], table[1, n] = h * m[0], h * m[-1]
    return table


def _hermite_columns(breaks: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Column of each point q among increasing breakpoints, by one binary
    search: breaks[j - 1] <= q < breaks[j], except that the last breakpoint
    itself closes column n - 1."""
    closed = breaks.copy()
    closed[-1] = np.nextafter(closed[-1], np.inf)
    return np.searchsorted(closed, q, side="right")


def _cubic(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    return c[0] + t * (c[1] + t * (c[2] + t * c[3]))


def _slope(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    return c[4] + t * (c[5] + t * c[6])


def _bilinear_pieces(grid: Grid, q: np.ndarray):
    """Cell indices and in-cell coordinates of points q (n, 2), clipped to
    the box."""
    ax0, ax1 = grid.axes
    q0 = np.clip(q[:, 0], ax0[0], ax0[-1])
    q1 = np.clip(q[:, 1], ax1[0], ax1[-1])
    i = np.clip(np.searchsorted(ax0, q0, side="right") - 1, 0, ax0.size - 2)
    j = np.clip(np.searchsorted(ax1, q1, side="right") - 1, 0, ax1.size - 2)
    return i, j, (q0 - ax0[i]) / (ax0[1] - ax0[0]), (q1 - ax1[j]) / (ax1[1] - ax1[0])


def _bilinear(grid: Grid, flat_values: np.ndarray, pieces) -> np.ndarray:
    """Bilinear interpolation of node values (trailing dims preserved) at
    the points that ``pieces`` locates, constant beyond the box."""
    vals = flat_values.reshape(grid.shape + flat_values.shape[1:])
    i, j, t, u = pieces
    pad = (...,) + (None,) * (vals.ndim - 2)
    t, u = t[pad], u[pad]
    return ((1 - t) * (1 - u) * vals[i, j] + t * (1 - u) * vals[i + 1, j]
            + (1 - t) * u * vals[i, j + 1] + t * u * vals[i + 1, j + 1])


class FieldOnGrid:
    """Vector field sampled on a grid together with its nodal Jacobians.

    1D evaluation is cubic Hermite (the nodal derivatives are part of the
    data, not re-estimated) and constant beyond the box, which keeps the flow
    map injective out there.  Its formula lives in one per-field table,
    ``hermite``, which max_stretch and the pushforward's inverse both read.
    2D evaluation is bilinear, on one per-field (P, d + d^2) table of the
    nodal values and Jacobians side by side, so ``bilinear`` gathers both
    in one call from the pieces one cell lookup gives.
    """

    def __init__(self, grid: Grid, values: np.ndarray, derivs: np.ndarray):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)
        expect_v = (grid.size, grid.dim)
        expect_d = (grid.size, grid.dim, grid.dim)
        if self.values.shape != expect_v or self.derivs.shape != expect_d:
            raise ConfigError(
                f"field shapes {self.values.shape}/{self.derivs.shape} do not match "
                f"expected {expect_v}/{expect_d}"
            )

    @functools.cached_property
    def hermite(self) -> np.ndarray:
        """1D only: the (7, n + 1) table of the field on every piece of the
        line, read-only.  Rows 0-3 are the value's Hermite coefficients in
        the offset t (constant beyond the box); rows 4-6 give the slope
        d/dx as s0 + t (s1 + t s2), with s0 the nodal derivative itself."""
        x = self.grid.axes[0]
        m, h = self.derivs[:, 0, 0], x[1] - x[0]
        value = _hermite_table(self.values[:, 0], m, h, "constant")
        slope = np.zeros((3, x.size + 1))
        slope[0, 1:-1] = m[:-1]
        np.multiply(value[2:], [[2.0 / h], [3.0 / h]], out=slope[1:])
        return read_only(np.concatenate([value, slope]))

    @functools.cached_property
    def _nodal(self) -> np.ndarray:
        """2D only: the (P, d + d^2) table of nodal values and flattened
        Jacobians, read-only."""
        return read_only(np.concatenate(
            [self.values, self.derivs.reshape(self.grid.size, -1)], axis=1))

    def bilinear(self, pieces) -> tuple:
        """2D only: (values (n, d), Jacobians (n, d, d)) at the points that
        the bilinear ``pieces`` locate, from one interpolation of the
        nodal table."""
        d = self.grid.dim
        both = _bilinear(self.grid, self._nodal, pieces)
        return both[:, :d], both[:, d:].reshape(-1, d, d)

    def max_stretch(self) -> tuple:
        """Largest Jacobian magnitude (max row sum) of the interpolated field,
        and the node nearest to where it is reached.

        In 2D the Jacobian is a bilinear blend of the nodal Jacobians, so the
        largest value sits at a node.  In 1D the slope on each interval is
        the table's quadratic s0 + t (s1 + t s2), so its supremum is at an
        end (a node) or at the vertex t = -s1 / (2 s2).
        """
        if self.grid.dim == 2:
            mags = np.abs(self.derivs).sum(axis=2).max(axis=1)
            node = int(np.argmax(mags))
            return float(mags[node]), node
        mags = np.abs(self.derivs[:, 0, 0])
        node = int(np.argmax(mags))
        c = self.hermite[:, 1:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = c[5] / c[6]
        t *= -0.5
        t[~((t > 0.0) & (t < 1.0))] = 0.0
        peak = np.abs(_slope(c, t))
        k = int(np.argmax(peak))
        if peak[k] > mags[node]:
            return float(peak[k]), k + int(t[k] > 0.5)
        return float(mags[node]), node


# ---------------------------------------------------------------------------
# the flow


class MirroredFlow:
    """Quadrature-side mirrored flow for one (target, kernel) pair.

    The target is a MirroredTarget: the flow reads its dual potential and,
    once per node, its operand (MirroredTarget.operand), whose negation is
    the potential's gradient.  The kernel products of the field go through
    one kernel operator, built once since the grid never moves, by
    kernels.cached_kernel_operator over the primal nodes; the flow holds no
    operator code and makes no choice of its own.  The flow build maps its
    nodes under quadrature.chart_saturation_refused, so a chart that saturates
    on an explicit wide grid is refused by name before any output.
    """

    def __init__(self, mirrored: MirroredTarget, kernel, grid: Grid | None = None,
                 nodes: int | None = None, halfwidth: float | None = None):
        self.target = mirrored
        self.map = mirrored.map
        self.kernel = kernel
        self.grid = grid if grid is not None else grid_for_target(mirrored, nodes, halfwidth)
        if self.grid.dim != mirrored.dim:
            raise ConfigError(
                f"grid dimension {self.grid.dim} does not match target dimension {mirrored.dim}"
            )

        x = self.grid.nodes
        with chart_saturation_refused(mirrored):
            potential = mirrored.potential(x)
            self.theta = self.map.grad_psi_star(x)
        self._pi = GridDensity.normalized(self.grid, -potential)
        # integrated-by-parts operand: Hinv score + div Hinv, the same vector
        # the particle engine averages, and -grad V at the nodes
        self.primal_score, self.hinv, self.operand = mirrored.operand(self.theta)
        self.grad_potential = -self.operand
        self.grad_potential_norm = np.sqrt(
            np.einsum("nd,nd->n", self.grad_potential, self.grad_potential))
        self.dual_jacobian = kernel.dual_jacobian(self.hinv)
        self.kernel_operator = cached_kernel_operator(kernel, self.theta, self.grid)

    # -- densities ----------------------------------------------------------

    def initial_density(self) -> GridDensity:
        return standard_normal_density(self.grid)

    def dual_score_ratio(self, density: GridDensity) -> np.ndarray:
        """grad log(mu/pi) at every node in the dual chart: finite-difference
        log mu plus the exact potential gradient."""
        return density.log_gradient + self.grad_potential

    # -- field --------------------------------------------------------------

    def g_field(self, density: GridDensity, form: str = "score") -> FieldOnGrid:
        """Kernel-smoothed score difference on the grid, with exact nodal
        derivatives for the pushforward Jacobian.

        form "score" integrates by parts so only exact target quantities
        appear under the integral; "dual" uses the finite-difference dual
        score ratio; "primal" differentiates in the primal chart on the
        mapped (nonuniform) point set, d=1 only.  The three agree to
        quadrature accuracy; flows are driven by "score".
        """
        if form not in G_FORMS:
            raise ConfigError(f"unknown g form {form!r}; expected one of {G_FORMS}")
        wrho = density.wrho
        if form == "score":
            op, sign = self.operand, -1.0
        elif form == "dual":
            op, sign = self.dual_score_ratio(density), 1.0
        else:
            op, sign = self._primal_operand(density), 1.0
        jac = self.dual_jacobian                                      # (P, d, d)
        u = wrho[:, None, None] * jac if form == "score" else None
        vals, dvals = self.kernel_operator.apply(wrho[:, None] * op, u)
        # dvals differentiates in the chart's evaluation slot: chain rule to dual
        derivs = sign * np.einsum("jdc,jcf->jdf", dvals, jac)
        return FieldOnGrid(self.grid, sign * vals, derivs)

    def _primal_operand(self, density: GridDensity) -> np.ndarray:
        if self.grid.dim != 1:
            raise ConfigError("the primal-chart form is implemented for d=1 only")
        theta = self.theta[:, 0]
        log_det = self.map.log_det_hess_inv(self.theta)
        log_mu_primal = density.log_density - log_det
        keep = density.log_density >= density.log_density.max() - PRIMAL_FD_DROP_NATS
        idx = np.flatnonzero(keep)
        lo, hi = int(idx[0]), int(idx[-1])
        if hi - lo + 1 < 5:
            raise NumericsError("density support too narrow for the primal-chart stencils")
        ratio = np.zeros_like(theta)
        dlog = nonuniform_gradient(theta[lo:hi + 1], log_mu_primal[lo:hi + 1])
        ratio[lo:hi + 1] = dlog - self.primal_score[lo:hi + 1, 0]
        out = np.einsum("nde,ne->nd", self.hinv, ratio[:, None])
        out[lo:hi + 1][~keep[lo:hi + 1]] = 0.0
        out[:lo] = 0.0
        out[hi + 1:] = 0.0
        return out

    def g_forms_gap(self, density: GridDensity, field: FieldOnGrid) -> dict:
        """Sup-norm disagreements between the three field formulas, given
        the state's own "score" field."""
        score = field.values
        dual = self.g_field(density, form="dual").values
        primal = self.g_field(density, form="primal").values
        return {
            "score_vs_dual": float(np.max(np.abs(score - dual))),
            "score_vs_primal": float(np.max(np.abs(score - primal))),
            "dual_vs_primal": float(np.max(np.abs(dual - primal))),
        }

    # -- scalar diagnostics ---------------------------------------------------

    def kl(self, density: GridDensity) -> float:
        """KL(mu | pi) by quadrature against the shared grid normalizer."""
        return kl_quadrature(density, self._pi)

    def mean_grad_potential_norm(self, density: GridDensity) -> float:
        return density.expectation(self.grad_potential_norm)

    def stein_fisher(self, density: GridDensity, field: FieldOnGrid | None = None) -> float:
        """Smoothed relative Fisher value via the pairing of the field with
        the dual score ratio; equals the squared kernel-space norm of the
        field up to quadrature error."""
        if field is None:
            field = self.g_field(density, form="score")
        ratio = self.dual_score_ratio(density)
        return float(np.einsum("n,nd,nd->", density.wrho, field.values, ratio))

    def record(self, step: int, density: GridDensity, field: FieldOnGrid) -> dict:
        """Scalar diagnostics of one state, read off the field it was built with."""
        fisher = self.stein_fisher(density, field)
        return {
            "step": step,
            "kl": self.kl(density),
            "stein_fisher": fisher,
            "field_norm": math.sqrt(max(fisher, 0.0)),
            "mean_grad_norm": self.mean_grad_potential_norm(density),
        }

    # -- stepping -------------------------------------------------------------

    def states(self, gamma: float, steps: int, density: GridDensity | None = None):
        """Yield (step, density, field) for steps 0 to steps.  Each state's
        field is built once and, after the consumer has read it, pushes the
        state forward when the next one is asked for."""
        if density is None:
            density = self.initial_density()
        for n in range(steps + 1):
            field = self.g_field(density, form="score")
            yield n, density, field
            if n < steps:
                density = pushforward_step(density, field, gamma)

    def run(self, gamma: float, steps: int, density: GridDensity | None = None) -> dict:
        """Flow for a fixed number of steps: {"records": the record of every
        state, "final": the last density}, from steps + 1 g_field calls."""
        records = []
        for step, density, field in self.states(gamma, steps, density):
            records.append(self.record(step, density, field))
        return {"records": records, "final": density}


# ---------------------------------------------------------------------------
# pushforward


def pushforward_step(density: GridDensity, field: FieldOnGrid, gamma: float) -> GridDensity:
    """Push the density through x - gamma * field(x) by change of variables.

    The field must be finite and the map injective: gamma times the largest
    field stretch below one.  The log density is then interpolated at each
    node's preimage on the piece the inverse found it on, with no second
    lookup.  gamma = 0 returns the density unchanged, bit for bit.
    """
    finite = np.isfinite(field.values).all(axis=1) & np.isfinite(field.derivs).all(axis=(1, 2))
    if not finite.all():
        node = int(np.argmin(finite))
        raise NumericsError(f"non-finite field at node {node}", particle=node)
    if gamma == 0.0:
        return density
    grid = density.grid
    stretch, node = field.max_stretch()
    if gamma * stretch >= 1.0 - 1e-9:
        raise NumericsError(
            "pushforward map is not injective: gamma * |field stretch| = "
            f"{gamma * stretch:.6g} at node {node}",
            particle=node,
        )
    _, field_jac, pieces = _invert(grid, field, gamma)
    jac = np.eye(grid.dim) - gamma * field_jac
    if grid.dim == 1:
        det = jac[:, 0, 0]
        x = grid.axes[0]
        table = _hermite_table(density.log_density, density.log_gradient[:, 0],
                               x[1] - x[0], "linear")
        columns, t = pieces
        log_rho_at = _cubic(np.take(table, columns, axis=1), t)
    else:
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        log_rho_at = _bilinear(grid, density.log_density, pieces)
    return GridDensity.normalized(grid, log_rho_at - np.log(det))


def _invert(grid: Grid, field: FieldOnGrid, gamma: float) -> tuple:
    """Solve y - gamma * field(y) = x at every node x by Newton's method;
    returns y, the field's Jacobian there, and the pieces that locate y for
    interpolating node values: (column, offset t) of the field's Hermite
    table in 1D, the bilinear cell pieces in 2D.

    In 1D the map is strictly increasing (pushforward_step has checked
    gamma * max_stretch < 1, and the field is constant beyond the box), so
    one search of the nodes among the forward node images x_i - gamma v_i
    finds the table column holding each preimage: an interval of the box,
    or the constant piece beyond it.  Newton then runs on that column alone,
    gathered once, with no lookup in any round.  2D starts at
    the nodes, and each round evaluates the field and its Jacobian from one
    cell lookup and one gather, whose pieces the converged round returns.
    Every residual, beyond the box too, must reach NEWTON_TOL
    within NEWTON_ROUNDS steps, or the worst node is named in a
    NumericsError.
    """
    if grid.dim == 1:
        x = grid.axes[0]
        n, h = x.size, x[1] - x[0]
        forward = x - gamma * field.values[:, 0]
        columns = _hermite_columns(forward, x)
        c = np.take(field.hermite, columns, axis=1)
        prev = columns - 1
        left = x[np.maximum(prev, 0)]
        # start on the secant of the forward map over the column's interval;
        # beyond the box the piece is constant and any start converges at once
        lo = np.clip(prev, 0, n - 2)
        f0 = forward[lo]
        y = left + h * ((x - f0) / (forward[lo + 1] - f0))
        for rounds in range(NEWTON_ROUNDS + 1):
            t = (y - left) / h
            slope = _slope(c, t)
            residual = y - gamma * _cubic(c, t) - x
            worst = np.abs(residual)
            if float(np.max(worst)) <= NEWTON_TOL:
                return y[:, None], slope[:, None, None], (columns, t)
            if rounds < NEWTON_ROUNDS:
                y = y - residual / (1.0 - gamma * slope)
    else:
        targets = grid.nodes
        y = targets.copy()
        for rounds in range(NEWTON_ROUNDS + 1):
            pieces = _bilinear_pieces(grid, y)
            values, jac = field.bilinear(pieces)
            residual = y - gamma * values - targets
            worst = np.max(np.abs(residual), axis=1)
            if float(np.max(worst)) <= NEWTON_TOL:
                return y, jac, pieces
            if rounds < NEWTON_ROUNDS:
                y = y - _solve_2x2(np.eye(2) - gamma * jac, residual)
    node = int(np.argmax(worst))
    raise NumericsError(
        f"pushforward inverse did not converge in {NEWTON_ROUNDS} Newton rounds: "
        f"residual {worst[node]:.3g} at node {node}",
        particle=node,
    )


def _solve_2x2(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per-node solutions of jac @ step = rhs."""
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    step0 = (jac[:, 1, 1] * rhs[:, 0] - jac[:, 0, 1] * rhs[:, 1]) / det
    step1 = (-jac[:, 1, 0] * rhs[:, 0] + jac[:, 0, 0] * rhs[:, 1]) / det
    return np.stack([step0, step1], axis=1)


# ---------------------------------------------------------------------------
# KL and the descent report


def kl_quadrature(density: GridDensity, reference: GridDensity) -> float:
    """KL(density | reference) by quadrature on their shared grid; +inf when
    the density puts mass where the reference has none."""
    rho = density.density
    support = rho > 0.0
    gap = density.log_density - reference.log_density
    if np.any(~np.isfinite(gap[support])):
        return math.inf
    integrand = np.zeros_like(rho)
    integrand[support] = rho[support] * gap[support]
    value = float(np.dot(density.grid.weights, integrand))
    if value < -1e-9:
        raise NumericsError(f"KL quadrature returned {value}, below the -1e-9 floor")
    return value


def fisher_norm_margins(records, kernel_bounds, strong_convexity: float, dim: int):
    """Margin of the kernel-norm bound sqrt(fisher) <= b1 E||grad V|| + b2 d / K
    (theory.field_norm_bound) for every record; nonnegative margins certify
    the bound."""
    rows = []
    for rec in records:
        rhs = field_norm_bound(rec["mean_grad_norm"], kernel_bounds, strong_convexity, dim)
        rows.append({
            "step": rec["step"],
            "field_norm": rec["field_norm"],
            "bound_rhs": rhs,
            "margin": rhs - rec["field_norm"],
        })
    return rows


def descent_check(flow: MirroredFlow, records, gamma: float, certificate=None,
                  tol: float = 1e-7) -> dict:
    """Per-step descent report for the records of one flow's run.

    Checks KL(n+1) - KL(n) <= -(gamma/2) * fisher(n) + tol at every step,
    reading KL, fisher, the field norm and the mean gradient norm from the
    records, so the records must cover consecutive steps, as
    MirroredFlow.run's do.
    When a ``theory.Certificate`` for the flow's setting is supplied, gamma
    is also checked for admissibility in both regimes: against its fixed
    worst-case cap (the "theorem" step size, priced from the initial-KL
    upper bound, not the measured KL), and against the per-state cap from
    each record's measured field norm and growth statistic.  The
    certificate is read, never re-priced.
    """
    if not records:
        raise ConfigError("descent_check needs at least one record")
    steps = [rec["step"] for rec in records]
    if steps != list(range(steps[0], steps[0] + len(steps))):
        raise ConfigError(
            "descent_check needs a record for every step, as MirroredFlow.run gives"
        )
    if certificate is not None and (
        certificate.dim != flow.grid.dim
        or certificate.kernel_bounds != tuple(float(b) for b in flow.kernel.bounds())
        or certificate.strong_convexity != float(flow.map.strong_convexity)
    ):
        raise ConfigError("the certificate was priced for a different map, kernel or dimension")
    kls = [rec["kl"] for rec in records]
    fishers = [rec["stein_fisher"] for rec in records]

    rows, all_pass = [], True
    for n in range(len(records) - 1):
        drop = kls[n + 1] - kls[n]
        rhs = -(gamma / 2.0) * fishers[n]
        margin = rhs + tol - drop
        ok = bool(margin >= 0.0)
        all_pass = all_pass and ok
        rows.append({
            "step": steps[n],
            "kl": kls[n],
            "kl_next": kls[n + 1],
            "stein_fisher": fishers[n],
            "bound_rhs": rhs,
            "margin": margin,
            "ok": ok,
        })

    report = {
        "gamma": gamma,
        "tolerance": tol,
        "steps": rows,
        "kl_first": kls[0],
        "kl_last": kls[-1],
        "kl_strictly_decreased": bool(kls[-1] < kls[0]) if len(kls) > 1 else True,
        "descent_ok": all_pass,
    }
    if certificate is not None:
        caps = [certificate.cap(rec["field_norm"], rec["mean_grad_norm"]) for rec in records]
        report["kl0_upper"] = certificate.kl0_upper
        report["fixed_cap"] = certificate.fixed_cap
        report["fixed_cap_ok"] = bool(gamma <= certificate.fixed_cap * (1.0 + 1e-12))
        report["per_step_caps"] = caps
        report["per_step_cap_ok"] = bool(all(gamma <= c * (1.0 + 1e-12) for c in caps))
        report["passed"] = bool(
            all_pass and report["fixed_cap_ok"] and report["per_step_cap_ok"]
        )
    else:
        report["passed"] = all_pass
    return report
