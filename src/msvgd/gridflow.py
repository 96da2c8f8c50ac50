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
the state forward only when the next one is asked for; MirroredFlow.record
reads a state's scalars off the field it was built with.
Each array is built once where it lives (README's grid-flow section lists
them): per grid the nodes, weights and spacing (Grid), the edge stencils
and the Bernstein rows of max_stretch; per flow the target density, the
operand, the dual Jacobians and the kernel operator; per state the
density's exponential, weights and log gradient (GridDensity) and the
field; per push the field's and the log density's Hermite tables, and in
1D the gathered columns of the inverse.
descent_check reads the records and the caps of a theory.Certificate priced
beforehand; it never rebuilds a flow or a field and never prices a constant.
verify's three suites live beside it (descent_suite, lemmas_suite,
bounds_suite), each with its tolerances, messages and verdict.

The field is a handful of kernel-matrix products over the nodes, and one
kernel operator performs them.  The flow holds no operator code: it asks
msvgd.kernels.cached_kernel_operator for the operator over its primal
nodes, which picks FFT convolutions on the lattice when the primal nodes
are the grid itself (the euclidean map), and the point-set operator
otherwise.  g_field takes the operator's chart-slot sums to the dual chart
with the kernel's chart-to-dual Jacobian G per node (msvgd.kernels; the
identity for dual-imq, so its field derivatives are the operator's own).

One interpolant serves every dimension: a tensor-product cubic Hermite
table, built by the 1-D Hermite formula along each axis in turn, for the
field (values and exact nodal Jacobians) and for the log density (values
and its finite-difference gradient), each held constant beyond the box by
one rule.  Every read of a table goes through one column
rule, _column_monomials, summed by _evaluate: _horner, max_stretch (the 1D
vertex search and the Bernstein rows) and the 1D Newton loop of the
pushforward's inverse (_invert).

Densities are carried in log space throughout.  Targets like exp(-x^4) reach
log values around -4000 on a grid wide enough to hold the standard-normal
start, so linear-space storage would underflow to exact zeros and poison the
finite differences.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .engine import timed
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
        # the largest value is nan when any value is: one pass refuses both
        if not log_density.max() < np.inf:
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
        dual score ratio and its pushforward's Hermite table share it."""
        if self.log_density.min() == -np.inf:  # __init__ has refused nan
            node = int(np.argmin(self.log_density))
            raise DomainError(
                f"density is zero at node {node}; the log gradient is undefined there"
            )
        grid = self.grid
        logrho = self.log_density.reshape(grid.shape)
        out = np.empty((grid.size, grid.dim))
        for k, h in enumerate(grid.spacing):
            out[:, k] = _fd4_along(logrho, k, h).ravel()
        return read_only(out)

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


@functools.lru_cache(maxsize=16)
def _fd4_edge_stencils(h: float) -> tuple:
    """_FD4_EDGE_STENCILS for spacing h, built once per spacing."""
    return tuple((row, read_only(w / h)) for row, w in _FD4_EDGE_STENCILS)


def _fd4_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative along the last axis of a uniform grid,
    one-sided five-point stencils at the edges."""
    v = values
    out = np.empty_like(v)
    # (v0 - 8 v1 + 8 v3 - v4) / (12 h), left to right, in the interior's slots
    mid = out[..., 2:-2]
    np.multiply(8.0, v[..., 1:-3], out=mid)
    np.subtract(v[..., :-4], mid, out=mid)
    mid += 8.0 * v[..., 3:-1]
    mid -= v[..., 4:]
    mid /= 12.0 * h
    for row, w in _fd4_edge_stencils(h):
        chunk = v[..., :5] if row >= 0 else v[..., -5:]
        out[..., row] = np.dot(chunk, w)
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
# the box, x_{n-1} above it) in units of the spacing.  A cell of a d-D
# tensor-product table is one such column along each axis, so beyond the box
# each axis keeps its own 1-D rule.


def _column_monomials(c: np.ndarray, h: float, slope: bool) -> tuple:
    """The column rule of every table read: the monomial coefficients, lowest
    degree first, in the offset t of columns c (4,) + rest of spacing h, the
    value's (c0, h c1, c2, c3) or, with ``slope``, the slope's along the
    axis (c1, c2 2 / h, c3 3 / h)."""
    if slope:
        return c[1], c[2] * (2.0 / h), c[3] * (3.0 / h)
    return c[0], h * c[1], c[2], c[3]


def _evaluate(monomials: tuple, t: np.ndarray) -> np.ndarray:
    """sum_i monomials[i] t^i by Horner's rule, highest degree first, in one
    new buffer."""
    out = t * monomials[-1]
    for a in monomials[-2:0:-1]:
        out += a
        out *= t
    out += monomials[0]
    return out


def _hermite_table(v: np.ndarray, m: np.ndarray, h: float) -> np.ndarray:
    """(4,) + v.shape[:-1] + (n + 1,) coefficients of the cubic Hermite
    interpolant along the last axis through node values v and slopes m,
    spacing h, read by _column_monomials: c0 is the value and c1 the slope
    at the column's left node.  Beyond the box it is held at the edge
    value, for the field and the log density alike: extended linearly, the
    log density amplified any edge slope out there and brought mass in at
    every push (Staniforth & Cote, Mon. Wea. Rev. 119, 1991, on departure
    points that fall off the grid)."""
    n = v.shape[-1]
    table = np.empty((4,) + v.shape[:-1] + (n + 1,))
    c0, c1, c2, c3 = table[..., 1:n]  # the intervals, written in place
    c0[...] = v[..., :-1]
    np.multiply(m[..., :-1], h, out=c1)  # h m0 until the slope replaces it
    fall = v[..., :-1] - v[..., 1:]
    np.multiply(m[..., 1:], h, out=c3)
    c3 += c1
    c3 += fall
    c3 += fall  # 2 fall + h m0 + h m1
    np.add(c3, fall, out=c2)
    c2 += c1
    np.negative(c2, out=c2)  # -(3 fall + 2 h m0 + h m1)
    c1[...] = m[..., :-1]
    beyond = table[..., ::n]  # columns 0 and n
    beyond[0] = v[..., ::n - 1]
    beyond[1:] = 0.0
    return table


def _fd4_along(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """_fd4_uniform along one axis of an array."""
    return np.swapaxes(_fd4_uniform(np.swapaxes(values, axis, -1), h), -1, axis)


def _hermite_tensor(grid: Grid, values: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """Tensor-product cubic Hermite table of node values (P,) + rest with
    first derivatives (P,) + rest + (d,), read-only: (4,) * d + rest +
    (n_0 + 1, ..., n_{d-1} + 1), the coefficient axes last axis first and
    the cells last, so one gather reads a cell's every coefficient.

    Its nodal data, (2,) * d + rest + grid.shape, hold at entry s the
    derivative along each axis where s is 1: a given one, or for a mixed one
    _fd4_uniform of a lower entry along its last axis.  _hermite_table then
    runs along each axis in turn, on the pairs (value, derivative along the
    axis)."""
    d = grid.dim
    data = np.empty((2,) * d + values.shape[1:] + grid.shape)
    for s in itertools.product((0, 1), repeat=d):
        axes = [k for k, bit in enumerate(s) if bit]
        if len(axes) < 2:  # rest has at most one axis, so .T moves P last
            data[s] = (derivs[..., axes[0]] if axes else values).T.reshape(data.shape[d:])
        else:
            k = axes[-1]
            data[s] = _fd4_along(data[s[:k] + (0,) + s[k + 1:]], k - d, grid.spacing[k])
    for axis, h in enumerate(grid.spacing):
        # the pair (value, derivative along axis), the axis's nodes last
        v, m = (np.ascontiguousarray(np.swapaxes(data[(slice(None),) * axis + (i,)], axis - d, -1))
                for i in (0, 1))
        data = np.swapaxes(_hermite_table(v, m, h), -1, axis - d)
    return read_only(data)


def _closed(breaks: np.ndarray) -> np.ndarray:
    """A copy of increasing breakpoints with the last one raised by an ulp,
    so that a right-sided search among them closes column n - 1 at the last
    breakpoint itself."""
    closed = breaks.copy()
    closed[-1] = np.nextafter(closed[-1], np.inf)
    return closed


def _hermite_columns(closed: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Column of each point q among increasing breakpoints, given as
    _closed(breaks), by one binary search: breaks[j - 1] <= q < breaks[j],
    except that the last breakpoint itself closes column n - 1."""
    return np.searchsorted(closed, q, side="right")


def _merged_columns(closed: np.ndarray, q: np.ndarray) -> np.ndarray:
    """_hermite_columns for increasing q, by one merge of the two sorted
    sequences: a stable sort of their concatenation, linear in its two
    runs, places every breakpoint before the points equal to it, so each
    point's column is the count of breakpoints placed before it."""
    order = np.argsort(np.concatenate([closed, q]), kind="stable")
    return np.flatnonzero(order >= closed.size) - np.arange(q.size)


def _gather(table: np.ndarray, cells: tuple) -> np.ndarray:
    """The cells (a column per axis) of a Hermite table, (4,) * d + rest +
    (n,), gathered in one take along the flattened cell axes."""
    flat, d = cells[0], len(cells)
    for column, size in zip(cells[1:], table.shape[1 - d:]):
        flat = flat * size + column
    return table.reshape(table.shape[:-d] + (-1,)).take(flat, axis=-1)


def _horner(coeffs: np.ndarray, t: np.ndarray, spacing: tuple, slopes: bool) -> list:
    """The interpolant, and with ``slopes`` its derivative along each axis,
    at offsets t (d, n) in gathered table cells coeffs (4,) * d + rest +
    (n,): the column rule along each axis in turn, the last axis first.
    Returns a list of 1 or d + 1 arrays rest + (n,), the value first."""
    parts = [coeffs]  # the value, then the derivatives along axes k, k + 1, ...
    for k in reversed(range(len(spacing))):
        h, tk, c = spacing[k], t[k], parts[0]
        parts = [_evaluate(_column_monomials(p, h, False), tk) for p in parts]
        parts[1:1] = [_evaluate(_column_monomials(c, h, True), tk)] if slopes else []
    return parts


@functools.lru_cache(maxsize=16)
def _bernstein_rows(spacing: tuple, axis: int) -> np.ndarray:
    """The matrix that takes a Hermite table's cells, flattened over their
    coefficient axes, to the Bernstein coefficients on [0, 1]^d of the
    interpolant's derivative along ``axis``, a cubic in each offset: on
    [0, 1] a polynomial lies in the hull of its Bernstein coefficients."""
    # b_j = sum over i <= j of C(j, i) / C(3, i) a_i, from the monomial
    # coefficients a of each axis's column rule, applied to the identity;
    # the slope is a quadratic, whose a_3 is 0
    bernstein = np.array([[math.comb(j, i) / math.comb(3, i) for i in range(4)] for j in range(4)])
    rules = [np.stack(_column_monomials(np.eye(4), h, k == axis)) for k, h in enumerate(spacing)]
    factors = [bernstein[:, :len(rule)] @ rule for rule in reversed(rules)]
    return read_only(functools.reduce(np.kron, factors))


class FieldOnGrid:
    """Vector field sampled on a grid together with its nodal Jacobians.

    Evaluation is tensor-product cubic Hermite in every dimension: the nodal
    Jacobians are part of the data, not re-estimated, and in d >= 2 the
    mixed derivatives are finite differences of Jacobian columns.  Beyond
    the box the field is held constant along each axis, which keeps the flow
    map injective out there.  Its formula lives in one table, ``hermite()``,
    which pushforward_step builds once per push and hands to max_stretch and
    the inverse: one gather of a cell gives the values and every Jacobian
    column.  The field does not keep it, so the table is freed with its push,
    before the next state's field is built.
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

    def hermite(self) -> np.ndarray:
        """A new tensor-product Hermite table of the field (_hermite_tensor),
        held constant beyond the box, read-only: (4,) * d + (d,) + cells,
        with the field's component on the axis after the coefficients."""
        return _hermite_tensor(self.grid, self.values, self.derivs)

    def max_stretch(self, table: np.ndarray) -> tuple:
        """Largest Jacobian magnitude (max row sum) of the interpolated field,
        or a bound on it, and a node near where it is reached; ``table`` is
        the field's ``hermite()``.

        In 1D the slope on each interval is the quadratic s0 + t (s1 + t s2),
        so its supremum is at an end (a node) or at the vertex
        t = -s1 / (2 s2), and the value is exact.  In d >= 2 each Jacobian
        entry on a cell lies in the hull of its Bernstein coefficients, so a
        row's sum of their largest magnitudes bounds its row sum there; a
        corner node of the worst cell is named.  The cells beyond the box
        count too: the field is constant across them, so their hull is
        their range.
        """
        grid = self.grid
        if grid.dim == 1:
            mags = np.abs(self.derivs[:, 0, 0])
            node = int(np.argmax(mags))
            slope = _column_monomials(table[..., 0, 1:-1], grid.spacing[0], True)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = slope[1] / slope[2]
            t *= -0.5
            t[~((t > 0.0) & (t < 1.0))] = 0.0
            peak = _evaluate(slope, t)
            np.abs(peak, out=peak)
            k = int(np.argmax(peak))
            if peak[k] > mags[node]:
                return float(peak[k]), k + int(t[k] > 0.5)
            return float(mags[node]), node
        coeffs = table.reshape(4 ** grid.dim, -1)
        rows = sum(np.abs(_bernstein_rows(grid.spacing, k) @ coeffs).max(axis=0)
                   for k in range(grid.dim)).reshape(grid.dim, -1).max(axis=0)
        cell = np.unravel_index(int(np.argmax(rows)), table.shape[-grid.dim:])
        node = np.clip(np.array(cell) - 1, 0, np.array(grid.shape) - 1)
        return float(rows.max()), int(np.ravel_multi_index(tuple(node), grid.shape))


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
        # time.perf_counter totals (s) of the field builds and pushes of
        # states, and of a suite's records and checks
        self.timings = dict.fromkeys(("fields", "pushes", "records", "checks"), 0.0)

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
        derivs = np.einsum("jdc,jcf->jdf", dvals, jac)
        derivs *= sign
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
            with timed(self.timings, "fields"):
                field = self.g_field(density, form="score")
            yield n, density, field
            if n < steps:
                with timed(self.timings, "pushes"):
                    density = pushforward_step(density, field, gamma)


# ---------------------------------------------------------------------------
# pushforward


def pushforward_step(density: GridDensity, field: FieldOnGrid, gamma: float) -> GridDensity:
    """Push the density through x - gamma * field(x) by change of variables.

    The field must be finite and the map injective: gamma times the largest
    field stretch below one.  The log density is then interpolated at each
    node's preimage on the cell the inverse found it in, with no second
    lookup, from its own Hermite table (the state's log_gradient), held
    constant beyond the box as the field's is.  gamma = 0 returns the
    density unchanged, bit for bit.
    """
    if not (np.isfinite(field.values).all() and np.isfinite(field.derivs).all()):
        finite = np.isfinite(field.values).all(axis=1) & np.isfinite(field.derivs).all(axis=(1, 2))
        node = int(np.argmin(finite))
        raise NumericsError(f"non-finite field at node {node}", particle=node)
    if gamma == 0.0:
        return density
    grid = density.grid
    field_table = field.hermite()
    stretch, node = field.max_stretch(field_table)
    if gamma * stretch >= 1.0 - 1e-9:
        raise NumericsError(
            "pushforward map is not injective: gamma * |field stretch| = "
            f"{gamma * stretch:.6g} at node {node}",
            particle=node,
        )
    _, det, cells, t = _invert(grid, field, field_table, gamma)
    table = _hermite_tensor(grid, density.log_density, density.log_gradient)
    log_rho_at = _horner(_gather(table, cells), t, grid.spacing, False)[0]
    log_rho_at -= np.log(det, out=det)
    return GridDensity.normalized(grid, log_rho_at)


def _invert(grid: Grid, field: FieldOnGrid, table: np.ndarray, gamma: float) -> tuple:
    """Solve y - gamma * field(y) = x at every node x by Newton's method,
    ``table`` being the field's hermite(); returns y (n, d), det(I - gamma J)
    there with J the field's Jacobian, and the cells (a column per axis) and
    offsets t (d, n) that locate y in a Hermite table.

    Each round solves each node's d x d system, taking its determinant, by
    Gaussian elimination without pivoting: pushforward_step has checked
    gamma * max_stretch < 1, so I - gamma J is strictly diagonally dominant
    by rows.  In d >= 2 Newton starts at x + gamma v(x), v the field's node
    values, and each round looks up its cells, one search per axis among
    the axis's closed breakpoints, and gathers them.  In 1D the map is
    strictly increasing (the field is constant beyond the box), so one merge
    of the nodes with their forward images x_i - gamma v_i, both sorted,
    finds the column holding each preimage.  Newton starts on the secant of
    the forward map over that column and runs on it alone, the column
    gathered and its monomials formed once.  Every residual, beyond the box
    too, must reach NEWTON_TOL within NEWTON_ROUNDS steps, or the worst node
    is named in a NumericsError.
    """
    if grid.dim == 1:
        x, h = grid.axes[0], grid.spacing[0]
        forward = x - gamma * field.values[:, 0]
        columns = _merged_columns(_closed(forward), x)
        # offsets are measured from each column's left node, x_0 below the box
        left = np.maximum(columns - 1, 0)
        origin = x[left]
        # start on the secant of the forward map over the column's interval;
        # beyond the box the piece is constant and any start converges at once
        lo = np.minimum(left, x.size - 2)
        f0 = forward[lo]
        y = (origin + h * ((x - f0) / (forward[lo + 1] - f0)))[None]
        coeffs = _gather(table, (columns,))[:, 0]
        value, slope = (_column_monomials(coeffs, h, s) for s in (False, True))
        for rounds in range(NEWTON_ROUNDS + 1):
            t = y - origin
            t /= h
            # y - gamma * value - x
            residual = _evaluate(value, t)
            residual *= gamma
            np.subtract(y, residual, out=residual)
            residual -= x
            worst = np.abs(residual)
            # 1 - gamma J
            det = _evaluate(slope, t)
            det *= -gamma
            det += 1.0
            if float(worst.max()) <= NEWTON_TOL:
                return y.T, det[0], (columns,), t
            if rounds < NEWTON_ROUNDS:
                y = y - residual / det
    else:
        nodes, spacing = grid.nodes.T, grid.spacing
        closed = [_closed(x) for x in grid.axes]
        steps = np.array(spacing)[:, None]
        y = nodes + gamma * field.values.T
        for rounds in range(NEWTON_ROUNDS + 1):
            cells = tuple(_hermite_columns(b, q) for b, q in zip(closed, y))
            origins = np.stack([x[np.maximum(c - 1, 0)] for x, c in zip(grid.axes, cells)])
            t = (y - origins) / steps
            value, *slopes = _horner(_gather(table, cells), t, spacing, True)
            residual = y - gamma * value - nodes
            worst = np.abs(residual)
            # I - gamma J, with J[i, k] the derivative of component i along axis k
            system = -gamma * np.stack(slopes, axis=1)
            for k in range(grid.dim):
                system[k, k] += 1.0
            step, det = _eliminate(system, residual)
            if float(worst.max()) <= NEWTON_TOL:
                return y.T, det, cells, t
            if rounds < NEWTON_ROUNDS:
                y = y - step
    worst = np.max(worst, axis=0)
    node = int(np.argmax(worst))
    raise NumericsError(
        f"pushforward inverse did not converge in {NEWTON_ROUNDS} Newton rounds: "
        f"residual {worst[node]:.3g} at node {node}",
        particle=node,
    )


def _eliminate(a: np.ndarray, x: np.ndarray) -> tuple:
    """Per-node solutions of a y = x, and det(a), for a (d, d, n) and
    x (d, n), by Gaussian elimination without pivoting, which is stable when
    every a is strictly diagonally dominant by rows.  Works in place: a ends
    eliminated and x holds the solutions."""
    d = len(x)
    for k in range(d):
        for i in range(k + 1, d):
            ratio = a[i, k] / a[k, k]
            a[i, k:] -= ratio * a[k, k:]
            x[i] -= ratio * x[k]
    for k in reversed(range(d)):
        for j in range(k + 1, d):
            x[k] -= a[k, j] * x[j]
        x[k] /= a[k, k]
    return x, functools.reduce(np.multiply, (a[k, k] for k in range(d)))


# ---------------------------------------------------------------------------
# KL and the descent report


def kl_quadrature(density: GridDensity, reference: GridDensity) -> float:
    """KL(density | reference) by quadrature on their shared grid; +inf when
    the density puts mass where the reference has none."""
    rho = density.density
    support = rho > 0.0
    gap = density.log_density - reference.log_density
    integrand = np.zeros_like(rho)
    np.multiply(rho, gap, out=integrand, where=support)
    value = float(np.dot(density.grid.weights, integrand))
    # a non-finite gap where rho > 0 makes the integral non-finite, so the
    # gap is searched only then
    if not math.isfinite(value) and not np.isfinite(gap[support]).all():
        return math.inf
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
    records, so the records must cover consecutive steps, as a record of
    every state of MirroredFlow.states does.
    When a ``theory.Certificate`` for the flow's setting is supplied, gamma
    is also checked for admissibility in both regimes: against its fixed
    worst-case cap (the "theorem" step size, priced from the initial-KL
    upper bound, not the measured KL), and against the per-state cap from
    each record's measured field norm and growth statistic.  The
    certificate is read, never re-priced.  The report holds the flags
    descent_ok, fixed_cap_ok and per_step_cap_ok, and no verdict:
    descent_suite turns them into verify's.
    """
    if not records:
        raise ConfigError("descent_check needs at least one record")
    steps = [rec["step"] for rec in records]
    if steps != list(range(steps[0], steps[0] + len(steps))):
        raise ConfigError(
            "descent_check needs a record for every step, as MirroredFlow.states gives"
        )
    if certificate is not None and (
        certificate.dim != flow.grid.dim
        or certificate.kernel_bounds != tuple(float(b) for b in flow.kernel.bounds())
        or certificate.strong_convexity != float(flow.map.strong_convexity)
    ):
        raise ConfigError("the certificate was priced for a different map, kernel or dimension")
    kls = [rec["kl"] for rec in records]
    fishers = [rec["stein_fisher"] for rec in records]

    rows = []
    for n in range(len(records) - 1):
        drop = kls[n + 1] - kls[n]
        rhs = -(gamma / 2.0) * fishers[n]
        margin = rhs + tol - drop
        rows.append({
            "step": steps[n],
            "kl": kls[n],
            "kl_next": kls[n + 1],
            "stein_fisher": fishers[n],
            "bound_rhs": rhs,
            "margin": margin,
            "ok": bool(margin >= 0.0),
        })

    report = {
        "gamma": gamma,
        "tolerance": tol,
        "steps": rows,
        "kl_first": kls[0],
        "kl_last": kls[-1],
        "kl_strictly_decreased": bool(kls[-1] < kls[0]) if len(kls) > 1 else True,
        "descent_ok": all(row["ok"] for row in rows),
    }
    if certificate is not None:
        caps = [certificate.cap(rec["field_norm"], rec["mean_grad_norm"]) for rec in records]
        report["kl0_upper"] = certificate.kl0_upper
        report["fixed_cap"] = certificate.fixed_cap
        report["fixed_cap_ok"] = bool(gamma <= certificate.fixed_cap * (1.0 + 1e-12))
        report["per_step_caps"] = caps
        report["per_step_cap_ok"] = bool(all(gamma <= c * (1.0 + 1e-12) for c in caps))
    return report


# ---------------------------------------------------------------------------
# verify's suites: each returns the (report, records) verify writes, with
# "passed" = not "violations", and times its records and checks in flow.timings

LEMMA_GAP_TOL = 1e-6  # on each worst gap of g_forms_gap
NORM_MARGIN_TOL = -1e-8  # the floor under fisher_norm_margins' margins


def _records(flow: MirroredFlow, states) -> list:
    records = []
    for state in states:
        with timed(flow.timings, "records"):
            records.append(flow.record(*state))
    return records


def _tenth_states(flow: MirroredFlow, gamma: float, steps: int):
    """The states the lemmas and bounds suites record: every tenth and the last."""
    return (s for s in flow.states(gamma, steps) if s[0] % 10 == 0 or s[0] == steps)


def descent_suite(flow: MirroredFlow, gamma: float, steps: int, certificate) -> tuple:
    """descent_check on the record of every state, against ``certificate``
    (None checks the inequality alone).  A violation for each step whose KL
    drop exceeds its bound, then for gamma past the fixed cap, past the
    smallest per-state cap, and for a KL that did not strictly decrease
    over the run.  Its "passed", no violation, is verify's verdict."""
    records = _records(flow, flow.states(gamma, steps))
    with timed(flow.timings, "checks"):
        report = descent_check(flow, records, gamma, certificate=certificate)
    violations = [
        f"step {row['step']}: KL drop {row['kl_next'] - row['kl']:.6g} exceeds "
        f"bound {row['bound_rhs']:.6g}"
        for row in report["steps"] if not row["ok"]
    ]
    if not report.get("fixed_cap_ok", True):
        violations.append(
            f"step size {gamma:.6g} exceeds the certified fixed cap {report['fixed_cap']:.6g}")
    if not report.get("per_step_cap_ok", True):
        violations.append(f"step size {gamma:.6g} exceeds the smallest per-state cap "
                          f"{min(report['per_step_caps']):.6g}")
    if not report["kl_strictly_decreased"]:
        violations.append("KL did not strictly decrease over the run")
    report.update(violations=violations, passed=not violations)
    return report, records


def lemmas_suite(flow: MirroredFlow, gamma: float, steps: int) -> tuple:
    """g_forms_gap at every tenth state, each worst gap against
    LEMMA_GAP_TOL; the last state is recorded but not checked."""
    records, checks, violations = [], [], []
    for step, density, field in _tenth_states(flow, gamma, steps):
        with timed(flow.timings, "records"):
            records.append(flow.record(step, density, field))
        if step % 10:
            continue
        with timed(flow.timings, "checks"):
            gaps = flow.g_forms_gap(density, field)
        worst = max(gaps.values())
        checks.append({"step": step, **gaps, "ok": worst <= LEMMA_GAP_TOL})
        if not checks[-1]["ok"]:
            violations.append(f"step {step}: field formulas disagree by {worst:.3g} "
                              f"(tolerance {LEMMA_GAP_TOL:g})")
    return {"tolerance": LEMMA_GAP_TOL, "gamma": gamma, "checks": checks,
            "violations": violations, "passed": not violations}, records


def bounds_suite(flow: MirroredFlow, gamma: float, steps: int) -> tuple:
    """fisher_norm_margins at every tenth state and the last, each margin
    against the NORM_MARGIN_TOL floor."""
    records = _records(flow, _tenth_states(flow, gamma, steps))
    with timed(flow.timings, "checks"):
        rows = fisher_norm_margins(records, flow.kernel.bounds(),
                                   flow.map.strong_convexity, flow.grid.dim)
    violations = [
        f"step {row['step']}: field norm {row['field_norm']:.6g} exceeds "
        f"bound {row['bound_rhs']:.6g}"
        for row in rows if row["margin"] < NORM_MARGIN_TOL
    ]
    return {"tolerance": NORM_MARGIN_TOL, "gamma": gamma, "checks": rows,
            "violations": violations, "passed": not violations}, records
