"""Shared finite-difference oracles and sampling helpers for the test suite.

The oracles are deliberately dumb and independent of the library code: plain
central differences and loop-based constructions, so closed forms in the
package are certified against something that cannot share their bugs.
DenseKernelOperator is the kernel operators' oracle: the same sums taken
against explicit gram blocks (gram_blocks), written here from the kernel's
chart and profile alone, with their own squared distances and chart
Jacobians (chart_jacobian).  The blocks are in primal slots by default, the
chain rule through J applied here, so they check the library's chart-slot
sums and its consumers' J together.  gram and grad1_gram are the chart-slot
blocks K and K1 alone, between two point sets, in the library's float64
order of operations: the particle field's blocks must equal them bit for
bit.  long_double_particle_terms and long_double_g_field are the accuracy
gate's references: a particle state's velocity and Stein-Fisher value, and
a grid state's field, from long-double blocks.

ReferenceStep is the grid step as it stood before its per-grid constants
and per-state arrays were built once: the pushforward with its Newton
inverse, max_stretch and Hermite table builders, the log gradient, the KL
quadrature and the lattice operator's apply, each written out pass by pass.
The library's step does the same floating-point operations in the same
order, so it must equal these bit for bit.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from msvgd.gridflow import NEWTON_ROUNDS, NEWTON_TOL, fornberg_weights
from msvgd.kernels import DualIMQKernel, RescaledKernel


def at_point(op):
    """A library point op, which takes an (n, d) batch and returns per-row
    arrays, as a function of one point (d,), for the oracles below."""
    return lambda x: op(np.asarray(x, dtype=float)[None, :])[0]


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function, shape (d,)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(f, x, h=1e-5):
    """Central-difference Jacobian of a vector function, shape (m, d)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_matrix_divergence(F, x, h=1e-4):
    """Row divergence of a matrix field: out_i = sum_j d/dx_j F(x)[i, j]."""
    x = np.asarray(x, dtype=float)
    d = x.size
    out = np.zeros(d)
    for j in range(d):
        e = np.zeros_like(x)
        e[j] = h
        diff = (np.asarray(F(x + e)) - np.asarray(F(x - e))) / (2 * h)
        out += diff[:, j]
    return out


def fd_mixed_second(k, a, b, h=1e-4):
    """Matrix of cross second derivatives d^2 k / da_i db_j, shape (d, d)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a.size
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ea = np.zeros(d)
            eb = np.zeros(d)
            ea[i] = h
            eb[j] = h
            out[i, j] = (
                k(a + ea, b + eb)
                - k(a + ea, b - eb)
                - k(a - ea, b + eb)
                + k(a - ea, b - eb)
            ) / (4 * h * h)
    return out


def chart_jacobian(kernel, points):
    """J = dx/dtheta (n, d, d) of the kernel's chart at points (n, d), from
    each chart's definition: the mirror map's hess_psi for dual-imq, I / scale
    for rescaled and I for imq and rbf."""
    n, d = np.shape(points)
    if isinstance(kernel, DualIMQKernel):
        return np.asarray(kernel.map.hess_psi(points), dtype=float)
    scale = kernel.scale if isinstance(kernel, RescaledKernel) else 1.0
    return np.broadcast_to(np.eye(d) / scale, (n, d, d))


def gram_blocks(kernel, X, Y, dtype=float, primal=True):
    """(K, K1, K12) between X (n, d) and Y (m, d), in ``dtype`` from the
    kernel's chart coordinates x, y and its profile f: with D = x_a - y_b and
    t = ||D||^2,

        K = f(t),   K1[a, b] = J_a (2 f'(t) D),
        K12[a, b] = J_a (-4 f''(t) D D^T - 2 f'(t) I) J_b,

    the derivatives in the primal slots X_a and Y_b; primal=False leaves out
    every J, for the chart slots."""
    x = np.asarray(kernel.chart(X), dtype=dtype)
    y = np.asarray(kernel.chart(Y), dtype=dtype)
    diff = x[:, None, :] - y[None, :, :]
    f, fp, fpp = kernel.profile._derivatives(np.sum(diff * diff, axis=2), 2)
    fp *= 2.0
    fpp *= -4.0
    k1 = fp[:, :, None] * diff
    k12 = fpp[:, :, None, None] * (diff[:, :, :, None] * diff[:, :, None, :])
    k12 -= fp[:, :, None, None] * np.eye(x.shape[1])
    if not primal:
        return f, k1, k12
    jx = np.asarray(chart_jacobian(kernel, X), dtype=dtype)
    jy = np.asarray(chart_jacobian(kernel, Y), dtype=dtype)
    return (f, np.einsum("nab,nmb->nma", jx, k1),
            np.einsum("nab,nmbc,mcd->nmad", jx, k12, jy))


def _chart_sq_dists(kernel, X, Y):
    """Chart coordinates x, y of X (n, d) and Y (m, d) and t = ||x_a - y_b||^2
    (n, m), summed coordinate by coordinate, left to right."""
    x, y = kernel.chart(X), kernel.chart(Y)
    return x, y, sum((x[:, None, c] - y[None, :, c]) ** 2 for c in range(x.shape[1]))


def gram(kernel, X, Y):
    """The (n, m) block K[a, b] = f(t) between X (n, d) and Y (m, d)."""
    return kernel.profile._derivatives(_chart_sq_dists(kernel, X, Y)[2], 0)[0]


def grad1_gram(kernel, X, Y):
    """The (n, m, d) block K1[a, b] = 2 f'(t) (x_a - y_b), the derivative in
    the first chart slot."""
    x, y, t = _chart_sq_dists(kernel, X, Y)
    fp = kernel.profile._derivatives(t, 1)[1]
    return (2.0 * fp)[:, :, None] * (x[:, None, :] - y[None, :, :])


def grad12_gram(kernel, X, Y):
    """The (n, m, d, d) block K12[a, b] = d^2 k / dX_a dY_b (gram_blocks)."""
    return gram_blocks(kernel, X, Y)[2]


def primal_grad1_gram(kernel, X, Y):
    """The chart-slot grad1_gram taken to the primal slot X_a by J_a, for
    the finite-difference oracles."""
    return np.einsum("nab,nmb->nma", chart_jacobian(kernel, X), grad1_gram(kernel, X, Y))


class DenseKernelOperator:
    """The kernel sums of ``msvgd.kernels.kernel_operator`` taken against the
    kernel's explicit gram blocks between the points, all precomputed:

        vals[j]        = sum_i K[i, j] q[i] + sum_{i,e} K1[i, j, e] u[i, :, e]
        dvals[j, :, c] = sum_i K1[j, i, c] q[i] + sum_{i,e} K12[i, j, e, c] u[i, :, e]

    The blocks and the sums are in long double from the kernel's own
    float chart.  By default they are in primal slots, so the library's
    chart-slot operator matches them as apply(q, u J) followed by dvals J.
    A u near J^-1 (the mirror maps' inverse Hessians) cancels J in K12
    again, which costs double-precision blocks cond(J) ulps of the result.
    primal=False keeps the chart slots, for a consumer that applies the
    chart-to-dual Jacobian itself (MirroredFlow.g_field).
    """

    def __init__(self, kernel, theta, primal=True):
        self._K, self._K1, self._K12 = gram_blocks(kernel, theta, theta, np.longdouble, primal)

    def apply(self, q, u):
        vals = self._K.T @ q
        dvals = np.einsum("jic,id->jdc", self._K1, q)
        if u is not None:
            vals += np.einsum("ije,ide->jd", self._K1, u)
            dvals += np.einsum("ijec,ide->jdc", self._K12, u)
        return vals.astype(float), dvals.astype(float)


def long_double_particle_terms(kernel, theta, operand, jac, rows=100):
    """The terms of a particle state's velocity (n, d) and Stein-Fisher
    value in long double, from the chart-slot gram blocks
    (gram_blocks(..., np.longdouble, primal=False)) of ``rows`` particles
    at a time against all n, and the state's own float operand op (n, d)
    and chart-to-dual Jacobians G (n, d, d):

        v_i = (1/n) sum_j K[j, i] op_j + (1/n) sum_j G_j K1[j, i],
        SF  = (1/n^2) sum_{b,j} [K[b, j] op_b.op_j + 2 op_j.G_b K1[b, j]
                                 + tr(G_b K12[b, j] G_j^T)].

    Returns ((drift, repulsion), (gram, cross, hessian)), the velocity's
    and the value's terms apart, so that a test can drop one."""
    n, d = np.shape(theta)
    op = np.asarray(operand, dtype=np.longdouble)
    G = np.asarray(jac, dtype=np.longdouble)
    drift, repulsion = np.zeros((n, d), np.longdouble), np.zeros((n, d), np.longdouble)
    gram_sum = cross = hessian = np.longdouble(0.0)
    for start in range(0, n, rows):
        b = slice(start, min(start + rows, n))
        K, K1, K12 = gram_blocks(kernel, theta[b], theta, np.longdouble, primal=False)
        drift += np.einsum("bi,bd->id", K, op[b])
        repulsion += np.einsum("bde,bie->id", G[b], K1)
        gram_sum += np.einsum("bj,bd,jd->", K, op[b], op)
        cross += np.einsum("jd,bde,bje->", op, G[b], K1)
        hessian += np.einsum("bde,bjef,jdf->", G[b], K12, G)
    return (drift / n, repulsion / n), (gram_sum / n**2, 2 * cross / n**2, hessian / n**2)


def long_double_g_field(flow, density):
    """flow.g_field(density) with its kernel sums taken on long-double
    chart-slot gram blocks (DenseKernelOperator, primal=False); the flow's
    own operator is put back after."""
    fast = flow.kernel_operator
    flow.kernel_operator = DenseKernelOperator(flow.kernel, flow.theta, primal=False)
    try:
        return flow.g_field(density)
    finally:
        flow.kernel_operator = fast


class ReferenceStep:
    """The grid step's oracle: each of its stages from the arrays it is
    given, every array built where the stage needs it."""

    EDGE_STENCILS = tuple((row, fornberg_weights(np.arange(5.0), center, 1))
                          for row, center in ((0, 0.0), (1, 1.0), (-2, 3.0), (-1, 4.0)))

    @classmethod
    def fd4_uniform(cls, values, h):
        v = values
        out = np.empty_like(v)
        out[..., 2:-2] = (v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1]
                          - v[..., 4:]) / (12.0 * h)
        for row, w in cls.EDGE_STENCILS:
            chunk = v[..., :5] if row >= 0 else v[..., -5:]
            out[..., row] = np.dot(chunk, w / h)
        return out

    @classmethod
    def fd4_along(cls, values, axis, h):
        return np.swapaxes(cls.fd4_uniform(np.swapaxes(values, axis, -1), h), -1, axis)

    @classmethod
    def log_gradient(cls, grid, log_density):
        logrho = log_density.reshape(grid.shape)
        spacing = tuple(float(a[1] - a[0]) for a in grid.axes)
        return np.stack([cls.fd4_along(logrho, k, h).ravel() for k, h in enumerate(spacing)],
                        axis=1)

    @staticmethod
    def hermite_table(v, m, h, extend):
        n = v.shape[-1]
        table = np.zeros((4,) + v.shape[:-1] + (n + 1,))
        c0, c1, c2, c3 = table[..., 1:n]
        c0[...] = v[..., :-1]
        np.multiply(m[..., :-1], h, out=c1)
        fall = v[..., :-1] - v[..., 1:]
        np.multiply(m[..., 1:], h, out=c3)
        c3 += c1
        c3 += fall
        c3 += fall
        np.add(c3, fall, out=c2)
        c2 += c1
        np.negative(c2, out=c2)
        c1[...] = m[..., :-1]
        table[0, ..., 0], table[0, ..., n] = v[..., 0], v[..., -1]
        if extend == "linear":
            table[1, ..., 0], table[1, ..., n] = m[..., 0], m[..., -1]
        return table

    @classmethod
    def hermite_tensor(cls, grid, values, derivs, extend):
        d = grid.dim
        spacing = tuple(float(a[1] - a[0]) for a in grid.axes)
        data = np.empty((2,) * d + values.shape[1:] + grid.shape)
        for s in itertools.product((0, 1), repeat=d):
            axes = [k for k, bit in enumerate(s) if bit]
            if len(axes) < 2:
                data[s] = (derivs[..., axes[0]] if axes else values).T.reshape(data.shape[d:])
            else:
                k = axes[-1]
                data[s] = cls.fd4_along(data[s[:k] + (0,) + s[k + 1:]], k - d, spacing[k])
        for axis, h in enumerate(spacing):
            v, m = (np.ascontiguousarray(np.swapaxes(data[(slice(None),) * axis + (i,)],
                                                     axis - d, -1))
                    for i in (0, 1))
            data = np.swapaxes(cls.hermite_table(v, m, h, extend), -1, axis - d)
        return data

    @staticmethod
    def columns(breaks, q):
        closed = breaks.copy()
        closed[-1] = np.nextafter(closed[-1], np.inf)
        return np.searchsorted(closed, q, side="right")

    @staticmethod
    def gather(table, cells):
        flat, d = cells[0], len(cells)
        for column, size in zip(cells[1:], table.shape[1 - d:]):
            flat = flat * size + column
        return np.take(table.reshape(table.shape[:-d] + (-1,)), flat, axis=-1)

    @staticmethod
    def horner(coeffs, t, spacing, slopes):
        parts = [coeffs]
        for k in reversed(range(len(spacing))):
            h, tk, c = spacing[k], t[k], parts[0]
            parts = [p[0] + tk * (h * p[1] + tk * (p[2] + tk * p[3])) for p in parts]
            if slopes:
                parts[1:1] = [c[1] + tk * (c[2] * (2.0 / h) + tk * (c[3] * (3.0 / h)))]
        return parts

    @staticmethod
    def bernstein_rows(spacing, axis):
        bernstein = np.array([[math.comb(j, i) / math.comb(3, i) for i in range(4)]
                              for j in range(4)])
        factors = [bernstein @ (np.eye(4, k=1) * [[1.0], [2.0 / h], [3.0 / h], [0.0]] if k == axis
                                else np.diag([1.0, h, 1.0, 1.0])) for k, h in enumerate(spacing)]
        return functools.reduce(np.kron, reversed(factors))

    @classmethod
    def max_stretch(cls, field, table):
        grid = field.grid
        spacing = tuple(float(a[1] - a[0]) for a in grid.axes)
        if grid.dim == 1:
            mags = np.abs(field.derivs[:, 0, 0])
            node = int(np.argmax(mags))
            c, h = table[..., 0, 1:-1], spacing[0]
            s1, s2 = c[2] * (2.0 / h), c[3] * (3.0 / h)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = s1 / s2
            t *= -0.5
            t[~((t > 0.0) & (t < 1.0))] = 0.0
            peak = np.abs(c[1] + t * (s1 + t * s2))
            k = int(np.argmax(peak))
            if peak[k] > mags[node]:
                return float(peak[k]), k + int(t[k] > 0.5)
            return float(mags[node]), node
        coeffs = table.reshape(4 ** grid.dim, -1)
        rows = sum(np.abs(cls.bernstein_rows(spacing, k) @ coeffs).max(axis=0)
                   for k in range(grid.dim)).reshape(grid.dim, -1).max(axis=0)
        cell = np.unravel_index(int(np.argmax(rows)), table.shape[-grid.dim:])
        node = np.clip(np.array(cell) - 1, 0, np.array(grid.shape) - 1)
        return float(rows.max()), int(np.ravel_multi_index(tuple(node), grid.shape))

    @staticmethod
    def eliminate(a, x):
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

    @classmethod
    def invert(cls, grid, field, table, gamma):
        nodes = grid.nodes.T
        spacing = tuple(float(a[1] - a[0]) for a in grid.axes)
        if grid.dim == 1:
            x, h = grid.axes[0], spacing[0]
            forward = x - gamma * field.values[:, 0]
            columns = cls.columns(forward, x)
            lo = np.clip(columns - 1, 0, x.size - 2)
            f0 = forward[lo]
            y = (x[np.maximum(columns - 1, 0)] + h * ((x - f0) / (forward[lo + 1] - f0)))[None]
            fixed = (columns,)
        else:
            y, fixed = nodes + gamma * field.values.T, None
        for rounds in range(NEWTON_ROUNDS + 1):
            if fixed is None or rounds == 0:
                cells = fixed or tuple(cls.columns(x, q) for x, q in zip(grid.axes, y))
                coeffs = cls.gather(table, cells)
                origins = np.stack([x[np.maximum(c - 1, 0)] for x, c in zip(grid.axes, cells)])
            t = (y - origins) / np.array(spacing)[:, None]
            value, *slopes = cls.horner(coeffs, t, spacing, True)
            residual = y - gamma * value - nodes
            worst = np.abs(residual)
            system = -gamma * np.stack(slopes, axis=1)
            for k in range(grid.dim):
                system[k, k] += 1.0
            step, det = cls.eliminate(system, residual)
            if float(np.max(worst)) <= NEWTON_TOL:
                return y.T, det, cells, t
            if rounds < NEWTON_ROUNDS:
                y = y - step
        raise AssertionError("the reference inverse did not converge")

    @staticmethod
    def normalized(grid, log_values):
        """log_values less the grid's log mass, as the step normalizes."""
        values = log_values + grid.log_weights
        peak = float(np.max(values))
        log_mass = peak + math.log(float(np.sum(np.exp(values - peak))))
        return log_values - log_mass

    @classmethod
    def pushforward(cls, density, field, gamma):
        """The pushed log density (flat), with (stretch, node) of the field."""
        grid = density.grid
        spacing = tuple(float(a[1] - a[0]) for a in grid.axes)
        field_table = cls.hermite_tensor(grid, field.values, field.derivs, "constant")
        stretch = cls.max_stretch(field, field_table)
        assert gamma * stretch[0] < 1.0 - 1e-9
        _, det, cells, t = cls.invert(grid, field, field_table, gamma)
        gradient = cls.log_gradient(grid, density.log_density)
        table = cls.hermite_tensor(grid, density.log_density, gradient, "linear")
        log_rho_at = cls.horner(cls.gather(table, cells), t, spacing, False)[0]
        return cls.normalized(grid, log_rho_at - np.log(det)), stretch

    @staticmethod
    def kl(density, reference):
        rho = np.exp(density.log_density)
        support = rho > 0.0
        gap = density.log_density - reference.log_density
        if np.any(~np.isfinite(gap[support])):
            return math.inf
        integrand = np.zeros_like(rho)
        integrand[support] = rho[support] * gap[support]
        return float(np.dot(density.grid.weights, integrand))

    @staticmethod
    def lattice_apply(operator, q, u):
        """kernels._LatticeOperator.apply, one transform per operand."""
        size, d = q.shape
        lattice = operator._shape
        Q = operator._spectrum(q.reshape(lattice + (d,)))
        V = operator._K[..., None] * Q
        DV = Q[..., :, None] * operator._K1rev[..., None, :]
        if u is not None:
            U = operator._spectrum(u.reshape(lattice + (d, d)))
            V += np.einsum("...e,...de->...d", operator._K1, U)
            DV += np.einsum("...ec,...de->...dc", operator._K12, U)
        return (operator._convolved(V).reshape(size, d),
                operator._convolved(DV).reshape(size, d, d))


def same_bits(a, b):
    """Equal arrays or scalars, bit for bit."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def rel_err(approx, exact, floor=1e-12):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = np.maximum(np.abs(exact), floor)
    return float(np.max(np.abs(approx - exact) / scale))


def sample_simplex_interior(rng, n, d, margin=0.0):
    """Uniform points of the open simplex {theta_i > 0, sum theta < 1}."""
    g = rng.gamma(1.0, 1.0, size=(n, d + 1))
    t = g / np.sum(g, axis=1, keepdims=True)
    pts = t[:, :d]
    if margin > 0.0:
        pts = margin / (d + 1) + (1.0 - margin) * pts
    return pts


def sample_box_interior(rng, n, lo, hi, margin=1e-3):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    u = rng.uniform(margin, 1.0 - margin, size=(n, lo.size))
    return lo + (hi - lo) * u


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
