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
"""

import numpy as np
import pytest

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
