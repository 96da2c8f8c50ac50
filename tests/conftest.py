"""Shared finite-difference oracles and sampling helpers for the test suite.

The oracles are deliberately dumb and independent of the library code: plain
central differences and loop-based constructions, so closed forms in the
package are certified against something that cannot share their bugs.
DenseKernelOperator is the kernel operators' oracle: the same sums taken
against explicit gram blocks, of which grad12_gram, the K12 block, serves
only the tests.
"""

import numpy as np
import pytest

from msvgd.kernels import Kernel, _sq_dists, _times_jac


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


def grad12_gram(kernel, X, Y):
    """The (n, m, d, d) block K12[a, b] = d^2 k / dX_a dY_b between X (n, d)
    and Y (m, d), by the formula of Kernel's docstring:
    J_a (-4 f''(t) D D^T - 2 f'(t) I) J_b."""
    (x, jx), (y, jy) = kernel.chart(X), kernel.chart(Y)
    t = _sq_dists(x, y)
    diff = x[:, None, :] - y[None, :, :]
    fp, fpp = kernel.profile._derivatives(t, 2)[1:]
    fp *= 2.0
    fpp *= -4.0
    out = fpp[:, :, None, None] * (diff[:, :, :, None] * diff[:, :, None, :])
    out -= fp[:, :, None, None] * np.eye(x.shape[1])
    out = _times_jac(out, jx, "nmac,nab->nmbc")
    return _times_jac(out, jy, "nmac,mcd->nmad")


class _LongDoubleChart(Kernel):
    """A kernel's profile and chart with the chart coordinates and
    Jacobians carried in long double, so that every gram block built from
    them is too."""

    def __init__(self, kernel):
        self.profile = kernel.profile
        self._chart = kernel.chart

    def chart(self, points):
        x, jac = self._chart(points)
        return (np.asarray(x, dtype=np.longdouble),
                None if jac is None else np.asarray(jac, dtype=np.longdouble))


class DenseKernelOperator:
    """The kernel sums of ``msvgd.kernels.kernel_operator`` taken against the
    kernel's explicit gram blocks between the points, all precomputed:

        vals[j]        = sum_i K[i, j] q[i] + sum_{i,e} K1[i, j, e] u[i, :, e]
        dvals[j, :, c] = sum_i K1[j, i, c] q[i] + sum_{i,e} K12[i, j, e, c] u[i, :, e]

    The blocks and the sums are in long double from the kernel's own
    float chart: a chart Jacobian J enters K12 as J_i (.) J_j, and a u near
    J^-1 (the mirror maps' inverse Hessians) cancels it again, which costs
    double-precision blocks cond(J) ulps of the result.
    """

    def __init__(self, kernel, theta):
        kernel = _LongDoubleChart(kernel)
        self._K = kernel.gram(theta, theta)
        self._K1 = kernel.grad1_gram(theta, theta)
        self._K12 = grad12_gram(kernel, theta, theta)

    def apply(self, q, u):
        vals = self._K.T @ q
        dvals = np.einsum("jic,id->jdc", self._K1, q)
        if u is not None:
            vals += np.einsum("ije,ide->jd", self._K1, u)
            dvals += np.einsum("ijec,ide->jdc", self._K12, u)
        return vals.astype(float), dvals.astype(float)


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
