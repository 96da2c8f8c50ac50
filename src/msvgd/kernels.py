"""Kernels on the constrained domain, with the derivative operations the
particle update and the discrepancy estimators need.

All kernels expose batched ops on point sets X (n, d) and Y (m, d): gram,
grad1_gram and grad12_gram. grad1 differentiates the first argument slot;
grad12 is the matrix of cross second derivatives d^2 k / dtheta_i dtheta'_j.
bounds() returns (b1, b2) with sup k(t, t) <= b1^2 and the cross second
derivative bounded by b2^2; these two constants feed every step-size bound.
translation_invariant marks kernels with k(a, b) = k(a - b, 0), whose gram
blocks over a uniform lattice are Toeplitz.

kernel_operator(kernel, points) applies the kernel matrices over one point
set to per-point values, the sums that both the grid field and the particle
Stein-Fisher value are made of.  For a radial kernel k = f(||a - b||^2) every
such sum is a product of the n x n matrices f(t), f'(t) and f''(t) with
stacked per-point features, so no (n, n, d) or (n, n, d, d) block is built.
"""

import numpy as np

from .errors import ConfigError

# precompute the kernel matrices over a point set when they fit in memory
PRECOMPUTE_BYTES = 700_000_000
# matrix entries per column block when an operator streams instead
STREAM_BLOCK_ENTRIES = 1 << 23


class Kernel:
    adaptive = False  # True when the engine must refresh state each step
    translation_invariant = False

    def gram(self, X, Y):
        raise NotImplementedError

    def grad1_gram(self, X, Y):
        raise NotImplementedError

    def grad12_gram(self, X, Y):
        raise NotImplementedError

    def bounds(self):
        raise NotImplementedError


def _sq_dists(X, Y):
    diff = X[:, None, :] - Y[None, :, :]
    return np.sum(diff * diff, axis=2), diff


class _RadialKernel(Kernel):
    """Kernel of the form k(a, b) = f(||a - b||^2)."""

    translation_invariant = True

    def _f(self, t):
        raise NotImplementedError

    def _fp(self, t):
        raise NotImplementedError

    def _fpp(self, t):
        raise NotImplementedError

    def gram(self, X, Y):
        t, _ = _sq_dists(X, Y)
        return self._f(t)

    def grad1_gram(self, X, Y):
        t, diff = _sq_dists(X, Y)
        return 2.0 * self._fp(t)[:, :, None] * diff

    def grad12_gram(self, X, Y):
        t, diff = _sq_dists(X, Y)
        d = X.shape[1]
        eye = np.eye(d)
        out = -4.0 * self._fpp(t)[:, :, None, None] * (
            diff[:, :, :, None] * diff[:, :, None, :]
        )
        out -= 2.0 * self._fp(t)[:, :, None, None] * eye
        return out


def _sampled_cross_derivative_bound(f, fp):
    """b2^2 for a radial kernel, sampled rather than derived.

    For the kernels here the cross second derivative peaks at coincidence,
    where the matrix is -2 f'(0) I. Sample it by a Richardson-refined central
    difference on the 1-d slice k(a, b) = f((a-b)^2) so an algebra slip in
    fp cannot silently skew the step-size bounds.
    """

    def mixed(h):
        return (f((h - h) ** 2) - f((h + h) ** 2)
                - f((-h - h) ** 2) + f((-h + h) ** 2)) / (4.0 * h * h)

    c1, c2 = mixed(1e-4), mixed(5e-5)
    return float((16.0 * c2 - c1) / 15.0)


class IMQKernel(_RadialKernel):
    """Inverse multiquadric k(a, b) = (c^2 + ||a - b||^2)^beta, beta in (-1, 0)."""

    def __init__(self, c=1.0, beta=-0.5):
        if not (c > 0):
            raise ConfigError("imq kernel needs c > 0")
        if not (-1.0 < beta < 0.0):
            raise ConfigError("imq kernel needs beta in (-1, 0)")
        self.c = float(c)
        self.beta = float(beta)
        self._b1 = self.c**self.beta
        self._b2sq = _sampled_cross_derivative_bound(self._f, self._fp)

    def _f(self, t):
        return (self.c**2 + t) ** self.beta

    def _fp(self, t):
        return self.beta * (self.c**2 + t) ** (self.beta - 1.0)

    def _fpp(self, t):
        return self.beta * (self.beta - 1.0) * (self.c**2 + t) ** (self.beta - 2.0)

    def bounds(self):
        return self._b1, float(np.sqrt(self._b2sq))


class RBFKernel(_RadialKernel):
    """Gaussian kernel k(a, b) = exp(-||a - b||^2 / (2 h^2)).

    bandwidth may be a positive float or "median", in which case the engine
    refreshes it from the current particle set via update_bandwidth() before
    it builds each state's field; evaluation before the first refresh is an
    error.
    """

    def __init__(self, bandwidth=1.0):
        if bandwidth == "median":
            self.adaptive = True
            self._h = None
        else:
            if not (bandwidth > 0):
                raise ConfigError("rbf kernel needs bandwidth > 0")
            self._h = float(bandwidth)

    @property
    def bandwidth(self):
        if self._h is None:
            raise ConfigError("median-heuristic rbf kernel not initialized; "
                              "call update_bandwidth(points) first")
        return self._h

    @staticmethod
    def median_bandwidth(X):
        """bandwidth^2 = median of pairwise squared distances / (2 log(n+1))."""
        n = X.shape[0]
        t, _ = _sq_dists(X, X)
        iu = np.triu_indices(n, k=1)
        med = np.median(t[iu]) if n > 1 else 1.0
        h2 = med / (2.0 * np.log(n + 1.0))
        return float(np.sqrt(max(h2, 1e-300)))

    def update_bandwidth(self, X):
        self._h = self.median_bandwidth(X)
        return self._h

    def _f(self, t):
        return np.exp(-t / (2.0 * self.bandwidth**2))

    def _fp(self, t):
        return -self._f(t) / (2.0 * self.bandwidth**2)

    def _fpp(self, t):
        return self._f(t) / (4.0 * self.bandwidth**4)

    def bounds(self):
        return 1.0, 1.0 / self.bandwidth


class RescaledKernel(Kernel):
    """inner kernel evaluated on points divided by a fixed scale.

    Shrinks the cross-derivative constant by the scale (b2 / scale), which is
    how the dimension dependence of the step-size bound is tamed in practice.
    """

    def __init__(self, inner, scale):
        if not (scale > 0):
            raise ConfigError("rescaled kernel needs scale > 0")
        self.inner = inner
        self.scale = float(scale)

    @property
    def translation_invariant(self):
        return self.inner.translation_invariant

    def gram(self, X, Y):
        return self.inner.gram(X / self.scale, Y / self.scale)

    def grad1_gram(self, X, Y):
        return self.inner.grad1_gram(X / self.scale, Y / self.scale) / self.scale

    def grad12_gram(self, X, Y):
        return self.inner.grad12_gram(X / self.scale, Y / self.scale) / self.scale**2

    def bounds(self):
        b1, b2 = self.inner.bounds()
        return b1, b2 / self.scale


class DualIMQKernel(Kernel):
    """Inverse multiquadric composed with the mirror chart:
    k(theta, theta') = (c^2 + ||grad_psi(theta) - grad_psi(theta')||^2)^beta.

    In the dual coordinates this kernel is translation invariant, so bounds()
    reports the dual-chart constants (where the kernel actually enters the
    dual-space analysis); the raw primal cross derivative is unbounded near
    the domain boundary for maps with unbounded curvature.
    """

    def __init__(self, mirror_map, c=1.0, beta=-0.5):
        self.map = mirror_map
        self._imq = IMQKernel(c=c, beta=beta)

    def gram(self, X, Y):
        return self._imq.gram(self.map.grad_psi(X), self.map.grad_psi(Y))

    def grad1_gram(self, X, Y):
        gx = self.map.grad_psi(X)
        gy = self.map.grad_psi(Y)
        inner = self._imq.grad1_gram(gx, gy)        # (n, m, d), dual slot
        hx = self.map.hess_psi(X)                   # (n, d, d), symmetric
        return np.einsum("nab,nmb->nma", hx, inner)

    def grad12_gram(self, X, Y):
        gx = self.map.grad_psi(X)
        gy = self.map.grad_psi(Y)
        inner = self._imq.grad12_gram(gx, gy)       # (n, m, d, d)
        hx = self.map.hess_psi(X)
        hy = self.map.hess_psi(Y)
        return np.einsum("nab,nmbc,mcd->nmad", hx, inner, hy)

    def bounds(self):
        return self._imq.bounds()


def make_kernel(name, params=None, mirror_map=None):
    """Build a kernel from its config name."""
    params = dict(params or {})
    if name == "imq":
        return IMQKernel(**params)
    if name == "rbf":
        return RBFKernel(**params)
    if name == "rescaled":
        inner_name = params.pop("inner", None)
        scale = params.pop("scale", None)
        inner_params = params.pop("inner_params", {})
        if inner_name is None or scale is None:
            raise ConfigError("rescaled kernel needs inner and scale")
        inner = make_kernel(inner_name, inner_params, mirror_map=mirror_map)
        if inner.adaptive:
            raise ConfigError(
                "config key 'kernel_params.inner_params.bandwidth' must be a number: "
                "a rescaled kernel cannot refresh a median bandwidth, which would "
                "cancel its scale"
            )
        return RescaledKernel(inner, scale)
    if name == "dual-imq":
        if mirror_map is None:
            raise ConfigError("dual-imq kernel needs a mirror map")
        return DualIMQKernel(mirror_map, **params)
    raise ConfigError(f"unknown kernel {name!r}")


# ---------------------------------------------------------------------------
# kernel operators
#
# An operator over points theta (n, d) applies the kernel matrices
# K[i, j] = k(theta_i, theta_j), K1 = grad1 k and K12 = grad12 k to per-point
# values q (n, d) and u (n, d, d):
#
#   vals[j]        = sum_i K[i, j] q[i] + sum_{i,e} K1[i, j, e] u[i, :, e]
#   dvals[j, :, c] = sum_i K1[j, i, c] q[i] + sum_{i,e} K12[i, j, e, c] u[i, :, e]
#
# dvals is the derivative of vals in the evaluation slot theta_j.
# apply(q, None) skips the u terms.


def kernel_operator(kernel, points):
    """The operator over ``points`` (n, d): matrix products of f(t), f'(t)
    and f''(t) for a radial kernel, rescaled or not, and explicit gram
    blocks for any other kernel."""
    radial, scale = kernel, 1.0
    if isinstance(kernel, RescaledKernel):
        radial, scale = kernel.inner, kernel.scale
    if isinstance(radial, _RadialKernel):
        return _RadialOperator(radial, points, scale)
    return _DenseKernelOperator(kernel, points)


class _RadialOperator:
    """The products for k(a, b) = f(||a - b||^2 / scale^2).

    With x = theta / scale, D = x_i - x_j, and F, F', F'' the symmetric
    n x n matrices of f, f', f'' at t_ij = ||D||^2:

        K = F,   K1[i, j] = (2 / scale) F'_ij D,
        K12[i, j] = -(4 F''_ij D D^T + 2 F'_ij I) / scale^2.

    Splitting D into x_i and x_j turns every sum into one factor times
    per-point features (q, q x^T, w = u x, u, w x^T, u x^T) and point-wise
    products with x_j.  Each factor multiplies all its features in one
    matrix product.  The sums are translation invariant, so x is centred
    first, which keeps the cancellation between the split terms small.
    The factors are precomputed when they fit in PRECOMPUTE_BYTES and
    rebuilt for each column block otherwise.
    """

    def __init__(self, kernel, points, scale):
        self.kernel = kernel
        self.scale = float(scale)
        x = np.asarray(points, dtype=float) / self.scale
        self._x = x - np.mean(x, axis=0)
        n = x.shape[0]
        self._precomputed = 3 * n * n * 8 <= PRECOMPUTE_BYTES
        if self._precomputed:
            self._factors = self._block(slice(0, n))

    def _block(self, cols: slice) -> tuple:
        """F, F' and F'' between all points (rows) and a column block; the
        squared distances are summed coordinate by coordinate."""
        x = self._x
        diff = x[:, None, 0] - x[None, cols, 0]
        t = diff * diff
        for c in range(1, x.shape[1]):
            np.subtract(x[:, None, c], x[None, cols, c], out=diff)
            diff *= diff
            t += diff
        factors = self.kernel._f(t), self.kernel._fp(t), self.kernel._fpp(t)
        # D vanishes on the diagonal, so F' and F'' enter the split sums only
        # off it (the identity term of K12 adds f'(0) back in apply); zeros
        # there spare the split terms their largest cancellation
        rows = np.arange(cols.start, cols.stop)
        for factor in factors[1:]:
            factor[rows, rows - cols.start] = 0.0
        return factors

    def _products(self, *groups) -> list:
        """factor_k^T @ a for every per-point array a (n, ...) in groups[k],
        with factors F, F', F'' in that order; one matrix product per
        factor and column block."""
        n = self._x.shape[0]
        stacked = [np.concatenate([a.reshape(n, -1) for a in group], axis=1)
                   for group in groups]
        out = [np.empty_like(features) for features in stacked]
        block = n if self._precomputed else max(1, STREAM_BLOCK_ENTRIES // n)
        for start in range(0, n, block):
            cols = slice(start, min(start + block, n))
            factors = self._factors if self._precomputed else self._block(cols)
            for factor, features, result in zip(factors, stacked, out):
                result[cols] = factor.T @ features
        products = []
        for group, result in zip(groups, out):
            widths = np.cumsum([a[0].size for a in group])[:-1]
            parts = np.split(result, widths, axis=1)
            products.append([p.reshape(a.shape) for p, a in zip(parts, group)])
        return products

    def apply(self, q: np.ndarray, u: np.ndarray | None) -> tuple:
        x, s = self._x, self.scale
        q_x = q[:, :, None] * x[:, None, :]
        if u is None:
            (Fq,), (Fpq, Fpqx) = self._products([q], [q, q_x])
        else:
            w = np.einsum("ide,ie->id", u, x)
            w_x = w[:, :, None] * x[:, None, :]
            u_x = u[:, :, :, None] * x[:, None, None, :]
            (Fq,), (Fpq, Fpqx, Fpw, Fpu), (Fppw, Fppwx, Fppu, Fppux) = self._products(
                [q], [q, q_x, w, u], [w, w_x, u, u_x])
        vals = Fq
        dvals = (2.0 / s) * (Fpq[:, :, None] * x[:, None, :] - Fpqx)
        if u is not None:
            vals = vals + (2.0 / s) * (Fpw - np.einsum("jde,je->jd", Fpu, x))
            Fppu_x = np.einsum("jde,je->jd", Fppu, x)
            dd = (Fppwx - np.einsum("jdec,je->jdc", Fppux, x)
                  + (Fppu_x - Fppw)[:, :, None] * x[:, None, :])
            fp0 = float(self.kernel._fp(np.zeros(1))[0])
            dvals = dvals - (2.0 * (Fpu + fp0 * u) + 4.0 * dd) / s**2
        return vals, dvals


class _DenseKernelOperator:
    """The products against explicit gram blocks between the points.

    The blocks are precomputed when they fit in PRECOMPUTE_BYTES, so that
    repeated products reuse them; otherwise every product streams over
    column blocks.
    """

    def __init__(self, kernel, theta: np.ndarray):
        self.kernel = kernel
        self.theta = theta
        size, d = theta.shape
        self._precomputed = size * size * (1 + d + d * d) * 8 <= PRECOMPUTE_BYTES
        if self._precomputed:
            self._K = kernel.gram(theta, theta)
            self._K1 = kernel.grad1_gram(theta, theta)
            self._K12 = kernel.grad12_gram(theta, theta)

    def _blocks(self, cols: slice):
        """Kernel matrices between all points (rows) and a column block: the
        gram block, the first-slot gradient, the same gradient with the block
        in the first slot (the evaluation-side derivative, by symmetry of the
        kernel), and the mixed second derivative."""
        if self._precomputed:
            return self._K[:, cols], self._K1[:, cols], self._K1[cols], self._K12[:, cols]
        theta_c = self.theta[cols]
        return (
            self.kernel.gram(self.theta, theta_c),
            self.kernel.grad1_gram(self.theta, theta_c),
            self.kernel.grad1_gram(theta_c, self.theta),
            self.kernel.grad12_gram(self.theta, theta_c),
        )

    def apply(self, q: np.ndarray, u: np.ndarray | None) -> tuple:
        size, d = self.theta.shape
        block = size if self._precomputed else max(1, STREAM_BLOCK_ENTRIES // size)
        vals = np.empty((size, d))
        dvals = np.empty((size, d, d))
        for start in range(0, size, block):
            cols = slice(start, min(start + block, size))
            K, K1, K1rev, K12 = self._blocks(cols)
            v = K.T @ q
            dv = np.stack([K1rev[:, :, c] @ q for c in range(d)], axis=2)
            if u is not None:
                for e in range(d):
                    v += K1[:, :, e].T @ u[:, :, e]
                    for c in range(d):
                        dv[:, :, c] += K12[:, :, e, c].T @ u[:, :, e]
            vals[cols] = v
            dvals[cols] = dv
        return vals, dvals
