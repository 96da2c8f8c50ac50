"""Kernels on the constrained domain, with the derivative operations the
particle update and the discrepancy estimators need.

All kernels expose batched ops on point sets X (n, d) and Y (m, d): gram,
grad1_gram and grad12_gram. grad1 differentiates the first argument slot;
grad12 is the matrix of cross second derivatives d^2 k / dtheta_i dtheta'_j.
bounds() returns (b1, b2) with sup k(t, t) <= b1^2 and the cross second
derivative bounded by b2^2; these two constants feed every step-size bound.
translation_invariant marks kernels with k(a, b) = k(a - b, 0), whose gram
blocks over a uniform lattice are Toeplitz.
"""

import numpy as np

from .errors import ConfigError


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
    def adaptive(self):
        return self.inner.adaptive

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
        return RescaledKernel(inner, scale)
    if name == "dual-imq":
        if mirror_map is None:
            raise ConfigError("dual-imq kernel needs a mirror map")
        return DualIMQKernel(mirror_map, **params)
    raise ConfigError(f"unknown kernel {name!r}")
