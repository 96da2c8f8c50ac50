"""Kernels on the constrained domain, with the derivative operations the
particle update and the discrepancy estimators need.

Every kernel is one radial profile read through a chart:
k(theta, theta') = f(||x - x'||^2) with x = phi(theta).  chart(points)
returns the chart coordinates x and the chart's Jacobian J there, which is
symmetric for every chart here: None for the identity (imq, rbf), the
number 1 / scale for rescaled, and hess_psi (n, d, d) for dual-imq, whose
chart is the mirror map's grad_psi.  profile is the radial kernel whose
f, f' and f'' apply in the chart.

A radial profile evaluates f and its first two derivatives in one method,
_derivatives(t, order), from one transcendental: one pow of c^2 + t for imq,
whose derivatives follow by division, and one exp for rbf.  Every caller
asks it for the orders it needs, so no formula is written twice.

All kernels expose batched ops on point sets X (n, d) and Y (m, d): gram,
grad1_gram and grad12_gram, written once for every kernel.  grad1
differentiates the first argument slot; grad12 is the matrix of cross
second derivatives d^2 k / dtheta_i dtheta'_j.  bounds() returns (b1, b2)
with sup k(t, t) <= b1^2 and the cross second derivative bounded by b2^2;
these two constants feed every step-size bound.  translation_invariant
marks kernels with k(a, b) = k(a - b, 0), whose gram blocks over a uniform
lattice are Toeplitz.

kernel_operator(kernel, points) applies the kernel matrices over one point
set to per-point values, the sums that both the grid field and the particle
Stein-Fisher value are made of.  Every such sum is a product of the n x n
matrices f(t), f'(t) and f''(t) with stacked per-point features, between
two per-point multiplications by J, so no (n, n, d) or (n, n, d, d) block
is built.  The three matrices are symmetric, so the operator builds only
their upper tiles over at most TILE_ROWS rows each, and one loop over those
tiles makes every product: with the tiles cached when they fit in
PRECOMPUTE_BYTES, with each tile built inside the loop otherwise.  The
features are held feature-major, (w, n) with w at most d + 2 d^2 + d^3
(18 in 2-D), so each tile product is a (w, rows) @ tile matrix product
rather than a transposed tile against a narrow (rows, w) block.
"""

import numpy as np

from .errors import ConfigError

# cache the kernel matrices' upper tiles over a point set when they fit
PRECOMPUTE_BYTES = 700_000_000
# most rows in one tile of a point-set operator's kernel matrices
TILE_ROWS = 640


def _sq_dists(X, Y):
    diff = X[:, None, :] - Y[None, :, :]
    return np.sum(diff * diff, axis=2), diff


def _times_jac(v, jac, subscripts):
    """v multiplied by the chart Jacobians: by the number itself, or by the
    per-point (n, d, d) matrices through einsum ``subscripts``; v itself
    when the chart is the identity."""
    if jac is None:
        return v
    if np.ndim(jac) == 0:
        return v * jac
    return np.einsum(subscripts, v, jac)


class Kernel:
    """k(a, b) = f(||x_a - x_b||^2) with f = profile and x = chart(points).

    With D = x_a - x_b, t = ||D||^2 and J the chart's symmetric Jacobian:

        K = f(t),   K1 = J_a (2 f'(t) D),
        K12 = J_a (-4 f''(t) D D^T - 2 f'(t) I) J_b.
    """

    adaptive = False  # True when the engine must refresh state each step
    translation_invariant = False
    profile = None  # the radial kernel whose f, f' and f'' apply in the chart

    def chart(self, points):
        """(x, jac): the chart coordinates of points (n, d) and the chart's
        Jacobian there; the identity chart by default."""
        return points, None

    def gram(self, X, Y):
        t, _ = _sq_dists(self.chart(X)[0], self.chart(Y)[0])
        return self.profile._derivatives(t, 0)[0]

    def grad1_gram(self, X, Y):
        x, jac = self.chart(X)
        t, diff = _sq_dists(x, self.chart(Y)[0])
        # scaled in place: a named factor must not cost one more n x m array
        fp = self.profile._derivatives(t, 1)[1]
        fp *= 2.0
        return _times_jac(fp[:, :, None] * diff, jac, "nma,nab->nmb")

    def grad12_gram(self, X, Y):
        (x, jx), (y, jy) = self.chart(X), self.chart(Y)
        t, diff = _sq_dists(x, y)
        d = x.shape[1]
        eye = np.eye(d)
        fp, fpp = self.profile._derivatives(t, 2)[1:]
        fp *= 2.0
        fpp *= -4.0
        out = fpp[:, :, None, None] * (diff[:, :, :, None] * diff[:, :, None, :])
        out -= fp[:, :, None, None] * eye
        out = _times_jac(out, jx, "nmac,nab->nmbc")
        return _times_jac(out, jy, "nmac,mcd->nmad")

    def bounds(self):
        raise NotImplementedError


class _RadialKernel(Kernel):
    """Kernel of the form k(a, b) = f(||a - b||^2): its own profile, in the
    identity chart."""

    translation_invariant = True

    @property
    def profile(self):
        return self

    def _derivatives(self, t, order):
        """(f(t), f'(t), ...) up to the order-th derivative, order <= 2, from
        one transcendental.  t is an array and is consumed: its buffer may
        hold one of the results.  (imq's sampled bound passes floats at
        order 0.)"""
        raise NotImplementedError


def _sampled_cross_derivative_bound(profile):
    """b2^2 for a radial kernel, sampled rather than derived.

    For the kernels here the cross second derivative peaks at coincidence,
    where the matrix is -2 f'(0) I. Sample it by a Richardson-refined central
    difference on the 1-d slice k(a, b) = f((a-b)^2) so an algebra slip in
    f' cannot silently skew the step-size bounds.
    """

    def f(t):
        return profile._derivatives(t, 0)[0]

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
        self._b2sq = _sampled_cross_derivative_bound(self)

    def _derivatives(self, t, order):
        # with base = c^2 + t: f = base^beta, f' = beta f / base and
        # f'' = (beta - 1) f' / base; the highest order asked for is built
        # in t's buffer
        base = t
        base += self.c**2
        f = base**self.beta
        if order == 0:
            return (f,)
        fp = np.divide(f, base, out=base if order == 1 else None)
        fp *= self.beta
        if order == 1:
            return f, fp
        fpp = np.divide(fp, base, out=base)
        fpp *= self.beta - 1.0
        return f, fp, fpp

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

    def _derivatives(self, t, order):
        # f = exp(-t / (2 h^2)), built in t's buffer; f' = -f / (2 h^2) and
        # f'' = f / (4 h^4)
        two_h2 = 2.0 * self.bandwidth**2
        f = np.divide(t, -two_h2, out=t)
        np.exp(f, out=f)
        if order == 0:
            return (f,)
        if order == 1:
            return f, f / -two_h2
        return f, f / -two_h2, f / (4.0 * self.bandwidth**4)

    def bounds(self):
        return 1.0, 1.0 / self.bandwidth


class RescaledKernel(Kernel):
    """A radial kernel (imq or rbf) evaluated on points divided by a fixed
    scale: the chart x = theta / scale, whose Jacobian is 1 / scale.

    Shrinks the cross-derivative constant by the scale (b2 / scale), which is
    how the dimension dependence of the step-size bound is tamed in practice.
    """

    translation_invariant = True

    def __init__(self, inner, scale):
        if not (scale > 0):
            raise ConfigError("rescaled kernel needs scale > 0")
        self.profile = inner
        self.scale = float(scale)

    def chart(self, points):
        return points / self.scale, 1.0 / self.scale

    def bounds(self):
        b1, b2 = self.profile.bounds()
        return b1, b2 / self.scale


class DualIMQKernel(Kernel):
    """Inverse multiquadric composed with the mirror chart:
    k(theta, theta') = (c^2 + ||grad_psi(theta) - grad_psi(theta')||^2)^beta.

    Its chart is grad_psi, whose Jacobian hess_psi is symmetric.  In the dual
    coordinates this kernel is translation invariant, so bounds() reports the
    dual-chart constants (where the kernel actually enters the dual-space
    analysis); the raw primal cross derivative is unbounded near the domain
    boundary for maps with unbounded curvature.
    """

    def __init__(self, mirror_map, c=1.0, beta=-0.5):
        self.map = mirror_map
        self.profile = IMQKernel(c=c, beta=beta)

    def chart(self, points):
        return self.map.grad_psi(points), self.map.hess_psi(points)

    def bounds(self):
        return self.profile.bounds()


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
        if inner_name not in ("imq", "rbf"):
            raise ConfigError(
                f"config key 'kernel_params.inner' must be 'imq' or 'rbf', not "
                f"{inner_name!r}: a rescaled kernel divides primal points by its "
                "scale, which only a radial kernel can take"
            )
        inner = make_kernel(inner_name, inner_params)
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
    """The operator over ``points`` (n, d): the kernel's profile applied in
    its chart."""
    return _RadialOperator(kernel.profile, *kernel.chart(points))


class _RadialOperator:
    """The products for k(a, b) = f(||x_a - x_b||^2) over chart coordinates
    x (n, d) with symmetric chart Jacobians jac (see Kernel.chart).

    With D = x_i - x_j and F, F', F'' the symmetric n x n matrices of f,
    f', f'' at t_ij = ||D||^2:

        K = F,   K1[i, j] = J_i (2 F'_ij D),
        K12[i, j] = -J_i (4 F''_ij D D^T + 2 F'_ij I) J_j.

    By the chain rule, apply maps u to u J per point on the way in and
    dvals to dvals J on the way out; between the two every sum is the
    identity chart's.  Splitting D into x_i and x_j turns every sum into one
    factor times per-point features (q, q x^T, w = u x, u, w x^T, u x^T) and
    point-wise products with x_j.  Each factor multiplies all its features
    in one matrix product per tile.  The sums are translation invariant, so
    x is centred first, which keeps the cancellation between the split
    terms small.  f'(0) for the identity term is evaluated once per
    operator.

    The points split into k = ceil(n / TILE_ROWS) near-equal row ranges,
    and since the factors are symmetric only their upper tiles (i <= j) are
    built: tile (i, j) adds its transpose times range i's features to range
    j's products and, off the diagonal, itself times range j's features to
    range i's.  Both products run features-first on feature-major (w, n)
    stacks and accumulators (see _products).  The profile builds a tile's
    F, F' and F'' in one pass from one transcendental, one of them in the
    squared distances' buffer.  The tiles are cached when the three
    factors' stored tiles fit in PRECOMPUTE_BYTES and built inside each
    product's loop otherwise; both ways run the same loop on the same
    tiles, so they give the same bits.
    """

    def __init__(self, profile, x, jac):
        self.profile = profile
        self.jac = jac
        x = np.asarray(x, dtype=float)
        self._x = x - np.mean(x, axis=0)
        self._fp0 = float(profile._derivatives(np.zeros(1), 1)[1][0])
        n = x.shape[0]
        k = max(1, -(-n // TILE_ROWS))
        edges = [i * n // k for i in range(k + 1)]
        self._ranges = [slice(a, b) for a, b in zip(edges, edges[1:])]
        self._pairs = [(i, j) for i in range(k) for j in range(i, k)]
        sizes = [b - a for a, b in zip(edges, edges[1:])]
        stored = sum(sizes[i] * sizes[j] for i, j in self._pairs)
        self._tiles = None
        if 3 * stored * 8 <= PRECOMPUTE_BYTES:
            self._tiles = [self._tile(i, j) for i, j in self._pairs]

    def _tile(self, i: int, j: int) -> tuple:
        """F, F' and F'' between the points of row ranges i and j; the
        squared distances are summed coordinate by coordinate, and the
        profile builds one factor in their buffer, so the build holds the
        three factors and at most one more tile."""
        x, rows, cols = self._x, self._ranges[i], self._ranges[j]
        diff = x[rows, None, 0] - x[None, cols, 0]
        t = diff * diff
        for c in range(1, x.shape[1]):
            np.subtract(x[rows, None, c], x[None, cols, c], out=diff)
            diff *= diff
            t += diff
        del diff
        factors = self.profile._derivatives(t, 2)
        # D vanishes on the diagonal, so F' and F'' enter the split sums only
        # off it (the identity term of K12 adds f'(0) back in apply); zeros
        # there spare the split terms their largest cancellation
        if i == j:
            for factor in factors[1:]:
                np.fill_diagonal(factor, 0.0)
        return factors

    def _products(self, *groups) -> list:
        """factor_k^T @ a for every per-point array a (n, ...) in groups[k],
        with factors F, F', F'' in that order; one matrix product per
        factor and tile side.

        Each group's features are stacked feature-major, (w, n), and each
        factor keeps one (w, n) accumulator.  Every product is
        features-first: tile (i, j) adds features[:, i] @ tile to range j's
        columns and, off the diagonal, features[:, j] @ tile^T to range
        i's.  These are the sums of tile^T @ features[i], transposed; taken
        that way, as a transposed-A product with only w = 2 to 18 output
        columns, they ran 1.3 to 1.4 times slower on the 48 x 48 grid's
        four ranges (1.5 times with one BLAS thread).  Every range's first
        term comes from tile (0, j), so it is assigned and the rest are
        added in a fixed order; the results are transposed back once at the
        end."""
        n = self._x.shape[0]
        stacked = [np.concatenate([a.reshape(n, -1).T for a in group])
                   for group in groups]
        out = [np.empty_like(features) for features in stacked]
        for index, (i, j) in enumerate(self._pairs):
            rows, cols = self._ranges[i], self._ranges[j]
            tile = self._tiles[index] if self._tiles is not None else self._tile(i, j)
            for factor, features, result in zip(tile, stacked, out):
                if i == 0:
                    result[:, cols] = features[:, rows] @ factor
                else:
                    result[:, cols] += features[:, rows] @ factor
                if i != j:
                    result[:, rows] += features[:, cols] @ factor.T
        products = []
        for group, result in zip(groups, out):
            widths = np.cumsum([a[0].size for a in group])[:-1]
            parts = np.split(result.T, widths, axis=1)
            products.append([p.reshape(a.shape) for p, a in zip(parts, group)])
        return products

    def apply(self, q: np.ndarray, u: np.ndarray | None) -> tuple:
        x = self._x
        q_x = q[:, :, None] * x[:, None, :]
        if u is None:
            (Fq,), (Fpq, Fpqx) = self._products([q], [q, q_x])
        else:
            u = _times_jac(u, self.jac, "nde,nef->ndf")
            w = np.einsum("ide,ie->id", u, x)
            w_x = w[:, :, None] * x[:, None, :]
            u_x = u[:, :, :, None] * x[:, None, None, :]
            (Fq,), (Fpq, Fpqx, Fpw, Fpu), (Fppw, Fppwx, Fppu, Fppux) = self._products(
                [q], [q, q_x, w, u], [w, w_x, u, u_x])
        vals = Fq
        dvals = 2.0 * (Fpq[:, :, None] * x[:, None, :] - Fpqx)
        if u is not None:
            vals = vals + 2.0 * (Fpw - np.einsum("jde,je->jd", Fpu, x))
            Fppu_x = np.einsum("jde,je->jd", Fppu, x)
            dd = (Fppwx - np.einsum("jdec,je->jdc", Fppux, x)
                  + (Fppu_x - Fppw)[:, :, None] * x[:, None, :])
            dvals = dvals - (2.0 * (Fpu + self._fp0 * u) + 4.0 * dd)
        return vals, _times_jac(dvals, self.jac, "nde,nef->ndf")
