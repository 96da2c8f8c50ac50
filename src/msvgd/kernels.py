"""Kernels on the constrained domain, with the derivative operations the
particle update and the discrepancy estimators need.

Every kernel is one radial profile read through a chart:
k(theta, theta') = f(||x - x'||^2) with x = chart(theta): the identity for
imq and rbf, theta / scale for rescaled, and grad_psi for dual-imq.  profile
is the radial kernel whose f, f' and f'' apply in the chart.  Every field
block and operator here takes chart coordinates and differentiates in chart
slots, with no Jacobian inside; a consumer in the dual chart multiplies by
one symmetric per-point matrix, G = Hinv J = (dx/dy)^T for y = grad_psi
(dual_jacobian): hinv for imq and rbf, hinv / scale for rescaled, and I for
dual-imq, whose chart is the dual coordinate itself.

A radial profile evaluates f and its first two derivatives in one method,
_derivatives(t, order), from one transcendental: one pow of c^2 + t for imq,
whose derivatives follow by division, and one exp for rbf.  Its constants
(imq c^2; rbf 2 h^2 and 4 h^4) are written once, in _constants; a parameter
(or a median refresh) that leaves them, or f, f' or f'' at 0, infinite,
zero or nan in float64 is refused.  bounds() returns (b1, b2) with
sup k(t, t) <= b1^2 and the cross second derivative bounded by b2^2,
derived from the profile at t = 0: b1^2 = f(0) and b2^2 = -2 f'(0), where
the cross second derivative of imq (beta in (-1, 0)) and rbf peaks, so no
constant is sampled.

The particle field is built one block of rows at a time, over chart
coordinates x (n, d): field_factors gives f and f' between a block's rows
and every point from one _sq_dists and one _derivatives pass, and
field_gradient turns f' into the block's (n, r, d) chart-slot gradient
grad1 k (grad1 differentiates the first slot).  _sq_dists sums squared
distances coordinate by coordinate, for the field and for the operators,
building no (n, m, d) array.  row_ranges(n, rows) splits n points into
near-equal ranges of at most ``rows`` rows.  One streaming budget,
STREAM_BYTES, serves a particle run: it sizes the field's blocks
(field_rows(n, d)) and the tiles of the operator the Stein-Fisher snapshot
applies once (streamed_tile_rows()).  The grid flow's operator, applied at
every state, keeps tiles of TILE_ROWS rows.

Two kernel operators implement one contract, stated above them: the kernel
matrices over one point set applied to per-point values, the sums that both
the grid field and the particle Stein-Fisher value are made of.
- The point-set operator (kernel_operator), for every kernel: products of
  the n x n matrices f'(t) and f''(t) with two overlapping row ranges of
  one C-ordered (w, n) stack of per-point features, each feature written
  once.  f(t) is never held (f = (a + b t) f', _affine_ratio), and
  only the upper tiles of the two symmetric matrices are built, each in two
  buffers (_factors) and before the next product unless cache_tiles keeps
  them.
- The lattice operator, over a grid's own nodes, where every chart is
  affine: every kernel matrix is (block-)Toeplitz, so it is a zero-padded
  FFT convolution with K, K1 and K12 sampled at the node lags.
cached_kernel_operator, which a grid flow applies at every state, chooses
between them by the points.
"""

import math

import numpy as np

from .errors import ConfigError, NumericsError

# cache the kernel matrices' upper tiles over a point set when they fit
PRECOMPUTE_BYTES = 700_000_000
# most rows in one tile of the grid flow's point-set operator, cached or not
TILE_ROWS = 640
# about the most bytes of one streamed kernel block of a particle run: a
# field block, its (n, r, d) gradient and (r, n) factor, 8 n r (d + 1), or a
# tile of the snapshot's operator, its two r x r factors, 16 r^2
STREAM_BYTES = 1 << 20


def _range_count(n: int, rows: int) -> int:
    return max(1, -(-n // rows))


def _largest_range(n: int, rows: int) -> int:
    return -(-n // _range_count(n, rows))


def row_ranges(n: int, rows: int) -> list:
    """The k = ceil(n / rows) near-equal ranges of at most ``rows`` rows
    each that a kernel block over n points is built in."""
    k = _range_count(n, rows)
    edges = [i * n // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def field_rows(n: int, d: int) -> int:
    """The most rows r of one particle-field block over n points in d
    dimensions whose 8 n r (d + 1) bytes fit in STREAM_BYTES, at least
    one."""
    return max(1, STREAM_BYTES // (8 * n * (d + 1)))


def streamed_tile_rows() -> int:
    """The most rows r of one tile of the snapshot's operator whose two
    r x r factors, 16 r^2 bytes, fit in STREAM_BYTES (256 at 1 MiB), at
    least one."""
    return max(1, math.isqrt(STREAM_BYTES // 16))


def _sq_dists(x, y):
    """t[i, j] = ||x_i - y_j||^2 for x (n, d) and y (m, d), summed coordinate
    by coordinate: the build holds t and one more (n, m) array, never an
    (n, m, d) one."""
    diff = x[:, None, 0] - y[None, :, 0]
    t = diff * diff
    for c in range(1, x.shape[1]):
        np.subtract(x[:, None, c], y[None, :, c], out=diff)
        diff *= diff
        t += diff
    return t


def field_factors(profile, x, rows) -> tuple:
    """(f, f') at t[i, j] = ||x_i - x_j||^2 for i in ``rows`` and every j of
    the chart coordinates x (n, d): two (r, n) blocks from one _sq_dists and
    one _derivatives pass."""
    return profile._derivatives(_sq_dists(x[rows], x), 1)


def field_gradient(x, rows, fp):
    """The (n, r, d) chart-slot block grad1 k(x_j, x_i) = 2 f'(t_ij) (x_j - x_i)
    at [j, i] for i in ``rows``, from field_factors' f' (r, n), which it
    scales in place."""
    fp *= 2.0
    block = x[:, None, :] - x[None, rows, :]
    block *= fp.T[:, :, None]
    return block


def _rows(stack, shapes) -> list:
    """(n, *shape) views of consecutive row blocks of a (w, n) stack of
    per-point features, one block per trailing shape, to write or read."""
    n = stack.shape[1]
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(np.moveaxis(stack[start:start + size].reshape(shape + (n,)), -1, 0))
        start += size
    return views


class Kernel:
    """k(a, b) = f(||x_a - x_b||^2) with f = profile and x = chart(points).

    With D = x_a - x_b and t = ||D||^2, in chart slots:

        K = f(t),   K1 = 2 f'(t) D,   K12 = -4 f''(t) D D^T - 2 f'(t) I.
    """

    adaptive = False  # True when the engine must refresh state each step
    profile = None  # the radial kernel whose f, f' and f'' apply in the chart

    def chart(self, points):
        """The chart coordinates of points (n, d); the identity by default."""
        return points

    def dual_jacobian(self, hinv):
        """G = Hinv J, the chart-to-dual Jacobian at points whose inverse
        mirror Hessians are hinv (n, d, d); hinv for the identity chart."""
        return hinv

    def bounds(self):
        """(b1, b2) of the profile in its chart: b1 = sqrt(f(0)) and
        b2 = sqrt(-2 f'(0)).  The eigenvalues of -4 f''(t) D D^T - 2 f'(t) I
        are -2 f'(t) across D and -2 f'(t) - 4 t f''(t) along it; for imq
        with beta in (-1, 0) and for rbf neither exceeds -2 f'(0) in size."""
        f0, fp0 = (float(v[0]) for v in self.profile._derivatives(np.zeros(1), 1))
        return math.sqrt(f0), math.sqrt(-2.0 * fp0)


class _RadialKernel(Kernel):
    """Kernel of the form k(a, b) = f(||a - b||^2): its own profile, in the
    identity chart."""

    @property
    def profile(self):
        return self

    def _derivatives(self, t, order):
        """(f(t), f'(t), ...) up to the order-th derivative, order <= 2, from
        one transcendental.  t is an array and is consumed: its buffer may
        hold one of the results."""
        raise NotImplementedError

    def _factors(self, t):
        """(f'(t), f''(t)), the point-set operator's two factors: the
        operations of _derivatives(t, 2)[1:] in the same order, so the same
        bits, in two buffers, t's and one more, since f is never held.  t
        is consumed."""
        raise NotImplementedError

    def _affine_ratio(self):
        """(a, b) with f(t) = (a + b t) f'(t) for every t >= 0, which lets
        the point-set operator take the sums of f through f'."""
        raise NotImplementedError

    def _constants(self) -> tuple:
        """The profile's constants, in the form _derivatives reads them."""
        raise NotImplementedError

    def _in_range(self) -> bool:
        """Whether the constants and f, f', f'' at 0 are finite and nonzero in
        float64; otherwise the bounds and every kernel sum read inf, nan or 0."""
        try:
            with np.errstate(all="ignore"):
                values = [*self._constants(), *(v[0] for v in self._derivatives(np.zeros(1), 2))]
        except OverflowError:  # a Python float power past float64's range
            return False
        return all(math.isfinite(v) and v != 0.0 for v in values)

    def _refuse_out_of_range(self, key, value):
        if not self._in_range():
            raise ConfigError(f"kernel parameter '{key}' = {value!r} is out of float64's range: "
                              "its constants or f, f', f'' at 0 would be infinite, zero or nan")


class IMQKernel(_RadialKernel):
    """Inverse multiquadric k(a, b) = (c^2 + ||a - b||^2)^beta, beta in (-1, 0)."""

    def __init__(self, c=1.0, beta=-0.5):
        if not (c > 0):
            raise ConfigError("imq kernel needs c > 0")
        if not (-1.0 < beta < 0.0):
            raise ConfigError("imq kernel needs beta in (-1, 0)")
        self.c = float(c)
        self.beta = float(beta)
        self._refuse_out_of_range("c", self.c)

    def _constants(self):
        return (self.c**2,)

    def _derivatives(self, t, order):
        # with base = c^2 + t: f = base^beta, f' = beta f / base and
        # f'' = (beta - 1) f' / base; the highest order asked for is built
        # in t's buffer
        base = t
        base += self._constants()[0]
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

    def _factors(self, t):
        # f = base^beta is divided into f' in its own buffer
        base = t
        base += self._constants()[0]
        fp = base**self.beta
        np.divide(fp, base, out=fp)
        fp *= self.beta
        fpp = np.divide(fp, base, out=base)
        fpp *= self.beta - 1.0
        return fp, fpp

    def _affine_ratio(self):
        # f = base f' / beta with base = c^2 + t
        return self._constants()[0] / self.beta, 1.0 / self.beta


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
            self._refuse_out_of_range("bandwidth", self._h)

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
        t = _sq_dists(X, X)
        # the upper triangle through a boolean mask, not (n, n) integer
        # indices; the median partitions that copy in place
        med = np.median(t[~np.tri(n, dtype=bool)], overwrite_input=True) if n > 1 else 1.0
        return float(np.sqrt(med / (2.0 * np.log(n + 1.0))))

    def update_bandwidth(self, X):
        """Refresh the median bandwidth from X, refusing a collapsed cloud."""
        self._h = self.median_bandwidth(X)
        if not self._in_range():
            h, self._h = self._h, None
            raise NumericsError(f"median-heuristic rbf bandwidth {h!r} is out of float64's "
                                f"range: the cloud of {X.shape[0]} points has collapsed")
        return self._h

    def _constants(self):
        return 2.0 * self.bandwidth**2, 4.0 * self.bandwidth**4

    def _derivatives(self, t, order):
        # f = exp(-t / (2 h^2)), built in t's buffer; f' = -f / (2 h^2) and
        # f'' = f / (4 h^4)
        two_h2, four_h4 = self._constants()
        f = np.divide(t, -two_h2, out=t)
        np.exp(f, out=f)
        if order == 0:
            return (f,)
        if order == 1:
            return f, f / -two_h2
        return f, f / -two_h2, f / four_h4

    def _factors(self, t):
        # f = exp(-t / (2 h^2)) in t's buffer becomes f'' there, after f'
        two_h2, four_h4 = self._constants()
        f = np.divide(t, -two_h2, out=t)
        np.exp(f, out=f)
        fp = f / -two_h2
        return fp, np.divide(f, four_h4, out=f)

    def _affine_ratio(self):
        # f = -2 h^2 f'
        return -self._constants()[0], 0.0


class RescaledKernel(Kernel):
    """A radial kernel (imq or rbf) evaluated on points divided by a fixed
    scale: the chart x = theta / scale, whose Jacobian is I / scale.

    Shrinks the cross-derivative constant by the scale (b2 / scale), which is
    how the dimension dependence of the step-size bound is tamed in practice.
    """

    def __init__(self, inner, scale):
        if not (scale > 0):
            raise ConfigError("rescaled kernel needs scale > 0")
        self.profile = inner
        self.scale = float(scale)

    def chart(self, points):
        return points / self.scale

    def dual_jacobian(self, hinv):
        return hinv / self.scale

    def bounds(self):
        b1, b2 = super().bounds()
        return b1, b2 / self.scale


class DualIMQKernel(Kernel):
    """Inverse multiquadric composed with the mirror chart:
    k(theta, theta') = (c^2 + ||grad_psi(theta) - grad_psi(theta')||^2)^beta.

    Its chart is grad_psi, the dual coordinate itself, so its chart-to-dual
    Jacobian is the identity and no mirror Hessian is evaluated.  In the dual
    coordinates this kernel is translation invariant, so bounds() reports the
    dual-chart constants (where the kernel actually enters the dual-space
    analysis); the raw primal cross derivative is unbounded near the domain
    boundary for maps with unbounded curvature.
    """

    def __init__(self, mirror_map, c=1.0, beta=-0.5):
        self.map = mirror_map
        self.profile = IMQKernel(c=c, beta=beta)

    def chart(self, points):
        return self.map.grad_psi(points)

    def dual_jacobian(self, hinv):
        return np.broadcast_to(np.eye(hinv.shape[-1]), hinv.shape)


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
# An operator over points theta (n, d) with chart coordinates x_i applies
# the kernel matrices K[i, j] = k(theta_i, theta_j), K1 = grad1 k and
# K12 = grad12 k (d^2 k / dx_i dx'_j), both in chart slots, to per-point
# values q (n, d) and u (n, d, d):
#
#   vals[j]        = sum_i K[i, j] q[i] + sum_{i,e} K1[i, j, e] u[i, :, e]
#   dvals[j, :, c] = sum_i K1[j, i, c] q[i] + sum_{i,e} K12[i, j, e, c] u[i, :, e]
#
# dvals is the derivative of vals in the evaluation slot x_j.  A consumer in
# the dual chart passes u = (its dual-slot values) G and reads dvals G, with
# G = Kernel.dual_jacobian per point.  apply(q, None) skips the u terms.


def kernel_operator(kernel, points):
    """The operator over ``points`` (n, d): the kernel's profile applied in
    its chart.  It builds each tile of at most streamed_tile_rows() rows
    inside every product and releases it before the next, which suits an
    operator applied once, as the particle snapshot's is."""
    return _RadialOperator(kernel.profile, kernel.chart(points), streamed_tile_rows())


def cached_kernel_operator(kernel, points, grid):
    """The operator a grid flow applies at every state over ``points``, the
    primal images of ``grid``'s nodes: the lattice operator when the points
    are the nodes themselves (the euclidean map, under which every chart
    here is affine: dual-imq's grad_psi is the identity), else the
    point-set operator over tiles of at most TILE_ROWS rows, kept when
    they fit."""
    if np.array_equal(points, grid.nodes):
        return _LatticeOperator(kernel, grid)
    return _RadialOperator(kernel.profile, kernel.chart(points), TILE_ROWS).cache_tiles()


def _cached_tile_bytes(n: int) -> int:
    """Bytes of the two stored factors' upper tiles over the grid operator's
    TILE_ROWS row ranges of n points: (n^2 + the sum of the squared range
    sizes) / 2 entries each."""
    k = _range_count(n, TILE_ROWS)
    q, longer = divmod(n, k)  # ranges of q rows, and ``longer`` of q + 1
    squares = (k - longer) * q * q + longer * (q + 1) ** 2
    return 8 * (n * n + squares)


def operator_bytes(n: int, d: int) -> int:
    """About the most bytes that an apply of kernel_operator over n points
    in d dimensions holds at once, the sum of:
    - the tile it builds: two r x r arrays, r <= streamed_tile_rows() (the
      squared distances and their spare, then F' and F''; each tile goes
      before the next is built), and numpy's two 8192-entry buffers for
      _sq_dists' broadcast subtraction of strided columns;
    - one tile's product with the wider factor's features, (d^3 + 2 d^2 + d, r);
    - the one feature stack, d^3 + 3 d^2 + 3 d rows per point, and the two
      factors' accumulators, d^3 + 4 d^2 + 4 d rows per point, since both
      factors multiply u and w = u x."""
    rows = _largest_range(n, streamed_tile_rows())
    wide = d**3 + 2 * d * d + d
    return 8 * (2 * rows * rows + 2 * 8192 + rows * wide + n * (2 * d**3 + 7 * d * d + 7 * d))


def particle_bytes(kernel, n: int, d: int) -> int:
    """About the most bytes of kernel blocks that a particle run over n
    points in d dimensions holds at once, the largest of:
    - the field's largest block, of r <= field_rows(n, d) rows: its
      (n, r, d) gradient and its (r, n) factor f' (f goes before the
      gradient is built), about STREAM_BYTES;
    - the Stein-Fisher snapshot's operator, which streams its tiles, each
      about STREAM_BYTES (operator_bytes);
    - an adaptive kernel's refresh: the (n, n) squared distances and the
      spare (n, n) array they are summed with."""
    rows = _largest_range(n, field_rows(n, d))
    refresh = 16 * n * n if kernel.adaptive else 0
    return max(8 * n * rows * (d + 1), operator_bytes(n, d), refresh)


class _RadialOperator:
    """The products for k(a, b) = f(||x_a - x_b||^2) over chart coordinates
    x (n, d) (see Kernel.chart).

    With D = x_i - x_j and F, F', F'' the symmetric n x n matrices of f,
    f', f'' at t_ij = ||D||^2:

        K = F,   K1[i, j] = 2 F'_ij D,
        K12[i, j] = -(4 F''_ij D D^T + 2 F'_ij I).

    Splitting D into x_i and x_j turns every sum into one factor times
    per-point features (q, q x^T, w = u x, u, w x^T, u x^T) and point-wise
    products with x_j.  Each factor multiplies all its features in one
    matrix product per tile.  apply writes each feature once, into one
    C-ordered (w, n) stack laid out q, q x^T, A q, w, u, w x^T, u x^T: F'
    reads its first five groups (3 d + 2 d^2 rows), F'' its last four (from
    row 2 d + d^2 on), and apply(q, None) builds the first three alone.
    The sums are translation invariant, so x is centred first, which keeps
    the cancellation between the split terms small.

    F itself is never stored.  Every profile has f(t) = (a + b t) f'(t)
    (imq: a = c^2 / beta, b = 1 / beta; rbf: a = -2 h^2, b = 0), and
    t_ij = |x_i|^2 + |x_j|^2 - 2 x_i.x_j, so with A_i = a + b |x_i|^2

        (F q)_j = (F' (A q))_j + b |x_j|^2 (F' q)_j - 2 b x_j.(F' (q x^T))_j
                  + f(0) q_j,

    where F' has a zero diagonal, as stored.  F' q and F' (q x^T) are
    products apply takes anyway, so the sum of F costs one more feature
    (A q) in the product with F'.  (a, b), f(0) and f'(0), for K12's
    identity term, are read once per operator, so a later median-bandwidth
    refresh cannot pull them apart.

    The points split into k = ceil(n / rows) near-equal row ranges, rows
    being the constructor's: streamed_tile_rows() for the snapshot's
    operator, TILE_ROWS for the grid flow's.  Since the factors are
    symmetric only their upper tiles (i <= j) are built: tile (i, j) adds
    its transpose times range i's features to range j's products and, off
    the diagonal, itself times range j's features to range i's.  Both
    products run features-first on the stack's two row ranges, each into
    its own (w, n) accumulator (see _products).  The profile builds a
    tile's F' and F'' in one pass from one transcendental, in the squared
    distances' buffer and one more (_factors).  The tiles are built inside each product's
    loop, one at a time, unless cache_tiles stored them; both ways run the
    same loop on the same tiles, so they give the same bits.
    """

    def __init__(self, profile, x, rows: int):
        self.profile = profile
        x = np.asarray(x, dtype=float)
        self._x = x - np.mean(x, axis=0)
        self._f0, self._fp0 = (float(v[0]) for v in profile._derivatives(np.zeros(1), 1))
        a, self._b = profile._affine_ratio()
        self._sq_norms = np.einsum("nd,nd->n", self._x, self._x)
        self._affine = a + self._b * self._sq_norms
        self._ranges = row_ranges(x.shape[0], rows)
        k = len(self._ranges)
        self._pairs = [(i, j) for i in range(k) for j in range(i, k)]
        self._tiles = None

    def cache_tiles(self):
        """The operator, its tiles built once and kept if they fit in PRECOMPUTE_BYTES."""
        if _cached_tile_bytes(self._x.shape[0]) <= PRECOMPUTE_BYTES:
            self._tiles = [self._tile(i, j) for i, j in self._pairs]
        return self

    def _tile(self, i: int, j: int) -> tuple:
        """F' and F'' between the points of row ranges i and j.  The squared
        distances are summed coordinate by coordinate with one spare tile,
        and the profile builds the two factors in their buffer and one
        more, so the build holds two tiles at a time."""
        factors = self.profile._factors(
            _sq_dists(self._x[self._ranges[i]], self._x[self._ranges[j]]))
        # D vanishes on the diagonal, so F' and F'' enter the split sums only
        # off it (the identity term of K12 and f(0) q add the diagonal back
        # in apply); zeros there spare the split terms their largest
        # cancellation
        if i == j:
            for factor in factors:
                np.fill_diagonal(factor, 0.0)
        return factors

    def _products(self, *stacks) -> list:
        """features @ factor_k, (w_k, n), for the feature rows stacks[k],
        with factors F' and F'' in that order; one matrix product per factor
        and tile side.  apply passes two overlapping row ranges of its one
        (w, n) stack.

        Each factor keeps one (w_k, n) accumulator.  Every product is
        features-first: tile (i, j) adds features[:, i] @ tile to range j's
        columns and, off the diagonal, features[:, j] @ tile^T to range
        i's.  These are the sums of tile^T @ features[i], transposed; taken
        that way, as a transposed-A product with only w = 2 to 18 output
        columns, they ran 1.3 to 1.4 times slower on the 48 x 48 grid's
        four ranges (1.5 times with one BLAS thread).  Every range's first
        term comes from tile (0, j), so it is assigned and the rest are
        added in a fixed order."""
        out = [np.empty_like(features) for features in stacks]
        for index, (i, j) in enumerate(self._pairs):
            rows, cols = self._ranges[i], self._ranges[j]
            tile = self._tiles[index] if self._tiles is not None else self._tile(i, j)
            for factor, features, result in zip(tile, stacks, out):
                if i == 0:
                    result[:, cols] = features[:, rows] @ factor
                else:
                    result[:, cols] += features[:, rows] @ factor
                if i != j:
                    result[:, rows] += features[:, cols] @ factor.T
            # a streamed tile goes before the next one is built
            del tile, factor
        return out

    def apply(self, q: np.ndarray, u: np.ndarray | None) -> tuple:
        x = self._x
        n, d = x.shape
        groups = [(d,), (d, d), (d,)] + ([(d,), (d, d), (d, d), (d, d, d)] if u is not None else [])
        stack = np.empty((sum(map(math.prod, groups)), n))
        features = _rows(stack, groups)
        features[0][...] = q
        np.multiply(q[:, :, None], x[:, None, :], out=features[1])
        np.multiply(self._affine[:, None], q, out=features[2])
        stacks = [stack]
        if u is not None:
            w, u_f, w_x, u_x = features[3:]
            w[...] = np.einsum("ide,ie->id", u, x)
            u_f[...] = u
            np.multiply(w[:, :, None], x[:, None, :], out=w_x)
            np.multiply(u[:, :, :, None], x[:, None, None, :], out=u_x)
            stacks = [stack[:3 * d + 2 * d * d], stack[2 * d + d * d:]]
        products = self._products(*stacks)
        Fpq, Fpqx, Fpaq, *Fpu = _rows(products[0], groups[:5])
        if u is not None:
            Fpw, Fpu = Fpu
            Fppw, Fppu, Fppwx, Fppux = _rows(products[1], groups[3:])
        vals = (Fpaq + self._b * (self._sq_norms[:, None] * Fpq
                                  - 2.0 * np.einsum("jdc,jc->jd", Fpqx, x))
                + self._f0 * q)
        dvals = 2.0 * (Fpq[:, :, None] * x[:, None, :] - Fpqx)
        if u is not None:
            vals = vals + 2.0 * (Fpw - np.einsum("jde,je->jd", Fpu, x))
            Fppu_x = np.einsum("jde,je->jd", Fppu, x)
            dd = (Fppwx - np.einsum("jdec,je->jdc", Fppux, x)
                  + (Fppu_x - Fppw)[:, :, None] * x[:, None, :])
            dvals = dvals - (2.0 * (Fpu + self._fp0 * u) + 4.0 * dd)
        return vals, dvals


def _lag_samples(kernel, grid) -> tuple:
    """K, K1 and K12 of Kernel's docstring between the zero lag and each of
    the (2 n - 1)^d lags between ``grid``'s nodes, shaped over the lag
    lattice, for an affine chart: one chart evaluation, one _sq_dists and one
    _derivatives pass give all three."""
    # the spacing as linspace computes it, not a[1] - a[0], which loses the
    # digits of a[0]
    axes = [np.arange(1 - a.size, a.size) * ((a[-1] - a[0]) / (a.size - 1)) for a in grid.axes]
    x = kernel.chart(np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1))
    origin = x[x.shape[0] // 2][None]  # the zero lag, in the middle of the lattice
    f, fp, fpp = kernel.profile._derivatives(_sq_dists(x, origin)[:, 0], 2)
    diff = x - origin
    fp *= 2.0
    fpp *= -4.0
    k1 = fp[:, None] * diff
    k12 = fpp[:, None, None] * (diff[:, :, None] * diff[:, None, :])
    k12 -= fp[:, None, None] * np.eye(grid.dim)
    shape = tuple(a.size for a in axes)
    return f.reshape(shape), k1.reshape(shape + (-1,)), k12.reshape(shape + (grid.dim, -1))


class _LatticeOperator:
    """The products for a kernel over a grid's own nodes, where its chart
    is affine, so entry (i, j) of each kernel matrix depends only on the lag
    between nodes i and j: linear convolutions of node values with the
    kernel sampled at the 2n - 1 lags of every axis (_lag_samples), applied
    by zero-padded FFTs over the grid's shape, with no node-by-node array."""

    def __init__(self, kernel, grid):
        self._shape = grid.shape
        self._axes = tuple(range(grid.dim))
        # a linear convolution of n values with 2n - 1 lags needs 2n - 1 points
        self._fft_shape = tuple(1 << (2 * n - 2).bit_length() for n in self._shape)
        self._window = tuple(slice(n - 1, 2 * n - 1) for n in self._shape)
        k, k1, k12 = _lag_samples(kernel, grid)
        # K[i, j] = k(theta_i - theta_j, 0) sits at lag -(j - i): the products
        # that sum over the first slot convolve with the reflected samples
        flip = (slice(None, None, -1),) * grid.dim
        self._K = self._spectrum(k[flip])
        self._K1 = self._spectrum(k1[flip])
        self._K1rev = self._spectrum(k1)
        self._K12 = self._spectrum(k12[flip])

    def _spectrum(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(values, s=self._fft_shape, axes=self._axes)

    def _convolved(self, spectrum: np.ndarray) -> np.ndarray:
        full = np.fft.irfftn(spectrum, s=self._fft_shape, axes=self._axes)
        return full[self._window]

    def apply(self, q: np.ndarray, u: np.ndarray | None) -> tuple:
        size, d = q.shape
        lattice = self._shape
        # q and u go through one forward transform as the columns of one
        # stack, and V and DV come back through one inverse as another
        operands = np.empty(lattice + (d if u is None else d + d * d,))
        operands[..., :d] = q.reshape(lattice + (d,))
        if u is not None:
            operands[..., d:] = u.reshape(lattice + (d * d,))
        spectra = self._spectrum(operands)
        products = np.empty(spectra.shape[:-1] + (d + d * d,), dtype=spectra.dtype)
        square = spectra.shape[:-1] + (d, d)
        Q, V = spectra[..., :d], products[..., :d]
        DV = np.reshape(products[..., d:], square, copy=False)
        np.multiply(self._K[..., None], Q, out=V)
        np.multiply(Q[..., :, None], self._K1rev[..., None, :], out=DV)
        if u is not None:
            U = np.reshape(spectra[..., d:], square, copy=False)
            V += np.einsum("...e,...de->...d", self._K1, U)
            DV += np.einsum("...ec,...de->...dc", self._K12, U)
        full = self._convolved(products)
        return full[..., :d].reshape(size, d), full[..., d:].reshape(size, d, d)
