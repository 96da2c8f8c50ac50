"""Kernel derivative and bound certification against finite differences,
and the kernel operators against explicit gram blocks.

Every kernel is a radial profile read through a chart, and its gram blocks
are written once for all of them, in chart slots, so the finite-difference
oracles certify the one formula through each chart, with the chart's
Jacobian applied here: the identity (imq, rbf), a scale (rescaled) and the
mirror map's grad_psi (dual-imq)."""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvgd import kernels
from msvgd.errors import ConfigError, NumericsError
from msvgd.kernels import (
    DualIMQKernel,
    IMQKernel,
    RBFKernel,
    RescaledKernel,
    make_kernel,
)
from msvgd.mirrors import EntropicBoxMap, EntropicSimplexMap, EuclideanMap
from msvgd.quadrature import Grid

from conftest import (
    DenseKernelOperator,
    chart_jacobian,
    fd_gradient,
    fd_mixed_second,
    gram,
    gram_blocks,
    grad1_gram,
    grad12_gram,
    primal_grad1_gram,
    rel_err,
    sample_box_interior,
    sample_simplex_interior,
)


def _pair(op, a, b):
    """Entry [0, 0] of a batched kernel op on the 1-row batches a and b."""
    return op(np.asarray(a, float)[None, :], np.asarray(b, float)[None, :])[0, 0]


def _value(k, a, b):
    return float(_pair(functools.partial(gram, k), a, b))


def _euclidean_kernels():
    return [
        IMQKernel(c=1.0, beta=-0.5),
        IMQKernel(c=2.0, beta=-0.7),
        RBFKernel(bandwidth=1.0),
        RBFKernel(bandwidth=0.4),
        RescaledKernel(IMQKernel(c=1.0, beta=-0.5), scale=3.0),
        RescaledKernel(RBFKernel(bandwidth=1.0), scale=2.0),
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grad1_matches_fd(rng, d):
    for k in _euclidean_kernels():
        for _ in range(6):
            a, b = rng.normal(size=d), rng.normal(size=d)
            g = _pair(functools.partial(primal_grad1_gram, k), a, b)
            g_fd = fd_gradient(lambda z: _value(k, z, b), a, h=1e-5)
            assert np.max(np.abs(g - g_fd)) < 1e-6 * max(1.0, np.max(np.abs(g)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grad12_matches_fd(rng, d):
    for k in _euclidean_kernels():
        for _ in range(4):
            a, b = rng.normal(size=d), rng.normal(size=d)
            m = _pair(functools.partial(grad12_gram, k), a, b)
            m_fd = fd_mixed_second(lambda x, y: _value(k, x, y), a, b, h=1e-4)
            assert np.max(np.abs(m - m_fd)) < 2e-5 * max(1.0, np.max(np.abs(m)))


def test_dual_imq_grads_match_fd(rng):
    for d in [1, 2]:
        mp = EntropicSimplexMap(d)
        k = DualIMQKernel(mp, c=1.0, beta=-0.5)
        pts = sample_simplex_interior(rng, 8, d, margin=0.05)
        for i in range(0, 8, 2):
            a, b = pts[i], pts[i + 1]
            g_fd = fd_gradient(lambda z: _value(k, z, b), a, h=1e-6)
            assert rel_err(g_fd, _pair(functools.partial(primal_grad1_gram, k), a, b),
                           floor=1e-6) < 1e-5
            m_fd = fd_mixed_second(lambda x, y: _value(k, x, y), a, b, h=1e-5)
            assert rel_err(m_fd, _pair(functools.partial(grad12_gram, k), a, b),
                           floor=1e-5) < 1e-4


def test_imq_frozen_values():
    k = IMQKernel(c=1.0, beta=-0.5)
    assert abs(_value(k, np.zeros(2), np.zeros(2)) - 1.0) < 1e-15
    a, b = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert abs(_value(k, a, b) - 2.0**-0.5) < 1e-15
    g = _pair(functools.partial(grad1_gram, k), a, b)
    assert abs(g[0] - (-(2.0**-1.5))) < 1e-15
    assert abs(g[1]) < 1e-15


def test_rbf_frozen_values():
    k = RBFKernel(bandwidth=1.0)
    a, b = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert abs(_value(k, a, b) - np.exp(-0.5)) < 1e-15
    g = _pair(functools.partial(grad1_gram, k), a, b)
    assert abs(g[0] - (-np.exp(-0.5))) < 1e-15
    assert abs(g[1]) < 1e-15


def test_bounds_values():
    # f(0) = 1 and -2 f'(0) = 1 exactly for imq with c = 1, beta = -0.5
    assert IMQKernel(c=1.0, beta=-0.5).bounds() == (1.0, 1.0)
    for c, beta in [(0.5, -0.3), (2.0, -0.7), (10.0, -0.95)]:
        k = IMQKernel(c=c, beta=beta)
        f0, fp0 = (float(v[0]) for v in k._derivatives(np.zeros(1), 1))
        assert k.bounds() == (np.sqrt(f0), np.sqrt(-2.0 * fp0))
        assert rel_err(k.bounds()[1], np.sqrt(-2.0 * beta * c ** (2.0 * beta - 2.0))) < 1e-15

    for h in [0.5, 1.0, 2.0]:
        b1, b2 = RBFKernel(bandwidth=h).bounds()
        assert b1 == 1.0
        assert abs(b2 - 1.0 / h) < 1e-12

    for scale in [2.0, 4.0]:
        b1, b2 = RescaledKernel(RBFKernel(bandwidth=1.0), scale).bounds()
        assert b1 == 1.0
        assert abs(b2 - 1.0 / scale) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["imq", "rbf"]),
    width=st.floats(1e-2, 1e2),
    beta=st.floats(-1.0, -1e-6, exclude_min=True),
)
def test_cross_derivative_peaks_at_coincidence(kind, width, beta):
    # K12 between 0 and sqrt(t) e_1 is diagonal: -2 f'(t) - 4 t f''(t)
    # along D and -2 f'(t) across it; neither exceeds b2^2 = -2 f'(0) in
    # size, and t = 0 attains it
    k = IMQKernel(c=width, beta=beta) if kind == "imq" else RBFKernel(bandwidth=width)
    t = np.concatenate([[0.0], np.logspace(-8, 4, 400), np.linspace(0.0, 1e4, 400)[1:]])
    y = np.zeros((t.size, 2))
    y[:, 0] = np.sqrt(t)
    eig = np.linalg.eigvalsh(grad12_gram(k, np.zeros((1, 2)), y)[0])
    b2sq = k.bounds()[1] ** 2
    assert np.max(np.abs(eig)) <= b2sq * (1.0 + 1e-15)
    assert rel_err(np.max(np.abs(eig[0])), b2sq) <= 1e-15


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bounds_certified_empirically(rng, d):
    # sup k(t, t) <= b1^2 and cross second derivative <= b2^2 over a sample
    # cloud; the dual-imq is certified in the chart where it is radial.
    for k in _euclidean_kernels():
        b1, b2 = k.bounds()
        pts = rng.normal(scale=3.0, size=(200, d))
        diag = np.array([_value(k, p, p) for p in pts])
        assert np.max(diag) <= b1**2 * (1 + 1e-12)
        for i in range(10):
            m = fd_mixed_second(lambda x, y: _value(k, x, y), pts[i],
                                pts[i] + rng.normal(scale=0.5, size=d), h=1e-4)
            assert np.max(np.abs(np.linalg.eigvalsh(0.5 * (m + m.T)))) <= (
                b2**2 * (1 + 1e-3)
            )


def test_dual_imq_bounds_certified_in_dual_chart(rng):
    d = 2
    mp = EntropicSimplexMap(d)
    k = DualIMQKernel(mp, c=1.0, beta=-0.5)
    b1, b2 = k.bounds()
    xs = rng.normal(scale=3.0, size=(50, d))
    thetas = mp.grad_psi_star(xs)
    diag = np.array([_value(k, t, t) for t in thetas])
    assert np.max(diag) <= b1**2 * (1 + 1e-12)

    def k_dual(x, y):
        return _value(k, mp.grad_psi_star(x[None])[0], mp.grad_psi_star(y[None])[0])

    for i in range(6):
        m = fd_mixed_second(k_dual, xs[i], xs[i] + rng.normal(scale=0.5, size=d),
                            h=1e-4)
        assert np.max(np.abs(np.linalg.eigvalsh(0.5 * (m + m.T)))) <= (
            b2**2 * (1 + 1e-3)
        )


def test_dual_imq_chart_identity(rng):
    # evaluating through the mirror chart equals the radial form on the duals
    for d in [1, 2, 3]:
        mp = EntropicSimplexMap(d)
        k = DualIMQKernel(mp, c=1.5, beta=-0.6)
        x = rng.normal(scale=2.0, size=(20, d))
        y = rng.normal(scale=2.0, size=(20, d))
        via_map = gram(k, mp.grad_psi_star(x), mp.grad_psi_star(y))
        direct = (1.5**2 + np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)) ** -0.6
        assert np.max(np.abs(via_map - direct)) < 1e-12


def test_dual_imq_evaluates_no_mirror_hessian(rng, monkeypatch):
    # its chart is the dual coordinate, so its chart-to-dual Jacobian is the
    # identity and no kernel sum needs hess_psi
    mirror_map = EntropicSimplexMap(2)

    def refuse(theta):
        raise AssertionError("hess_psi evaluated")

    monkeypatch.setattr(mirror_map, "hess_psi", refuse)
    kernel = DualIMQKernel(mirror_map)
    theta = sample_simplex_interior(rng, 12, 2, margin=1e-3)
    hinv = mirror_map.hess_psi_inv(theta)
    jac = kernel.dual_jacobian(hinv)
    assert jac.shape == hinv.shape and np.array_equal(jac, np.broadcast_to(np.eye(2), jac.shape))
    x = kernel.chart(theta)
    rows = slice(0, 12)
    kernels.field_gradient(x, rows, kernels.field_factors(kernel.profile, x, rows)[1])
    kernels.kernel_operator(kernel, theta).apply(theta, jac)


def test_symmetry_and_grad2(rng):
    d = 3
    for k in _euclidean_kernels():
        a, b = rng.normal(size=d), rng.normal(size=d)
        assert _value(k, a, b) == pytest.approx(_value(k, b, a), abs=1e-15)
        # the second-slot gradient, grad1 with the slots swapped, is minus the
        # first-slot one for these translation-invariant kernels
        grad1 = functools.partial(grad1_gram, k)
        assert np.allclose(_pair(grad1, b, a), -_pair(grad1, a, b), atol=0)


def test_gram_psd(rng):
    for k in _euclidean_kernels():
        pts = rng.normal(size=(64, 3))
        block = gram(k, pts, pts)
        assert np.min(np.linalg.eigvalsh(0.5 * (block + block.T))) >= -1e-8


def test_median_heuristic_formula(rng):
    X = rng.normal(size=(40, 2))
    k = RBFKernel(bandwidth="median")
    with pytest.raises(ConfigError):
        _ = k.bandwidth
    h = k.update_bandwidth(X)
    sq = []
    for i in range(40):
        for j in range(i + 1, 40):
            sq.append(np.sum((X[i] - X[j]) ** 2))
    expected = np.sqrt(np.median(sq) / (2.0 * np.log(41.0)))
    assert abs(h - expected) < 1e-12
    assert k.adaptive


def test_median_refresh_refuses_a_collapsed_cloud():
    # five equal points: the median squared distance is 0, so h = 0 and
    # 2 h^2 and 4 h^4 are 0; the refresh refuses it by the same float64 range
    # test as construction, and no kernel sum divides by it
    k = RBFKernel(bandwidth="median")
    points = np.full((5, 2), 0.3)
    with pytest.raises(NumericsError, match="cloud of 5 points has collapsed"):
        k.update_bandwidth(points)
    with pytest.raises(ConfigError, match="not initialized"):
        kernels.kernel_operator(k, points).apply(points, None)
    # a tight cloud whose bandwidth float64 still holds is kept
    h = k.update_bandwidth(1e-60 * np.arange(10.0).reshape(5, 2))
    assert 0.0 < h < 1e-59
    kernels.kernel_operator(k, points).apply(points, None)


def test_rescaled_is_inner_on_scaled_points(rng):
    inner = IMQKernel(c=1.0, beta=-0.5)
    k = RescaledKernel(inner, scale=5.0)
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert _value(k, a, b) == pytest.approx(_value(inner, a / 5.0, b / 5.0), abs=1e-15)


def test_parameter_validation():
    with pytest.raises(ConfigError):
        IMQKernel(c=0.0, beta=-0.5)
    with pytest.raises(ConfigError):
        IMQKernel(c=1.0, beta=-1.0)
    with pytest.raises(ConfigError):
        IMQKernel(c=1.0, beta=0.0)
    with pytest.raises(ConfigError):
        RBFKernel(bandwidth=0.0)
    # constants or f, f', f'' at 0 that float64 cannot hold: c^2 or h^2
    # overflows or is 0, 4 h^4 overflows, or f''(0) of imq at c = 1e-100
    builds = {"c": [lambda v: IMQKernel(c=v), lambda v: RescaledKernel(IMQKernel(c=v), 2.0),
                    lambda v: DualIMQKernel(EntropicSimplexMap(2), c=v)],
              "bandwidth": [lambda v: RBFKernel(bandwidth=v)]}
    for key, values in [("c", (1e155, 1e-170, 1e-100)), ("bandwidth", (1e160, 1e100, 1e-170))]:
        for build in builds[key]:
            for value in values:
                message = re.escape(f"'{key}' = {value!r} is out of float64's range")
                with pytest.raises(ConfigError, match=message):
                    build(value)
    with pytest.raises(ConfigError):
        make_kernel("matern")
    with pytest.raises(ConfigError):
        make_kernel("dual-imq")
    for inner in ("dual-imq", "rescaled"):
        with pytest.raises(ConfigError, match="'kernel_params.inner'"):
            make_kernel("rescaled", {"inner": inner, "scale": 2.0},
                        mirror_map=EntropicSimplexMap(2))


def test_make_kernel_registry():
    assert isinstance(make_kernel("imq", {"c": 2.0, "beta": -0.4}), IMQKernel)
    assert isinstance(make_kernel("rbf", {"bandwidth": "median"}), RBFKernel)
    k = make_kernel("rescaled", {"inner": "rbf", "scale": 2.0,
                                 "inner_params": {"bandwidth": 1.0}})
    assert isinstance(k, RescaledKernel)
    mp = EntropicSimplexMap(2)
    assert isinstance(make_kernel("dual-imq", {"c": 1.0, "beta": -0.5},
                                  mirror_map=mp), DualIMQKernel)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_psd_property(seed):
    gen = np.random.default_rng(seed)
    k = IMQKernel(c=float(gen.uniform(0.5, 3.0)), beta=float(gen.uniform(-0.9, -0.1)))
    pts = gen.normal(size=(int(gen.integers(2, 32)), int(gen.integers(1, 4))))
    block = gram(k, pts, pts)
    assert np.max(np.abs(block - block.T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(0.5 * (block + block.T))) >= -1e-8


# ---------------------------------------------------------------------------
# the particle field's blocks


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [10, 11], ids=["on-block-edge", "past-block-edge"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("map_name", ["simplex", "box", "euclidean"])
@pytest.mark.parametrize("kernel_name", ["imq", "rbf", "rbf-median", "rescaled", "dual-imq"])
def test_field_blocks_equal_the_gram_oracles(rng, monkeypatch, kernel_name, map_name, d, n):
    mirror_map, theta = _interior_cloud(rng, map_name, n, d)
    kernel = {"imq": lambda: IMQKernel(c=0.8), "rbf": lambda: RBFKernel(bandwidth=0.7),
              "rbf-median": lambda: RBFKernel(bandwidth="median"),
              "rescaled": lambda: RescaledKernel(IMQKernel(), 1.5),
              "dual-imq": lambda: DualIMQKernel(mirror_map)}[kernel_name]()
    if kernel.adaptive:
        kernel.update_bandwidth(theta)
    # a budget of five rows per block: two blocks at n = 10, three at n = 11
    monkeypatch.setattr(kernels, "STREAM_BYTES", 8 * n * (d + 1) * 5)
    ranges = kernels.row_ranges(n, kernels.field_rows(n, d))
    assert [r.stop - r.start for r in ranges] == ([5, 5] if n == 10 else [3, 4, 4])
    x = kernel.chart(theta)
    for rows in ranges:
        f, fp = kernels.field_factors(kernel.profile, x, rows)
        assert _same_bits(f, gram(kernel, theta[rows], theta))
        assert _same_bits(kernels.field_gradient(x, rows, fp),
                          grad1_gram(kernel, theta, theta[rows]))


def test_field_rows_fill_the_block_budget():
    # one block for particles-simplex's 200 points in 2-D; 32 rows at
    # n = 1000 in 3-D, split into 32 near-equal blocks of 31 or 32
    assert kernels.field_rows(200, 2) >= 200
    assert kernels.field_rows(1000, 3) == 32
    assert sorted({r.stop - r.start for r in kernels.row_ranges(1000, 32)}) == [31, 32]
    assert len(kernels.row_ranges(1000, 32)) == 32
    for n, d in ((200, 2), (1000, 3), (4000, 3), (10**7, 1)):
        rows = kernels.field_rows(n, d)
        assert 8 * n * rows * (d + 1) <= kernels.STREAM_BYTES or rows == 1


def test_snapshot_tiles_fill_the_stream_budget():
    # the snapshot operator's two r x r factors fit the field's budget: 256
    # rows at 1 MiB, so one tile for particles-simplex's 200 points and
    # four ranges of 250 for 1000; the grid flow's operator keeps TILE_ROWS
    assert kernels.streamed_tile_rows() == 256
    assert 16 * 256**2 <= kernels.STREAM_BYTES < 16 * 257**2
    theta = np.zeros((1000, 3))
    ranges = kernels.kernel_operator(IMQKernel(), theta)._ranges
    assert [r.stop - r.start for r in ranges] == [250] * 4
    assert len(kernels.kernel_operator(IMQKernel(), theta[:200])._ranges) == 1
    grid = Grid((np.linspace(-1.0, 1.0, 40), np.linspace(-1.0, 1.0, 25)))
    cached = kernels.cached_kernel_operator(IMQKernel(), grid.nodes + 0.5, grid)
    assert [r.stop - r.start for r in cached._ranges] == [500, 500]


# ---------------------------------------------------------------------------
# the kernel operator


def _interior_cloud(gen, map_name, n, d):
    """A mirror map and a point cloud inside its domain."""
    if map_name == "euclidean":
        return EuclideanMap(d), gen.standard_normal((n, d))
    if map_name == "simplex":
        return EntropicSimplexMap(d), sample_simplex_interior(gen, n, d, margin=1e-3)
    lo, hi = -np.ones(d), np.linspace(1.0, 2.0, d)
    return EntropicBoxMap(lo, hi), sample_box_interior(gen, n, lo, hi)


def _operator_inputs(gen, map_name, n, d):
    """Mirror map, point cloud and weighted operands shaped like g_field's:
    q a weighted operand, u the weighted inverse Hessians of the map."""
    mirror_map, theta = _interior_cloud(gen, map_name, n, d)
    hinv = np.asarray(mirror_map.hess_psi_inv(theta), dtype=float)
    weights = gen.uniform(0.1, 1.0, size=n)
    q = weights[:, None] * gen.standard_normal((n, d))
    return mirror_map, theta, q, weights[:, None, None] * hinv


def _primal_apply(operator, kernel, theta, q, u):
    """The chart-slot operator's sums in the primal slots of the dense
    oracle: apply(q, u J), then dvals J, with the chart's J per point."""
    jac = chart_jacobian(kernel, theta)
    vals, dvals = operator.apply(q, None if u is None else np.einsum("nde,nef->ndf", u, jac))
    return vals, np.einsum("nde,nef->ndf", dvals, jac)


def _assert_products_close(got, want, rel=1e-13):
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    map_name=st.sampled_from(["euclidean", "simplex", "box"]),
    kernel_name=st.sampled_from(["imq", "rbf", "rescaled-imq", "dual-imq"]),
    d=st.integers(1, 3),
    n=st.integers(1, 40),
    width=st.floats(0.5, 3.0),
)
def test_radial_operator_matches_dense_blocks(seed, map_name, kernel_name, d, n, width):
    gen = np.random.default_rng(seed)
    mirror_map, theta, q, u = _operator_inputs(gen, map_name, n, d)
    kernel = {"imq": IMQKernel(c=width), "rbf": RBFKernel(bandwidth=width),
              "rescaled-imq": RescaledKernel(IMQKernel(), width),
              "dual-imq": DualIMQKernel(mirror_map, c=width)}[kernel_name]
    # dual-imq's chart spreads the cloud to log coordinates, and its Jacobian
    # scales each point's products by up to the map's curvature there.  Over
    # 9000 such random clouds its products were within 2.2e-13 of the maxima
    # at worst; double-precision gram blocks were within 1.2e-12.
    rel = 1e-12 if kernel_name == "dual-imq" else 1e-13
    radial = kernels.kernel_operator(kernel, theta)
    assert isinstance(radial, kernels._RadialOperator)
    dense = DenseKernelOperator(kernel, theta)
    for uu in (None, u):
        _assert_products_close(_primal_apply(radial, kernel, theta, q, uu), dense.apply(q, uu),
                               rel)


def _assert_products_equal(got, want):
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_streaming_matches_precomputed(rng, monkeypatch, d):
    _, theta, q, u = _operator_inputs(rng, "simplex", 37, d)
    kernel = RescaledKernel(IMQKernel(), 1.5)
    single = kernels.kernel_operator(kernel, theta)
    assert len(single._ranges) == 1
    # a budget of seven rows per tile, two 7 x 7 factors: six ranges of 6 or
    # 7 rows, 21 upper tiles
    monkeypatch.setattr(kernels, "STREAM_BYTES", 16 * 7 * 7)
    cached = kernels.kernel_operator(kernel, theta).cache_tiles()
    assert cached._tiles is not None
    assert [r.stop - r.start for r in cached._ranges] == [6, 6, 6, 6, 6, 7]
    streaming = kernels.kernel_operator(kernel, theta)
    assert streaming._tiles is None
    for uu in (None, u):
        # both ways run one loop over the same tiles
        _assert_products_equal(streaming.apply(q, uu), cached.apply(q, uu))
        _assert_products_close(streaming.apply(q, uu), single.apply(q, uu))


def _row_major_products(operator, *stacks):
    """The oracle for _RadialOperator._products: the same tile loop taken
    point-major, on the (n, w) transposes of the feature stacks,
    tile^T @ features[i] into range j's rows and, off the diagonal,
    tile @ features[j] into range i's, in the same tile order."""
    stacked = [np.ascontiguousarray(features.T) for features in stacks]
    out = [np.empty_like(features) for features in stacked]
    for index, (i, j) in enumerate(operator._pairs):
        rows, cols = operator._ranges[i], operator._ranges[j]
        tile = operator._tiles[index] if operator._tiles is not None else operator._tile(i, j)
        for factor, features, result in zip(tile, stacked, out):
            if i == 0:
                result[cols] = factor.T @ features[rows]
            else:
                result[cols] += factor.T @ features[rows]
            if i != j:
                result[rows] += factor @ features[cols]
    return out


@pytest.mark.parametrize("tile_rows, ranges", [(40, 1), (20, 2), (10, 4)])
@pytest.mark.parametrize("cached", [True, False], ids=["cached", "streamed"])
def test_feature_major_products_match_the_row_major_loop(rng, monkeypatch, tile_rows, ranges,
                                                         cached):
    n = 40
    mirror_map, theta, q, _ = _operator_inputs(rng, "simplex", n, 2)
    # a general u, not g_field's symmetric weighted G
    u = rng.standard_normal((n, 2, 2))
    monkeypatch.setattr(kernels, "STREAM_BYTES", 16 * tile_rows * tile_rows)
    operator = kernels.kernel_operator(DualIMQKernel(mirror_map), theta)
    if cached:
        operator.cache_tiles()
    assert len(operator._ranges) == ranges
    assert (operator._tiles is not None) == cached
    calls = []
    products = operator._products

    def recorded(*stacks):
        calls.append(([s.copy() for s in stacks], products(*stacks)))
        return calls[-1][1]

    monkeypatch.setattr(operator, "_products", recorded)
    operator.apply(q, None)
    operator.apply(q, u)
    assert [len(stacks) for stacks, _ in calls] == [1, 2]
    # u is not symmetric; it is the last feature of the F' rows, after q,
    # q x^T, A q and w
    u_f = kernels._rows(calls[1][0][0], [(2,), (2, 2), (2,), (2,), (2, 2)])[4]
    assert u_f.tobytes() == u.tobytes()
    assert np.min(np.abs(u_f - u_f.transpose(0, 2, 1))[:, 0, 1]) > 0.0
    for stacks, got in calls:
        for got_stack, want in zip(got, _row_major_products(operator, *stacks)):
            assert got_stack.T.shape == want.shape
            assert np.all(np.abs(got_stack.T - want) <= 1e-15 * np.max(np.abs(want), axis=0))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_writes_one_feature_stack(rng, monkeypatch, d):
    # one C-ordered (w, n) stack, q, q x^T, A q, w = u x, u, w x^T, u x^T:
    # F' reads its first 3 d + 2 d^2 rows, F'' the rows from 2 d + d^2 on,
    # and apply(q, None) a stack of the first three groups alone
    n = 30
    _, theta, q, u = _operator_inputs(rng, "simplex", n, d)
    operator = kernels.kernel_operator(IMQKernel(), theta)
    calls = []
    products = operator._products

    def recorded(*stacks):
        calls.append(stacks)
        return products(*stacks)

    monkeypatch.setattr(operator, "_products", recorded)
    operator.apply(q, None)
    operator.apply(q, u)
    (alone,), (fp_rows, fpp_rows) = calls
    assert alone.shape == (2 * d + d * d, n) and alone.flags.c_contiguous
    stack = fp_rows.base
    assert fpp_rows.base is stack and stack.flags.c_contiguous
    assert stack.shape == (d**3 + 3 * d * d + 3 * d, n)
    row = stack.strides[0]
    start = stack.__array_interface__["data"][0]
    assert fp_rows.__array_interface__["data"][0] == start
    assert fp_rows.shape[0] == 3 * d + 2 * d * d
    assert fpp_rows.__array_interface__["data"][0] == start + (2 * d + d * d) * row
    assert fpp_rows.shape[0] == d**3 + 2 * d * d + d
    x = operator._x
    w = np.einsum("ide,ie->id", u, x)
    want = [q, q[:, :, None] * x[:, None, :], operator._affine[:, None] * q, w, u,
            w[:, :, None] * x[:, None, :], u[:, :, :, None] * x[:, None, None, :]]
    groups = [(d,), (d, d), (d,), (d,), (d, d), (d, d), (d, d, d)]
    for got, value in zip(kernels._rows(stack, groups), want):
        assert got.tobytes() == np.ascontiguousarray(value).tobytes()
    for got, value in zip(kernels._rows(alone, groups[:3]), want):
        assert got.tobytes() == np.ascontiguousarray(value).tobytes()


@pytest.mark.parametrize("n", [5, 8, 9, 1], ids=["below-tile", "one-tile", "tile-plus-one", "one-point"])
@pytest.mark.parametrize("kernel_name", ["imq", "rbf", "rescaled-imq", "dual-imq"])
def test_tiled_operator_matches_dense_blocks(rng, monkeypatch, kernel_name, n):
    mirror_map, theta, q, u = _operator_inputs(rng, "simplex", n, 2)
    kernel = {"imq": IMQKernel(), "rbf": RBFKernel(bandwidth=0.7),
              "rescaled-imq": RescaledKernel(IMQKernel(), 1.5),
              "dual-imq": DualIMQKernel(mirror_map)}[kernel_name]
    monkeypatch.setattr(kernels, "STREAM_BYTES", 16 * 8 * 8)
    radial = kernels.kernel_operator(kernel, theta)
    assert len(radial._ranges) == (2 if n > 8 else 1)
    rel = 1e-12 if kernel_name == "dual-imq" else 1e-13
    dense = DenseKernelOperator(kernel, theta)
    for uu in (None, u):
        _assert_products_close(_primal_apply(radial, kernel, theta, q, uu), dense.apply(q, uu),
                               rel)


@pytest.mark.parametrize("n", [255, 256, 257, 1000])
@pytest.mark.parametrize("kernel_name", ["imq", "rbf", "rescaled", "dual-imq"])
def test_snapshot_operator_matches_dense_blocks_across_tile_edges(rng, kernel_name, n):
    # one tile up to 256 points, two past it, four at 1000; against the
    # long-double chart-slot blocks, so dual-imq's J does not enter
    mirror_map, theta, q, u = _operator_inputs(rng, "simplex", n, 2)
    kernel = {"imq": IMQKernel(), "rbf": RBFKernel(bandwidth=0.3),
              "rescaled": RescaledKernel(IMQKernel(), 0.5),
              "dual-imq": DualIMQKernel(mirror_map)}[kernel_name]
    radial = kernels.kernel_operator(kernel, theta)
    assert len(radial._ranges) == {255: 1, 256: 1, 257: 2, 1000: 4}[n]
    dense = DenseKernelOperator(kernel, theta, primal=False)
    for uu in (None, u):
        _assert_products_close(radial.apply(q, uu), dense.apply(q, uu))


@pytest.mark.parametrize("kernel", [IMQKernel(), DualIMQKernel(EntropicSimplexMap(2))])
def test_operator_repeats_bit_for_bit(rng, kernel):
    _, theta, q, u = _operator_inputs(rng, "simplex", 300, 2)
    first = kernels.kernel_operator(kernel, theta).apply(q, u)
    second = kernels.kernel_operator(kernel, theta.copy()).apply(q.copy(), u.copy())
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("axes", [(np.linspace(-9.7, 8.3, 4096),),
                                  (np.linspace(-6.1, 5.9, 48), np.linspace(-4.4, 7.0, 48))],
                         ids=["4096", "48x48"])
@pytest.mark.parametrize("kernel", [
    IMQKernel(), IMQKernel(c=0.7, beta=-0.3), RBFKernel(bandwidth=0.8),
    RescaledKernel(IMQKernel(c=1.3, beta=-0.6), 2.5), RescaledKernel(RBFKernel(1.2), 1.7),
], ids=["imq", "imq-c0.7", "rbf", "rescaled-imq", "rescaled-rbf"])
def test_lattice_lag_samples_equal_the_dense_blocks(axes, kernel):
    # the lattice samples K, K1 and K12 in chart slots in one pass; the
    # oracle's chart-slot blocks between each lag and the origin give the
    # same bits
    grid = Grid(axes)
    lag_axes = [np.arange(1 - a.size, a.size) * ((a[-1] - a[0]) / (a.size - 1)) for a in axes]
    lags = np.stack([m.ravel() for m in np.meshgrid(*lag_axes, indexing="ij")], axis=1)
    origin = np.zeros((1, grid.dim))
    dense = gram_blocks(kernel, lags, origin, primal=False)
    for got, want in zip(kernels._lag_samples(kernel, grid), dense):
        assert got.shape == tuple(a.size for a in lag_axes) + want.shape[2:]
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _profile_arguments(gen):
    """Squared distances over [0, 1e8]: zero, log-spaced and uniform."""
    return np.concatenate([[0.0], 10.0 ** gen.uniform(-12.0, 8.0, 4000),
                           gen.uniform(0.0, 1e8, 1000)])


def _assert_within_ulps(got, want, ulps=4):
    """Relative error at most ``ulps`` units of double roundoff (eps)."""
    want = np.asarray(want, dtype=np.longdouble)
    err = np.abs(np.asarray(got, dtype=np.longdouble) - want) / np.abs(want)
    assert float(np.max(err)) <= ulps * np.finfo(float).eps


@pytest.mark.parametrize("c", [0.3, 1.0, 2.7])
@pytest.mark.parametrize("beta", [-0.999, -0.9, -0.5, -0.1])
def test_imq_one_pass_matches_closed_forms(rng, c, beta):
    # The closed forms in long double at the base c^2 + t the kernel rounds
    # to double: pow amplifies that rounding by |exponent| on any path, so
    # it is not the one-pass division's to answer for.
    t = _profile_arguments(rng)
    f, fp, fpp = IMQKernel(c=c, beta=beta)._derivatives(t.copy(), 2)
    base = (c**2 + t).astype(np.longdouble)
    b = np.longdouble(beta)
    _assert_within_ulps(f, base**b)
    _assert_within_ulps(fp, b * base ** (b - 1))
    _assert_within_ulps(fpp, b * (b - 1) * base ** (b - 2))
    # lower orders return the same values
    for order in (0, 1):
        for got, want in zip(IMQKernel(c=c, beta=beta)._derivatives(t.copy(), order),
                             (f, fp)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bandwidth", [0.05, 1.0, 30.0])
def test_rbf_one_pass_matches_closed_forms(rng, bandwidth):
    # in long double at the exponent -t / (2 h^2) the kernel rounds to double
    t = _profile_arguments(rng)
    f, fp, fpp = RBFKernel(bandwidth=bandwidth)._derivatives(t.copy(), 2)
    arg = (t / (-2.0 * bandwidth**2)).astype(np.longdouble)
    h = np.longdouble(bandwidth)
    wants = [np.exp(arg), -np.exp(arg) / (2 * h * h), np.exp(arg) / (4 * h**4)]
    # where all three are normal doubles; below that they lose digits by design
    keep = np.min([np.abs(w) for w in wants], axis=0) >= np.finfo(float).tiny
    assert np.count_nonzero(keep) > 1000
    for got, want in zip((f, fp, fpp), wants):
        _assert_within_ulps(got[keep], want[keep])
    assert np.all(f[~keep] >= 0.0) and np.all(f[~keep] <= 1e-290)
    for order in (0, 1):
        for got, want in zip(RBFKernel(bandwidth=bandwidth)._derivatives(t.copy(), order),
                             (f, fp)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("profile", [
    *(pytest.param(IMQKernel(c=c, beta=beta), id=f"imq-c{c}-beta{beta}")
      for c in (0.3, 1.0, 2.7) for beta in (-0.999, -0.5, -0.1)),
    *(pytest.param(RBFKernel(bandwidth=h), id=f"rbf-h{h}") for h in (0.05, 1.0, 30.0)),
])
def test_profile_is_its_slope_times_an_affine_function(rng, profile):
    # f = (a + b t) f' is how the point-set operator sums f without storing it
    t = np.concatenate([[0.0], 10.0 ** rng.uniform(-12.0, 4.0, 4000),
                        rng.uniform(0.0, 1e4, 1000)])
    f, fp = profile._derivatives(t.copy(), 1)
    a, b = profile._affine_ratio()
    # where f' is a normal double; rbf's tail below that loses digits by design
    keep = np.abs(fp) >= np.finfo(float).tiny
    assert np.count_nonzero(keep) > 1000
    err = np.abs((a + b * t[keep]) * fp[keep] - f[keep])
    assert np.all(err <= 1e-15 * f[keep])


@pytest.mark.parametrize("profile", [
    *(pytest.param(IMQKernel(c=c, beta=beta), id=f"imq-c{c}-beta{beta}")
      for c in (0.3, 1.0, 2.7) for beta in (-0.999, -0.5, -0.1)),
    *(pytest.param(RBFKernel(bandwidth=h), id=f"rbf-h{h}") for h in (0.05, 1.0, 30.0)),
])
def test_two_buffer_factors_equal_the_one_pass_derivatives(rng, profile):
    # the operator's tiles take f' and f'' without holding f: the same
    # operations in the same order, so the same bits, in t's buffer and one
    # more
    t = _profile_arguments(rng).reshape(3, -1)
    want = profile._derivatives(t.copy(), 2)[1:]
    buffer = t.copy()
    got = profile._factors(buffer)
    assert len(got) == 2
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert any(np.shares_memory(factor, buffer) for factor in got)
