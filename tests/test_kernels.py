"""Kernel derivative and bound certification against finite differences,
and the kernel operator against explicit gram blocks.

Every kernel is a radial profile read through a chart, and its gram blocks
are written once for all of them, so the finite-difference oracles certify
the one formula through each chart: the identity (imq, rbf), a scale
(rescaled) and the mirror map's grad_psi (dual-imq)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvgd import kernels
from msvgd.errors import ConfigError
from msvgd.kernels import (
    DualIMQKernel,
    IMQKernel,
    RBFKernel,
    RescaledKernel,
    make_kernel,
)
from msvgd.mirrors import EntropicBoxMap, EntropicSimplexMap, EuclideanMap

from conftest import (
    DenseKernelOperator,
    fd_gradient,
    fd_mixed_second,
    rel_err,
    sample_box_interior,
    sample_simplex_interior,
)


def _pair(op, a, b):
    """Entry [0, 0] of a batched kernel op on the 1-row batches a and b."""
    return op(np.asarray(a, float)[None, :], np.asarray(b, float)[None, :])[0, 0]


def _value(k, a, b):
    return float(_pair(k.gram, a, b))


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
            g = _pair(k.grad1_gram, a, b)
            g_fd = fd_gradient(lambda z: _value(k, z, b), a, h=1e-5)
            assert np.max(np.abs(g - g_fd)) < 1e-6 * max(1.0, np.max(np.abs(g)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grad12_matches_fd(rng, d):
    for k in _euclidean_kernels():
        for _ in range(4):
            a, b = rng.normal(size=d), rng.normal(size=d)
            m = _pair(k.grad12_gram, a, b)
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
            assert rel_err(g_fd, _pair(k.grad1_gram, a, b), floor=1e-6) < 1e-5
            m_fd = fd_mixed_second(lambda x, y: _value(k, x, y), a, b, h=1e-5)
            assert rel_err(m_fd, _pair(k.grad12_gram, a, b), floor=1e-5) < 1e-4


def test_imq_frozen_values():
    k = IMQKernel(c=1.0, beta=-0.5)
    assert abs(_value(k, np.zeros(2), np.zeros(2)) - 1.0) < 1e-15
    a, b = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert abs(_value(k, a, b) - 2.0**-0.5) < 1e-15
    g = _pair(k.grad1_gram, a, b)
    assert abs(g[0] - (-(2.0**-1.5))) < 1e-15
    assert abs(g[1]) < 1e-15


def test_rbf_frozen_values():
    k = RBFKernel(bandwidth=1.0)
    a, b = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert abs(_value(k, a, b) - np.exp(-0.5)) < 1e-15
    g = _pair(k.grad1_gram, a, b)
    assert abs(g[0] - (-np.exp(-0.5))) < 1e-15
    assert abs(g[1]) < 1e-15


def test_bounds_values():
    b1, b2 = IMQKernel(c=1.0, beta=-0.5).bounds()
    assert abs(b1 - 1.0) < 1e-12
    assert abs(b2 - 1.0) < 1e-6     # sampled, not algebraic

    for h in [0.5, 1.0, 2.0]:
        b1, b2 = RBFKernel(bandwidth=h).bounds()
        assert b1 == 1.0
        assert abs(b2 - 1.0 / h) < 1e-12

    for scale in [2.0, 4.0]:
        b1, b2 = RescaledKernel(RBFKernel(bandwidth=1.0), scale).bounds()
        assert b1 == 1.0
        assert abs(b2 - 1.0 / scale) < 1e-12


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
        return _value(k, mp.grad_psi_star(x), mp.grad_psi_star(y))

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
        via_map = k.gram(mp.grad_psi_star(x), mp.grad_psi_star(y))
        direct = (1.5**2 + np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)) ** -0.6
        assert np.max(np.abs(via_map - direct)) < 1e-12


def test_symmetry_and_grad2(rng):
    d = 3
    for k in _euclidean_kernels():
        a, b = rng.normal(size=d), rng.normal(size=d)
        assert _value(k, a, b) == pytest.approx(_value(k, b, a), abs=1e-15)
        # the second-slot gradient, grad1 with the slots swapped, is minus the
        # first-slot one for these translation-invariant kernels
        assert np.allclose(_pair(k.grad1_gram, b, a), -_pair(k.grad1_gram, a, b), atol=0)


def test_gram_psd(rng):
    for k in _euclidean_kernels():
        pts = rng.normal(size=(64, 3))
        gram = k.gram(pts, pts)
        assert np.min(np.linalg.eigvalsh(0.5 * (gram + gram.T))) >= -1e-8


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
    gram = k.gram(pts, pts)
    assert np.max(np.abs(gram - gram.T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(0.5 * (gram + gram.T))) >= -1e-8


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
    _assert_products_close(radial.apply(q, None), dense.apply(q, None), rel)
    _assert_products_close(radial.apply(q, u), dense.apply(q, u), rel)


def _assert_products_equal(got, want):
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_streaming_matches_precomputed(rng, monkeypatch, d):
    _, theta, q, u = _operator_inputs(rng, "simplex", 37, d)
    kernel = RescaledKernel(IMQKernel(), 1.5)
    single = kernels.kernel_operator(kernel, theta)
    assert len(single._ranges) == 1
    # at most seven rows per tile: six ranges of 6 or 7 rows, 21 upper tiles
    monkeypatch.setattr(kernels, "TILE_ROWS", 7)
    cached = kernels.kernel_operator(kernel, theta)
    assert cached._tiles is not None
    assert [r.stop - r.start for r in cached._ranges] == [6, 6, 6, 6, 6, 7]
    monkeypatch.setattr(kernels, "PRECOMPUTE_BYTES", 0)
    streaming = kernels.kernel_operator(kernel, theta)
    assert streaming._tiles is None
    for uu in (None, u):
        # both ways run one loop over the same tiles
        _assert_products_equal(streaming.apply(q, uu), cached.apply(q, uu))
        _assert_products_close(streaming.apply(q, uu), single.apply(q, uu))


def _row_major_products(operator, *groups):
    """The oracle for _RadialOperator._products: the same tile loop taken
    point-major, with features stacked (n, w), tile^T @ features[i] into
    range j's rows and, off the diagonal, tile @ features[j] into range
    i's, in the same tile order."""
    n = operator._x.shape[0]
    stacked = [np.concatenate([a.reshape(n, -1) for a in group], axis=1) for group in groups]
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
    # a general u: g_field's weighted Hinv times dual-imq's J is near w I
    u = rng.standard_normal((n, 2, 2))
    monkeypatch.setattr(kernels, "TILE_ROWS", tile_rows)
    if not cached:
        monkeypatch.setattr(kernels, "PRECOMPUTE_BYTES", 0)
    operator = kernels.kernel_operator(DualIMQKernel(mirror_map), theta)
    assert len(operator._ranges) == ranges
    assert (operator._tiles is not None) == cached
    calls = []
    products = operator._products

    def recorded(*groups):
        calls.append((groups, products(*groups)))
        return calls[-1][1]

    monkeypatch.setattr(operator, "_products", recorded)
    operator.apply(q, None)
    operator.apply(q, u)
    assert [len(groups) for groups, _ in calls] == [2, 3]
    # apply(q, u) multiplies by u J, which is not symmetric
    u_j = calls[1][0][1][3]
    assert np.min(np.abs(u_j - u_j.transpose(0, 2, 1))[:, 0, 1]) > 0.0
    for groups, got in calls:
        for got_parts, want in zip(got, _row_major_products(operator, *groups)):
            got_flat = np.concatenate([p.reshape(n, -1) for p in got_parts], axis=1)
            assert got_flat.shape == want.shape
            assert np.all(np.abs(got_flat - want) <= 1e-15 * np.max(np.abs(want), axis=0))


@pytest.mark.parametrize("n", [5, 8, 9, 1], ids=["below-tile", "one-tile", "tile-plus-one", "one-point"])
@pytest.mark.parametrize("kernel_name", ["imq", "rbf", "rescaled-imq", "dual-imq"])
def test_tiled_operator_matches_dense_blocks(rng, monkeypatch, kernel_name, n):
    mirror_map, theta, q, u = _operator_inputs(rng, "simplex", n, 2)
    kernel = {"imq": IMQKernel(), "rbf": RBFKernel(bandwidth=0.7),
              "rescaled-imq": RescaledKernel(IMQKernel(), 1.5),
              "dual-imq": DualIMQKernel(mirror_map)}[kernel_name]
    monkeypatch.setattr(kernels, "TILE_ROWS", 8)
    radial = kernels.kernel_operator(kernel, theta)
    assert len(radial._ranges) == (2 if n > 8 else 1)
    rel = 1e-12 if kernel_name == "dual-imq" else 1e-13
    dense = DenseKernelOperator(kernel, theta)
    _assert_products_close(radial.apply(q, None), dense.apply(q, None), rel)
    _assert_products_close(radial.apply(q, u), dense.apply(q, u), rel)


@pytest.mark.parametrize("kernel", [IMQKernel(), DualIMQKernel(EntropicSimplexMap(2))])
def test_operator_repeats_bit_for_bit(rng, kernel):
    _, theta, q, u = _operator_inputs(rng, "simplex", 300, 2)
    first = kernels.kernel_operator(kernel, theta).apply(q, u)
    second = kernels.kernel_operator(kernel, theta.copy()).apply(q.copy(), u.copy())
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()



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
