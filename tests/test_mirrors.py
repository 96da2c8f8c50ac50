"""Certification of the mirror-map closed forms against independent oracles.

Every closed form (forward chart, conjugate chart, inverse Hessian, its row
divergence, the log determinant) is checked against finite differences or a
root finder before the rest of the suite builds on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from msvgd.errors import DomainError, NumericsError
from msvgd.mirrors import (
    EntropicBoxMap,
    EntropicSimplexMap,
    EuclideanMap,
    in_open_simplex,
    make_map,
    row_max,
    row_sum,
    simplex_interior,
    simplex_slack,
)

from conftest import (
    at_point,
    fd_gradient,
    fd_jacobian,
    fd_matrix_divergence,
    rel_err,
    sample_box_interior,
    sample_simplex_interior,
)

DIMS = [1, 2, 3, 5, 10]


def _maps_with_samples(rng, d, n):
    """(map, interior sample) pairs used across the certification tests."""
    out = [
        (EuclideanMap(d), rng.normal(size=(n, d))),
        (EntropicSimplexMap(d), sample_simplex_interior(rng, n, d, margin=1e-3)),
    ]
    lo = -1.0 + 0.1 * np.arange(d)
    hi = 1.5 + 0.2 * np.arange(d)
    out.append((EntropicBoxMap(lo, hi), sample_box_interior(rng, n, lo, hi)))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grad_psi_matches_fd_of_psi(rng, d):
    for mp, pts in _maps_with_samples(rng, d, 12):
        for t in pts:
            g = mp.grad_psi(t[None])[0]
            g_fd = fd_gradient(at_point(mp.psi), t, h=1e-6)
            assert rel_err(g_fd, g, floor=1e-8) < 1e-5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hess_psi_matches_fd_of_grad(rng, d):
    for mp, pts in _maps_with_samples(rng, d, 8):
        for t in pts:
            h = mp.hess_psi(t[None])[0]
            h_fd = fd_jacobian(at_point(mp.grad_psi), t, h=1e-6)
            assert rel_err(h_fd, h, floor=1e-6) < 1e-5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hess_psi_inv_matches_inverted_fd_hessian(rng, d):
    # Certifies the simplex closed form diag(theta) - theta theta^T and the
    # box diagonal against an oracle that never forms them.
    for mp, pts in _maps_with_samples(rng, d, 8):
        for t in pts:
            h_fd = fd_jacobian(at_point(mp.grad_psi), t, h=1e-6)
            inv_oracle = np.linalg.inv(h_fd)
            assert rel_err(inv_oracle, mp.hess_psi_inv(t[None])[0], floor=1e-8) < 1e-5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_div_hess_psi_inv_matches_fd_divergence(rng, d):
    for mp, pts in _maps_with_samples(rng, d, 8):
        for t in pts:
            div = mp.div_hess_psi_inv(t[None])[0]
            div_fd = fd_matrix_divergence(at_point(mp.hess_psi_inv), t, h=1e-4)
            assert np.max(np.abs(div - div_fd)) < 1e-5 * max(
                1.0, float(np.max(np.abs(div)))
            )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_log_det_hess_inv_matches_slogdet(rng, d):
    for mp, pts in _maps_with_samples(rng, d, 8):
        sign, logdet = np.linalg.slogdet(mp.hess_psi_inv(pts))
        assert np.all(sign > 0)
        assert np.all(np.abs(mp.log_det_hess_inv(pts) - logdet)
                      < 1e-9 * np.maximum(1.0, np.abs(logdet)))


def test_simplex_closed_form_values():
    mp = EntropicSimplexMap(2)
    g = mp.grad_psi(np.array([[0.2, 0.3]]))
    assert np.allclose(g, [[np.log(0.2 / 0.5), np.log(0.3 / 0.5)]], rtol=0, atol=1e-14)

    t = mp.grad_psi_star(np.array([[1.0, 1.0]]))
    e = np.e
    assert np.allclose(t, [[e / (1 + 2 * e), e / (1 + 2 * e)]], rtol=1e-14)

    mp1 = EntropicSimplexMap(1)
    assert abs(mp1.hess_psi_inv(np.array([[0.5]]))[0, 0, 0] - 0.25) < 1e-15
    assert abs(mp1.div_hess_psi_inv(np.array([[0.5]]))[0, 0]) < 1e-15


def _damped_newton_conjugate(mp, x, start, iters=80):
    """Oracle for grad_psi_star: minimize psi(t) - <x, t> by damped Newton,
    never touching the closed-form conjugate."""
    t = start.copy()
    for _ in range(iters):
        grad = at_point(mp.grad_psi)(t) - x
        step = np.linalg.solve(at_point(mp.hess_psi)(t), grad)
        lam = 1.0
        while lam > 1e-16:
            cand = t - lam * step
            if np.all(mp.contains(cand[None, :])):
                break
            lam *= 0.5
        t = t - lam * step
        if np.max(np.abs(grad)) < 1e-13:
            break
    return t


def test_simplex_conjugate_matches_root_finder(rng):
    # Independent oracle: solve grad_psi(theta) = x by damped Newton on the
    # conjugate maximization.
    for d in [1, 2, 3]:
        mp = EntropicSimplexMap(d)
        for _ in range(5):
            x = rng.normal(scale=2.0, size=d)
            theta = at_point(mp.grad_psi_star)(x)
            start = np.full(d, 1.0 / (d + 1))
            sol = _damped_newton_conjugate(mp, x, start)
            assert np.max(np.abs(sol - theta)) < 1e-8


def test_box_conjugate_matches_root_finder(rng):
    lo, hi = np.array([-2.0]), np.array([3.0])
    mp = EntropicBoxMap(lo, hi)
    xs = np.array([[-5.0], [-0.3], [0.0], [1.7], [6.0]])
    for x, theta in zip(xs[:, 0], mp.grad_psi_star(xs)[:, 0]):
        root = optimize.brentq(
            lambda t: mp.grad_psi(np.array([[t]]))[0, 0] - x, lo[0] + 1e-12, hi[0] - 1e-12,
            xtol=1e-14,
        )
        assert abs(theta - root) < 1e-10


@pytest.mark.parametrize("d", DIMS)
def test_conjugate_round_trip_primal(rng, d):
    # grad_psi_star(grad_psi(theta)) = theta to 1e-10 over interior samples.
    for mp, pts in _maps_with_samples(rng, d, 1000 // max(1, d)):
        back = mp.grad_psi_star(mp.grad_psi(pts))
        scale = np.maximum(np.abs(pts), 1e-3)
        assert np.max(np.abs(back - pts) / scale) < 1e-10


@pytest.mark.parametrize("d", DIMS)
def test_conjugate_round_trip_dual(rng, d):
    # grad_psi(grad_psi_star(x)) = x to 1e-8 for ||x|| <= 20. Where the point
    # sits so close to a face that the slack drops below ~2e-8, float64 cannot
    # carry the answer: theta quantizes at half an ulp of 1, so the recoverable
    # accuracy is eps / slack. The bound below tightens to 1e-8 exactly from
    # the point float64 can honor it, and stays at the provable limit beyond.
    eps = np.finfo(float).eps
    for mp, _ in _maps_with_samples(rng, d, 1):
        x = rng.normal(size=(200, d))
        x *= (rng.uniform(0.0, 20.0, size=200) / np.maximum(
            np.linalg.norm(x, axis=1), 1e-12))[:, None]
        theta = mp.grad_psi_star(x)
        back = mp.grad_psi(theta)
        err = np.max(np.abs(back - x), axis=1)
        if isinstance(mp, EntropicSimplexMap):
            gap = 1.0 - np.sum(theta, axis=1)
        elif isinstance(mp, EntropicBoxMap):
            gap = np.min(np.minimum(theta - mp.lo, mp.hi - theta) /
                         (mp.hi - mp.lo), axis=1)
        else:
            gap = np.ones(len(err))
        limit = np.maximum(1e-8, 4.0 * eps / gap)
        assert np.all(err <= limit)
        # the nominal 1e-8 tolerance must hold wherever representable
        assert np.all(err[gap >= 4.0 * eps * 1e8] <= 1e-8)


@pytest.mark.parametrize("d", DIMS)
def test_inverse_hessian_operator_norm_bound(rng, d):
    # ||hess_psi_inv||_op <= 1/K on the whole domain.
    for mp, pts in _maps_with_samples(rng, d, 200):
        h = mp.hess_psi_inv(pts)
        eigs = np.linalg.eigvalsh(h)
        assert np.max(eigs) <= 1.0 / mp.strong_convexity + 1e-9


@pytest.mark.parametrize("d", DIMS)
def test_dual_curvature_trace_bound(rng, d):
    # trace(hess_psi_inv^2) <= d / K^2; this is the quantity that caps the
    # kernel gradient norm in the dual space.
    for mp, pts in _maps_with_samples(rng, d, 200):
        h = mp.hess_psi_inv(pts)
        tr = np.einsum("nij,nji->n", h, h)
        assert np.max(tr) <= d / mp.strong_convexity**2 + 1e-9


def test_strong_convexity_at_samples(rng):
    for d in [1, 2, 3]:
        for mp, pts in _maps_with_samples(rng, d, 100):
            eigs = np.linalg.eigvalsh(mp.hess_psi(pts))
            assert np.min(eigs) >= mp.strong_convexity * (1 - 1e-9)


def test_domain_errors():
    mp = EntropicSimplexMap(2)
    with pytest.raises(DomainError):
        mp.psi(np.array([[0.0, 0.5]]))
    with pytest.raises(DomainError):
        mp.grad_psi(np.array([[0.7, 0.4]]))
    with pytest.raises(DomainError):
        mp.hess_psi_inv(np.array([[-0.1, 0.5]]))

    box = EntropicBoxMap([-1.0], [1.0])
    with pytest.raises(DomainError):
        box.grad_psi(np.array([[1.0]]))
    with pytest.raises(DomainError):
        box.psi(np.array([[2.0]]))


def test_open_simplex_tests_the_compensated_slack(rng):
    # rows (a, b) with b one ulp below the float 1 - a lie strictly inside:
    # their exact slack 1 - a - b is positive, though a naive 1 - sum(t)
    # rounds it to 0 for about half of them.  Rows one ulp above, or on the
    # face, are outside.
    from fractions import Fraction

    a = rng.uniform(0.0, 1.0, 2000)
    inside = np.stack([a, np.nextafter(1.0 - a, 0.0)], axis=1)
    assert all(Fraction(1) - Fraction(x) - Fraction(y) > 0 for x, y in inside)
    assert np.all(in_open_simplex(inside))
    assert np.all(EntropicSimplexMap(2).contains(inside))
    mask, slack = simplex_interior(inside)
    assert np.all(mask) and slack.tobytes() == simplex_slack(inside).tobytes()
    for b in (np.nextafter(1.0 - a, 2.0), 1.0 - a):
        outside = np.stack([a, b], axis=1)
        exact = [Fraction(1) - Fraction(x) - Fraction(y) for x, y in outside]
        assert np.array_equal(in_open_simplex(outside), [e > 0 for e in exact])


def test_conjugate_underflow_raises():
    # [40, 0] keeps every logit's softmax weight above zero, but float64
    # rounds the coordinates' sum to 1: the row sits on the face
    # sum(theta) = 1, which contains refuses, so the chart must refuse it too
    mp = EntropicSimplexMap(2)
    for x in ([[1000.0, 0.0]], [[40.0, 0.0]]):
        with pytest.raises(NumericsError):
            mp.grad_psi_star(np.array(x))
    box = EntropicBoxMap([-1.0], [1.0])
    with pytest.raises(NumericsError):
        box.grad_psi_star(np.array([[800.0]]))
    with pytest.raises(NumericsError) as caught:
        mp.grad_psi_star(np.array([[0.0, 0.0], [1.0, -2.0], [40.0, 0.0], [50.0, 0.0]]))
    assert caught.value.particle == 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]))
def test_conjugate_never_returns_a_face_row(seed, d):
    # wide duals, N(0, 30^2 I): the chart either refuses them, naming the
    # first row it cannot carry, or returns rows its own contains accepts
    gen = np.random.default_rng(seed)
    x = 30.0 * gen.standard_normal((200, d))
    box = EntropicBoxMap(np.linspace(-2.0, -1.0, d), np.linspace(0.5, 3.0, d))
    for mp in (EntropicSimplexMap(d), box):
        try:
            theta = mp.grad_psi_star(x)
        except NumericsError as exc:
            with pytest.raises(NumericsError):
                mp.grad_psi_star(x[exc.particle:exc.particle + 1])
            theta = mp.grad_psi_star(x[:exc.particle])
        assert np.all(mp.contains(theta))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_log_conjugate_matches_log_of_chart(rng, d):
    mp = EntropicSimplexMap(d)
    x = rng.normal(scale=3.0, size=(40, d))
    theta = mp.grad_psi_star(x)
    slack = 1.0 - theta.sum(axis=1, keepdims=True)
    logs = mp.log_grad_psi_star(x)
    assert logs.shape == (40, d + 1)
    assert np.max(np.abs(logs - np.log(np.concatenate([theta, slack], axis=1)))) < 1e-12
    assert np.max(np.abs(mp.log_det_hess_inv_from_logs(logs)
                         - mp.log_det_hess_inv(theta))) < 1e-12


def test_log_conjugate_exact_in_far_field():
    # The chart itself underflows here; the log coordinates stay exact.
    mp = EntropicSimplexMap(1)
    logs = mp.log_grad_psi_star(np.array([[800.0], [-800.0]]))
    assert np.allclose(logs[0], [0.0, -800.0])
    assert np.allclose(logs[1], [-800.0, 0.0])
    mp2 = EntropicSimplexMap(2)
    logs2 = mp2.log_grad_psi_star(np.array([[700.0, -700.0]]))
    assert np.allclose(logs2, [[0.0, -1400.0, -700.0]])


def test_make_map_registry():
    assert isinstance(make_map("euclidean", dim=3), EuclideanMap)
    assert isinstance(make_map("entropic-simplex", dim=2), EntropicSimplexMap)
    assert isinstance(make_map("entropic-box", lo=[0.0], hi=[1.0]), EntropicBoxMap)
    with pytest.raises(DomainError):
        make_map("spherical", dim=2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3, 5]))
def test_round_trip_property(seed, d):
    gen = np.random.default_rng(seed)
    mp = EntropicSimplexMap(d)
    t = sample_simplex_interior(gen, 8, d, margin=1e-4)
    back = mp.grad_psi_star(mp.grad_psi(t))
    assert np.max(np.abs(back - t)) < 1e-10

    box = EntropicBoxMap(np.full(d, -2.0), np.full(d, 1.0))
    tb = sample_box_interior(gen, 8, box.lo, box.hi)
    backb = box.grad_psi_star(box.grad_psi(tb))
    assert np.max(np.abs(backb - tb)) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_row_reductions_give_numpy_bits(rng, k):
    # the quadrature's log-coordinates and distances reduce rows of 2 to 4
    # columns; the column-by-column order must give np.sum's bits
    a = rng.standard_normal((20000, k)) * np.exp(rng.uniform(-30.0, 30.0, (20000, k)))
    assert row_sum(a).tobytes() == np.sum(a, axis=1).tobytes()
    assert row_max(a).tobytes() == np.max(a, axis=1).tobytes()
