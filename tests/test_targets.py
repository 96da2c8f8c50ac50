"""Targets: scores against finite differences, the dual potential against the
change-of-variables density, and the smoothness catalog against sampled
Hessians."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    at_point,
    fd_gradient,
    rel_err,
    sample_box_interior,
    sample_simplex_interior,
)

from msvgd.errors import ConfigError, DomainError
from msvgd.mirrors import EntropicBoxMap, EntropicSimplexMap, EuclideanMap, in_open_simplex
from msvgd.targets import (
    Dirichlet,
    MirroredPowerLaw,
    MirroredTarget,
    TruncatedGaussian,
    certified_profile,
    make_target,
)


class TestDirichlet:
    def test_uniform_is_flat(self):
        target = Dirichlet([1.0, 1.0, 1.0])
        theta = np.array([[0.2, 0.3], [0.01, 0.98]])
        assert np.all(target.log_density_unnorm(theta) == 0.0)
        assert np.all(target.grad_log_density(theta) == 0.0)

    def test_chart_gradient_value(self):
        target = Dirichlet([2.0, 2.0, 2.0])
        got = target.grad_log_density(np.array([[0.2, 0.3]]))
        want = np.array([[1.0 / 0.2 - 1.0 / 0.5, 1.0 / 0.3 - 1.0 / 0.5]])
        assert np.allclose(got, want, rtol=1e-14)

    def test_log_density_value(self):
        target = Dirichlet([2.0, 3.0, 4.0])
        got = target.log_density_unnorm(np.array([[0.2, 0.3]]))
        want = 1.0 * math.log(0.2) + 2.0 * math.log(0.3) + 3.0 * math.log(0.5)
        assert got[0] == pytest.approx(want, rel=1e-14)

    def test_gradient_fd_consistency(self, rng):
        target = Dirichlet([2.5, 0.7, 1.3, 4.0])
        for theta in sample_simplex_interior(rng, 8, 3, margin=5e-2):
            got = at_point(target.grad_log_density)(theta)
            want = fd_gradient(at_point(target.log_density_unnorm), theta, h=1e-6)
            assert rel_err(got, want) < 1e-6

    def test_exterior_rejected(self):
        target = Dirichlet([1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            target.log_density_unnorm(np.array([[0.6, 0.5]]))
        with pytest.raises(DomainError):
            target.grad_log_density(np.array([[-0.1, 0.5]]))

    def test_log_coordinate_form_matches_chart_form(self, rng):
        target = Dirichlet([2.0, 3.0, 4.0])
        theta = sample_simplex_interior(rng, 12, 2, margin=1e-3)
        slack = 1.0 - theta.sum(axis=1, keepdims=True)
        logs = np.log(np.concatenate([theta, slack], axis=1))
        got = target.log_density_unnorm_from_logs(logs)
        assert np.allclose(got, target.log_density_unnorm(theta), rtol=1e-13)

    @pytest.mark.parametrize("conc", [(2.0, 3.0, 4.0), (2.0, 3.0, 4.0, 5.0)])
    def test_near_face_score_matches_the_exact_slack(self, rng, conc):
        # 2000 points with slack 1e-14 to 1e-6, against the score of their
        # float coordinates with the slack taken exactly in rationals; a
        # naive 1 - sum(theta) put (alpha_K - 1) / slack off by up to 0.9%
        target = Dirichlet(conc)
        d = target.dim
        g = rng.gamma(1.0, 1.0, size=(2000, d))
        slack = 10.0 ** rng.uniform(-14.0, -6.0, (2000, 1))
        theta = (1.0 - slack) * g / g.sum(axis=1, keepdims=True)
        exact = np.array([1 - sum(map(Fraction, row)) for row in theta], dtype=object)
        keep = (exact > 0) & in_open_simplex(theta)
        assert keep.sum() > 1500
        theta, exact = theta[keep], exact[keep]
        want = np.array([[float(Fraction(a - 1.0) / Fraction(t) - Fraction(conc[-1] - 1.0) / s)
                          for a, t in zip(conc, row)] for row, s in zip(theta, exact)])
        got = target.grad_log_density(theta)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
        # the target's slack is the map's, bit for bit: with alpha (1, .., 1, 2)
        # the score is -1 / slack, and the map's Hessian adds 1 / slack to
        # each entry
        ones = Dirichlet((1.0,) * d + (2.0,)).grad_log_density(theta)
        hess = EntropicSimplexMap(d).hess_psi(theta)
        assert (-ones[:, 0]).tobytes() == hess[:, 0, 1].tobytes()

    def test_validation(self):
        with pytest.raises(ConfigError):
            Dirichlet([1.0])
        with pytest.raises(ConfigError):
            Dirichlet([1.0, -1.0, 2.0])


class TestTruncatedGaussian:
    def test_mode_value_and_score(self):
        target = TruncatedGaussian(np.zeros(3), np.eye(3), lo=-np.ones(3), hi=np.ones(3))
        assert target.log_density_unnorm(np.zeros((1, 3)))[0] == 0.0
        theta = np.array([[0.3, -0.2, 0.5]])
        assert np.allclose(target.grad_log_density(theta), -theta, rtol=1e-14)

    def test_general_cov_fd(self, rng):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        target = TruncatedGaussian(np.array([0.5, -0.5]), cov)
        for theta in rng.standard_normal((6, 2)):
            got = at_point(target.grad_log_density)(theta)
            want = fd_gradient(at_point(target.log_density_unnorm), theta)
            assert rel_err(got, want) < 1e-6

    def test_box_enforced(self):
        target = TruncatedGaussian(np.zeros(2), np.eye(2), lo=[-1.0, -1.0], hi=[1.0, 2.0])
        assert target.domain == "box"
        with pytest.raises(DomainError):
            target.log_density_unnorm(np.array([[0.0, 2.5]]))

    def test_unboxed_is_euclidean(self):
        target = TruncatedGaussian(np.zeros(2), np.eye(2))
        assert target.domain == "euclidean"
        target.log_density_unnorm(np.array([[40.0, -40.0]]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            TruncatedGaussian(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ConfigError):
            TruncatedGaussian(np.zeros(2), np.eye(2), lo=[-1.0, -1.0], hi=None)
        with pytest.raises(ConfigError):
            TruncatedGaussian(np.zeros(2), np.eye(2), lo=[1.0, 1.0], hi=[0.0, 2.0])


class TestMirroredPowerLaw:
    def test_quadratic_gradient(self):
        target = MirroredPowerLaw(power=2.0, dim=2)
        x = np.array([[0.7, -1.1]])
        assert np.allclose(target.grad_potential(x), 2.0 * x, rtol=1e-14)

    def test_origin_gradient_is_zero(self):
        target = MirroredPowerLaw(power=1.5, dim=3)
        assert np.all(target.grad_potential(np.zeros((1, 3))) == 0.0)

    def test_quartic_fd(self, rng):
        target = MirroredPowerLaw(power=4.0, scale=0.7, dim=2)
        for x in rng.standard_normal((6, 2)):
            want = fd_gradient(at_point(target.potential), x)
            assert rel_err(at_point(target.grad_potential)(x), want) < 1e-6

    def test_primal_view_negates(self, rng):
        target = MirroredPowerLaw(power=3.0, dim=2)
        x = rng.standard_normal((5, 2))
        assert np.allclose(target.log_density_unnorm(x), -target.potential(x))
        assert np.allclose(target.grad_log_density(x), -target.grad_potential(x))

    def test_validation(self):
        with pytest.raises(ConfigError):
            MirroredPowerLaw(power=1.0)
        with pytest.raises(ConfigError):
            MirroredPowerLaw(power=2.0, scale=0.0)


class TestMirroredTarget:
    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            MirroredTarget(Dirichlet([1.0, 1.0, 1.0]), EntropicSimplexMap(3))

    def test_grad_fd_consistency_simplex(self, rng):
        mirrored = MirroredTarget(Dirichlet([2.0, 3.0, 4.0]), EntropicSimplexMap(2))
        for x in rng.uniform(-3.0, 3.0, size=(8, 2)):
            got = at_point(grad_potential(mirrored))(x)
            want = fd_gradient(at_point(mirrored.potential), x)
            assert rel_err(got, want) < 1e-5

    def test_grad_fd_consistency_box(self, rng):
        base = TruncatedGaussian(np.zeros(2), np.eye(2), lo=[-1.0, 0.0], hi=[1.0, 2.0])
        mirrored = MirroredTarget(base, EntropicBoxMap([-1.0, 0.0], [1.0, 2.0]))
        for x in rng.uniform(-3.0, 3.0, size=(8, 2)):
            got = at_point(grad_potential(mirrored))(x)
            want = fd_gradient(at_point(mirrored.potential), x)
            assert rel_err(got, want) < 1e-5

    def test_euclidean_wrap_is_identity(self, rng):
        base = MirroredPowerLaw(power=4.0, dim=1)
        mirrored = MirroredTarget(base, EuclideanMap(1))
        x = rng.standard_normal((7, 1))
        assert np.allclose(mirrored.potential(x), base.potential(x), rtol=1e-14)
        assert np.allclose(grad_potential(mirrored)(x), base.grad_potential(x), rtol=1e-14)

    def test_simplex_potential_far_field_closed_form(self):
        # -log of the pushforward density is a*lse(0, x) - conc[:-1].x for
        # the Dirichlet/entropic pair; the chart underflows at these points
        # but the potential must stay exact (quadrature tail probes rely on
        # this).
        conc = np.array([5.0, 3.0, 7.0])
        mirrored = MirroredTarget(Dirichlet(conc), EntropicSimplexMap(2))
        x = np.array([[900.0, 0.0], [-2000.0, -2000.0], [30000.0, -30000.0]])
        lse = np.array([900.0, 0.0, 30000.0])
        want = conc.sum() * lse - x @ conc[:-1]
        assert np.allclose(mirrored.potential(x), want, rtol=1e-12)

    def test_simplex_potential_log_path_matches_chart_path(self, rng):
        mirrored = MirroredTarget(Dirichlet([2.0, 3.0, 4.0]), EntropicSimplexMap(2))
        x = rng.uniform(-6.0, 6.0, size=(10, 2))
        theta = mirrored.map.grad_psi_star(x)
        chart = -(mirrored.base.log_density_unnorm(theta)
                  + mirrored.map.log_det_hess_inv(theta))
        assert np.allclose(mirrored.potential(x), chart, rtol=1e-11)

    def test_pushforward_density_uniform_segment(self):
        # Flat density on (0, 1) through the 1D entropic chart: the dual
        # density must be sigmoid'(x) = theta (1 - theta), both from the
        # change of variables written out here and from the potential.
        mirrored = MirroredTarget(Dirichlet([1.0, 1.0]), EntropicSimplexMap(1))
        x = np.linspace(-20.0, 20.0, 4096)
        theta = 1.0 / (1.0 + np.exp(-x))
        direct = theta * (1.0 - theta)
        via_potential = np.exp(-mirrored.potential(x[:, None]))
        step = x[1] - x[0]
        mass = np.trapezoid(via_potential, dx=step)
        assert abs(mass - 1.0) < 1e-8
        l1 = np.trapezoid(np.abs(via_potential / mass - direct), dx=step)
        assert l1 < 1e-6

    def test_dirichlet_grad_closed_form(self, rng):
        conc = np.array([2.0, 3.0, 4.0])
        mirror = EntropicSimplexMap(2)
        mirrored = MirroredTarget(Dirichlet(conc), mirror)
        x = rng.uniform(-2.0, 2.0, size=(6, 2))
        theta = mirror.grad_psi_star(x)
        want = np.sum(conc) * theta - conc[:2]
        assert np.allclose(grad_potential(mirrored)(x), want, rtol=1e-12)


def grad_potential(mirrored):
    """grad V on a dual batch (n, d): the negated operand at the primal
    points, the one formula the library keeps."""
    return lambda x: -mirrored.operand(mirrored.map.grad_psi_star(x))[2]


def _fd_hess_norm(mirrored, x, h=1e-5):
    d = x.shape[0]
    grad = at_point(grad_potential(mirrored))
    cols = np.empty((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        cols[:, k] = (grad(x + e) - grad(x - e)) / (2 * h)
    sym = 0.5 * (cols + cols.T)
    return float(np.max(np.abs(np.linalg.eigvalsh(sym))))


def euclidean_power_law(**params):
    base = MirroredPowerLaw(**params)
    return MirroredTarget(base, EuclideanMap(base.dim))


class TestSmoothnessCatalog:
    def test_power_law_constants(self):
        prof = certified_profile(euclidean_power_law(power=4.0, dim=1))
        assert prof.l0 == pytest.approx(4.0 * 27.0, rel=1e-14)
        assert prof.l1 == 1.0
        assert prof.c_p == 4.0
        assert prof.p == 3.0
        assert prof.tag("l0") == "analytic"

    def test_standard_normal_constants(self):
        prof = certified_profile(euclidean_power_law(power=2.0, scale=0.5, dim=3))
        assert (prof.l0, prof.l1, prof.c_p, prof.p) == (1.0, 0.0, 1.0, 1.0)

    def test_subquadratic_power_has_no_profile(self):
        assert certified_profile(euclidean_power_law(power=1.5, dim=1)) is None

    def test_power_law_envelope_certified(self, rng):
        # ||hess V|| <= l0 + l1 ||grad V|| sampled over several scales.
        mirrored = euclidean_power_law(power=4.0, dim=1)
        prof = certified_profile(mirrored)
        for scale in (0.1, 1.0, 5.0, 20.0):
            for x in scale * rng.standard_normal((12, 1)):
                hess = _fd_hess_norm(mirrored, x)
                grad = float(np.linalg.norm(at_point(grad_potential(mirrored))(x)))
                assert hess / (prof.l0 + prof.l1 * grad) <= 1.0 + 1e-3

    def test_dirichlet_entropic_constants(self):
        prof = certified_profile(MirroredTarget(Dirichlet([2.0, 3.0]), EntropicSimplexMap(1)))
        assert prof.l0 == pytest.approx(2.5, rel=1e-14)
        assert prof.l1 == 0.0
        # Vertex gradients: |5*0 - 2| = 2 and |5*1 - 2| = 3.
        assert prof.c_p == pytest.approx(3.0, rel=1e-14)
        assert prof.p == 1.0
        assert prof.tag("c_p") == "analytic"

    def test_dirichlet_entropic_envelope_certified(self, rng):
        mirrored = MirroredTarget(Dirichlet([2.0, 3.0, 4.0]), EntropicSimplexMap(2))
        prof = certified_profile(mirrored)
        for x in rng.uniform(-6.0, 6.0, size=(25, 2)):
            hess = _fd_hess_norm(mirrored, x)
            grad = float(np.linalg.norm(at_point(grad_potential(mirrored))(x)))
            assert hess / (prof.l0 + prof.l1 * grad) <= 1.0 + 1e-3
            assert grad <= prof.c_p * (float(np.linalg.norm(x)) ** prof.p + 1.0) * (1.0 + 1e-9)

    def test_gaussian_euclidean_constants(self):
        base = TruncatedGaussian([0.2, -0.3], [[1.0, 0.2], [0.2, 0.5]])
        prof = certified_profile(MirroredTarget(base, EuclideanMap(2)))
        # ||Sigma^-1|| = 1 / lambda_min(Sigma), and ||mu|| < 1
        want = 1.0 / float(np.min(np.linalg.eigvalsh(base.cov)))
        assert prof.l0 == pytest.approx(want, rel=1e-13)
        assert prof.c_p == pytest.approx(want, rel=1e-13)
        assert (prof.l1, prof.p) == (0.0, 1.0)
        assert all(prof.tag(name) == "analytic" for name in ("l0", "l1", "c_p", "p"))
        far = TruncatedGaussian([3.0, -4.0], [[1.0, 0.2], [0.2, 0.5]])
        assert certified_profile(MirroredTarget(far, EuclideanMap(2))).c_p == pytest.approx(
            5.0 * want, rel=1e-13)

    def test_gaussian_euclidean_envelope_certified(self, rng):
        base = TruncatedGaussian([0.5, -1.5], [[2.0, 0.3], [0.3, 0.4]])
        mirrored = MirroredTarget(base, EuclideanMap(2))
        prof = certified_profile(mirrored)
        for x in rng.uniform(-6.0, 6.0, size=(25, 2)):
            hess = _fd_hess_norm(mirrored, x)
            grad = float(np.linalg.norm(at_point(grad_potential(mirrored))(x)))
            assert hess / (prof.l0 + prof.l1 * grad) <= 1.0 + 1e-3
            assert grad <= prof.c_p * (float(np.linalg.norm(x)) ** prof.p + 1.0) * (1.0 + 1e-9)

    def test_gaussian_gradient_bound_holds_far_out(self):
        # Along the top eigenvector of Sigma^-1 the gradient grows at exactly
        # ||Sigma^-1||, so a slope fitted below that fails at large radii.
        base = TruncatedGaussian([0.2, -0.3], [[1.0, 0.2], [0.2, 0.5]])
        mirrored = MirroredTarget(base, EuclideanMap(2))
        prof = certified_profile(mirrored)
        top = np.linalg.eigh(base.precision)[1][:, -1]
        for sign in (1.0, -1.0):
            for radius in np.geomspace(1.0, 1e6, 25):
                x = sign * radius * top
                grad = float(np.linalg.norm(at_point(grad_potential(mirrored))(x)))
                assert grad <= prof.c_p * (radius ** prof.p + 1.0) * (1.0 + 1e-12)

    def test_boxed_gaussian_under_the_identity_map_has_no_profile(self):
        base = TruncatedGaussian([0.0, 0.0], np.eye(2), lo=[-1.0, -1.0], hi=[1.0, 1.0])
        assert certified_profile(MirroredTarget(base, EuclideanMap(2))) is None

    def test_unknown_rule_raises(self):
        with pytest.raises(ConfigError):
            certified_profile(Dirichlet([1.0, 1.0]))


class TestRegistry:
    def test_round_trips(self):
        target = make_target("dirichlet", {"concentration": [5.0, 5.0, 5.0]})
        assert isinstance(target, Dirichlet)
        target = make_target("mirrored-power-law", {"power": 4.0, "dim": 1})
        assert isinstance(target, MirroredPowerLaw)
        target = make_target(
            "truncated-gaussian",
            {"mean": [0.0, 0.0, 0.0], "cov": 1.0, "lo": [-1.0] * 3, "hi": [1.0] * 3},
        )
        assert isinstance(target, TruncatedGaussian)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown target"):
            make_target("gaussian-mixture")

    def test_bad_parameters(self):
        with pytest.raises(ConfigError, match="bad parameters"):
            make_target("dirichlet", {"alpha": [1.0, 1.0]})


class TestBoxSampling:
    def test_box_samples_stay_interior(self, rng):
        lo = np.array([-1.0, 0.0])
        hi = np.array([1.0, 2.0])
        pts = sample_box_interior(rng, 50, lo, hi)
        target = TruncatedGaussian(np.zeros(2), np.eye(2), lo=lo, hi=hi)
        target.log_density_unnorm(pts)
