"""Constants and bounds: formula values against independent arithmetic,
moments against Monte Carlo, the particle Stein-Fisher estimator against a
straight-loop reference, and quadrature constants against closed forms."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sample_box_interior, sample_simplex_interior

from msvgd import kernels, theory
from msvgd.cli import _resolve_config_path
from msvgd.config import build_runtime, load_config
from msvgd.engine import ParticleField, update_field
from msvgd.errors import ConfigError, DomainError, NumericsError
from msvgd.kernels import DualIMQKernel, IMQKernel, RBFKernel, RescaledKernel
from msvgd.mirrors import EntropicBoxMap, EntropicSimplexMap, EuclideanMap
from msvgd.targets import Dirichlet, MirroredTarget, TruncatedGaussian
from msvgd.theory import (
    DiagnosticsRecord,
    SmoothnessProfile,
    a_n,
    c_pi_p,
    dual_log_partition,
    exp_grad_bound,
    g_p,
    gaussian_moment,
    iteration_estimate,
    kl0_upper_bound,
    log_sum_exp,
    step_size_bound,
    step_size_bound_tp,
    step_size_cap,
    stein_fisher_particles,
    w_p_to_point_mass,
)


class DualStub:
    """Bare dual-space target: a potential, its gradient, a dimension."""

    def __init__(self, potential, grad=None, dim=1):
        self._potential = potential
        self._grad = grad
        self.dim = dim

    def potential(self, x):
        return self._potential(np.atleast_2d(np.asarray(x, dtype=float)))

    def grad_potential(self, x):
        return self._grad(np.atleast_2d(np.asarray(x, dtype=float)))


def gauss_stub(dim=1):
    return DualStub(
        lambda x: 0.5 * np.sum(x * x, axis=1),
        grad=lambda x: x,
        dim=dim,
    )


def sq_exp_stub(dim=1):
    # density proportional to exp(-||x||^2)
    return DualStub(lambda x: np.sum(x * x, axis=1), dim=dim)


def quartic_stub():
    return DualStub(
        lambda x: np.sum(x ** 4, axis=1),
        grad=lambda x: 4.0 * x ** 3,
        dim=1,
    )


def profile(**kw):
    base = dict(l0=1.0, l1=0.0, c_p=1.0, p=1.0)
    base.update(kw)
    return SmoothnessProfile(**base)


class TestProfile:
    def test_validation(self):
        with pytest.raises(ConfigError):
            profile(alpha=1.0)
        with pytest.raises(ConfigError):
            profile(c_p=0.0)
        with pytest.raises(ConfigError):
            profile(p=0.5)
        with pytest.raises(ConfigError):
            profile(l0=-1.0)
        with pytest.raises(ConfigError):
            profile(lam=0.0)
        with pytest.raises(ConfigError):
            profile(provenance={"l0": "guessed"})
        with pytest.raises(ConfigError):
            profile(provenance={"nope": "user"})

    def test_tags_default_to_user(self):
        prof = profile(provenance={"l0": "analytic"})
        assert prof.tag("l0") == "analytic"
        assert prof.tag("c_p") == "user"

    def test_with_values_updates_and_tags(self):
        prof = profile().with_values("empirical", c_pi_p=3.0)
        assert prof.c_pi_p == 3.0
        assert prof.tag("c_pi_p") == "empirical"
        assert prof.tag("l0") == "user"


class TestDiagnosticsRecord:
    def test_roundoff_negative_allowed(self):
        rec = DiagnosticsRecord(step=3, stein_fisher=-5e-11, a_n=1.0, gamma=0.1)
        assert rec.kl is None
        assert rec.margins == {}

    def test_broken_estimate_rejected(self):
        with pytest.raises(NumericsError):
            DiagnosticsRecord(step=3, stein_fisher=-1e-6, a_n=1.0, gamma=0.1)

    def test_nan_estimate_rejected(self):
        with pytest.raises(NumericsError):
            DiagnosticsRecord(step=3, stein_fisher=float("nan"), a_n=1.0, gamma=0.1)


class TestGrowthFunction:
    def test_zero(self):
        assert g_p(0.0, 1.0) == 0.0
        assert g_p(0.0, 3.0) == 0.0

    def test_arithmetic_values(self):
        assert g_p(2.0, 1.0) == pytest.approx(3.0, abs=1e-15)
        assert g_p(4.0, 2.0) == pytest.approx(2.0 + 2.0 ** 0.25, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_p(-1e-9, 1.0)
        with pytest.raises(DomainError):
            g_p(1.0, 0.5)

    @given(
        x=st.floats(0.0, 1e6),
        bump=st.floats(0.0, 1e6),
        p=st.floats(1.0, 8.0),
    )
    def test_monotone(self, x, bump, p):
        assert g_p(x + bump, p) >= g_p(x, p)


class TestGaussianMoment:
    def test_exact_values(self):
        # E||X||^2 in R^2 and R^d, E|X| in R^1.
        assert gaussian_moment(1.0, 2) == pytest.approx(2.0, abs=1e-12)
        assert gaussian_moment(1.0, 5) == pytest.approx(5.0, rel=1e-12)
        assert gaussian_moment(0.0, 1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
        # p -> -1 collapses to the total mass.
        assert gaussian_moment(-1.0, 3) == pytest.approx(1.0, abs=1e-12)

    def test_matches_monte_carlo(self, rng):
        n = 200_000
        for p in (1.0, 2.0, 3.0):
            for d in (1, 2, 3, 5):
                x = rng.standard_normal((n, d))
                r = np.sqrt(np.sum(x * x, axis=1)) ** (p + 1.0)
                se = np.std(r) / math.sqrt(n)
                assert abs(gaussian_moment(p, d) - np.mean(r)) <= 3.0 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_moment(1.0, 0)
        with pytest.raises(DomainError):
            gaussian_moment(-2.0, 1)


class TestWpToPointMass:
    def test_second_moment_root_is_sqrt_dim(self):
        for d in (1, 2, 7):
            assert w_p_to_point_mass(2.0, d) == pytest.approx(math.sqrt(d), rel=1e-12)

    def test_first_moment(self):
        assert w_p_to_point_mass(1.0, 3) == pytest.approx(gaussian_moment(0.0, 3), rel=1e-15)


def _cap_reference(x, l0, l1, alpha, b1, b2, k, d):
    # Independent rewrite: collect candidate ceilings, take the smallest.
    candidates = []
    small = min(
        1.0 / (b1 * l1) if b1 * l1 > 0 else math.inf,
        (alpha - 1.0) * k / (alpha * b2 * d) if b2 * d > 0 else math.inf,
    )
    denom = k * b1 * x + b2 * d
    if math.isfinite(small) or denom > 0:
        candidates.append(small * k / denom if denom > 0 else math.inf)
    else:
        candidates.append(math.inf)
    quad = alpha ** 2 * b2 ** 2 * d ** 2 + k ** 2 * b1 ** 2 * (math.e - 1.0) * (l1 * x + l0)
    candidates.append(k ** 2 / quad if quad > 0 else math.inf)
    return min(candidates)


class TestStepSizeCap:
    def test_matches_reference_and_monotone(self, rng):
        for _ in range(10_000):
            l0, l1, c_p, b1, b2, k = rng.uniform(0.01, 10.0, size=6)
            alpha = rng.uniform(1.01, 5.0)
            d = int(rng.integers(1, 6))
            x1, x2 = np.sort(rng.uniform(0.0, 100.0, size=2))
            prof = SmoothnessProfile(l0=l0, l1=l1, c_p=c_p, p=1.0, alpha=alpha)
            got1 = step_size_cap(x1, prof, (b1, b2), k, d)
            got2 = step_size_cap(x2, prof, (b1, b2), k, d)
            assert got1 == pytest.approx(_cap_reference(x1, l0, l1, alpha, b1, b2, k, d), rel=1e-12)
            assert got1 >= got2

    def test_degenerate_pieces_drop_out(self):
        prof = profile(l0=2.0, l1=0.0, c_p=1.0, p=1.0)
        got = step_size_cap(7.0, prof, (3.0, 0.0), 1.0, 4)
        assert got == pytest.approx(1.0 / ((math.e - 1.0) * 9.0 * 2.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            step_size_cap(-1.0, profile(), (1.0, 1.0), 1.0, 1)
        with pytest.raises(DomainError):
            theory.step_size_cap_exact(-1.0, 1.0, profile(), (1.0, 1.0), 1.0, 1)

    def test_exact_form_reduces_to_worst_case_substitution(self, rng):
        # the x-parameterized cap is the exact cap with the field norm and
        # growth statistic replaced by their bounds in terms of x
        for _ in range(2_000):
            l0, l1, c_p, b1, b2, k = rng.uniform(0.01, 10.0, size=6)
            alpha = rng.uniform(1.01, 5.0)
            d = int(rng.integers(1, 6))
            x = rng.uniform(0.0, 100.0)
            prof = SmoothnessProfile(l0=l0, l1=l1, c_p=c_p, p=1.0, alpha=alpha)
            via_x = step_size_cap(x, prof, (b1, b2), k, d)
            direct = theory.step_size_cap_exact(
                b1 * x + b2 * d / k, l0 + l1 * x, prof, (b1, b2), k, d
            )
            assert direct == pytest.approx(via_x, rel=1e-12)

    def test_exact_form_degenerate_arguments(self):
        prof = profile(l0=2.0, l1=1.0, c_p=1.0, p=1.0)
        # a zero field norm removes the first two branches entirely
        got = theory.step_size_cap_exact(0.0, 2.0, prof, (1.0, 1.0), 1.0, 1)
        third = 1.0 / (prof.alpha**2 + (math.e - 1.0) * 2.0)
        assert got == pytest.approx(third, rel=1e-14)

    @given(
        x=st.floats(0.0, 1e4),
        bump=st.floats(0.0, 1e4),
        l0=st.floats(0.01, 50.0),
        l1=st.floats(0.0, 10.0),
        b1=st.floats(0.01, 10.0),
        b2=st.floats(0.0, 10.0),
        k=st.floats(0.01, 10.0),
        alpha=st.floats(1.001, 10.0),
        d=st.integers(1, 10),
    )
    @settings(max_examples=200)
    def test_monotone_property(self, x, bump, l0, l1, b1, b2, k, alpha, d):
        prof = SmoothnessProfile(l0=l0, l1=l1, c_p=1.0, p=1.0, alpha=alpha)
        assert step_size_cap(x, prof, (b1, b2), k, d) >= step_size_cap(
            x + bump, prof, (b1, b2), k, d
        )


class TestExpGradBound:
    def test_zero_everything_gives_c_p(self):
        prof = profile(c_p=3.5, p=2.0, c_pi_p=4.0)
        assert exp_grad_bound(0.0, 0.0, 0.0, prof) == pytest.approx(3.5, abs=1e-15)

    def test_general_arithmetic(self):
        prof = profile(c_p=2.0, p=2.0, c_pi_p=3.0)
        want = 2.0 * (3.0 * (g_p(1.0, 2.0) + g_p(4.0, 2.0)) + 0.5) ** 2 + 2.0
        assert exp_grad_bound(1.0, 4.0, 0.5, prof) == pytest.approx(want, rel=1e-15)

    def test_tp_arithmetic(self):
        prof = profile(c_p=1.5, p=2.0, lam=2.0)
        want = 1.5 * (2.0 * math.sqrt(2.0) + 0.25) ** 2 + 1.5
        assert exp_grad_bound(2.0, 2.0, 0.25, prof, mode="tp") == pytest.approx(want, rel=1e-15)

    def test_negative_kl_floored(self):
        prof = profile(c_p=1.0, p=1.0, c_pi_p=1.0)
        assert exp_grad_bound(-0.3, -0.3, 0.0, prof) == pytest.approx(1.0, abs=1e-15)

    def test_missing_constants(self):
        with pytest.raises(ConfigError, match="c_pi_p"):
            exp_grad_bound(1.0, 1.0, 0.0, profile())
        with pytest.raises(ConfigError, match="lam"):
            exp_grad_bound(1.0, 1.0, 0.0, profile(c_pi_p=1.0), mode="tp")
        with pytest.raises(ConfigError, match="1 <= p <= 2"):
            exp_grad_bound(1.0, 1.0, 0.0, profile(p=3.0, lam=1.0), mode="tp")
        with pytest.raises(ConfigError, match="mode"):
            exp_grad_bound(1.0, 1.0, 0.0, profile(c_pi_p=1.0), mode="fast")


class TestStepSizeBound:
    def test_positive_and_consistent_with_cap(self):
        prof = profile(l0=108.0, l1=1.0, c_p=4.0, p=3.0, c_pi_p=2.3)
        got = step_size_bound(prof, (1.0, 1.0), 1.0, 1, kl0_upper=5.4)
        x = exp_grad_bound(5.4, 5.4, w_p_to_point_mass(3.0, 1), prof)
        assert got > 0.0
        assert got == pytest.approx(step_size_cap(x, prof, (1.0, 1.0), 1.0, 1), rel=1e-15)

    def test_missing_c_pi_p_points_to_tp_mode(self):
        with pytest.raises(ConfigError, match="c_pi_p"):
            step_size_bound(profile(), (1.0, 1.0), 1.0, 1, kl0_upper=1.0)

    def test_tp_zero_kl_reduction(self):
        prof = profile(c_p=2.0, p=2.0, lam=1.0)
        w = w_p_to_point_mass(2.0, 3)
        got = step_size_bound_tp(prof, (1.0, 1.0), 1.0, 3, kl0_upper=0.0)
        x = 2.0 * w ** 2 + 2.0
        assert got == pytest.approx(step_size_cap(x, prof, (1.0, 1.0), 1.0, 3), rel=1e-14)

    def test_tp_huge_lambda_matches_zero_kl(self):
        prof_inf = profile(c_p=2.0, p=2.0, lam=1e300)
        prof = profile(c_p=2.0, p=2.0, lam=1.0)
        a = step_size_bound_tp(prof_inf, (1.0, 1.0), 1.0, 3, kl0_upper=7.0)
        b = step_size_bound_tp(prof, (1.0, 1.0), 1.0, 3, kl0_upper=0.0)
        assert a == pytest.approx(b, rel=1e-12)


class TestIterationEstimate:
    def test_tp_plug_in(self):
        prof = profile(c_p=1.0, p=2.0, lam=1.0)
        assert iteration_estimate(prof, eps=0.1, d=4, mode="tp") == 640

    def test_general_dimension_ratio(self):
        # p = 1 makes the gamma-ratio term (d/2)^2 exactly.
        prof = profile(p=1.0, c_pi_p=1.0)
        assert iteration_estimate(prof, eps=1.0, d=2) == 2
        assert iteration_estimate(prof, eps=1.0, d=4) == 8
        assert iteration_estimate(prof, eps=0.5, d=2) == 4
        assert iteration_estimate(prof, eps=0.5, d=4) == 16

    def test_missing_constants(self):
        with pytest.raises(ConfigError):
            iteration_estimate(profile(), eps=0.1, d=1)
        with pytest.raises(ConfigError):
            iteration_estimate(profile(c_pi_p=1.0), eps=0.1, d=1, mode="tp")
        with pytest.raises(ConfigError):
            iteration_estimate(profile(c_pi_p=1.0), eps=0.0, d=1)
        for eps in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite eps"):
                iteration_estimate(profile(c_pi_p=1.0), eps=eps, d=1)


class TestLogPartition:
    def test_standard_normal(self):
        got = dual_log_partition(gauss_stub())
        assert got == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-10)

    def test_quartic(self):
        quartic_mass = math.gamma(0.25) / 2.0
        got = dual_log_partition(quartic_stub())
        assert got == pytest.approx(math.log(quartic_mass), abs=1e-10)

    def test_2d_product(self):
        got = dual_log_partition(gauss_stub(dim=2), nodes=512)
        assert got == pytest.approx(math.log(2.0 * math.pi), abs=1e-8)

    def test_dim_cap(self):
        with pytest.raises(ConfigError):
            dual_log_partition(gauss_stub(dim=3))

    def test_simplex_dual_mass_is_beta_function(self):
        # Pushforward preserves mass, so the unnormalized dual integral is
        # the Beta function of the concentration.  The bracketing probes
        # reach far past where the chart underflows, so this also pins the
        # log-coordinate evaluation path.
        target = MirroredTarget(Dirichlet([3.0, 2.0]), EntropicSimplexMap(1))
        want = math.lgamma(3.0) + math.lgamma(2.0) - math.lgamma(5.0)
        assert dual_log_partition(target) == pytest.approx(want, abs=1e-9)


class TestKl0UpperBound:
    def test_arithmetic_d1(self):
        # Unnormalized origin value 0: pass log_partition = 0 to pin the raw formula.
        flat = DualStub(lambda x: np.zeros(x.shape[0]), dim=1)
        got = kl0_upper_bound(flat, profile(c_p=1.0, p=1.0), dim=1, log_partition=0.0)
        want = (
            -0.5 * math.log(2.0 * math.pi * math.e)
            + 0.5 * (2.0 * math.gamma(1.5) / math.gamma(0.5)
                     + 2.0 * math.sqrt(2.0) * math.gamma(1.0) / math.gamma(0.5))
        )
        assert got == pytest.approx(want, rel=1e-12)
        assert got < 0.0  # the formula may dip below zero; consumers floor it

    def test_origin_shift_is_additive(self):
        flat = DualStub(lambda x: np.zeros(x.shape[0]), dim=1)
        lifted = DualStub(lambda x: np.full(x.shape[0], 2.5), dim=1)
        prof = profile(c_p=1.0, p=1.0)
        base = kl0_upper_bound(flat, prof, dim=1, log_partition=0.0)
        got = kl0_upper_bound(lifted, prof, dim=1, log_partition=0.0)
        assert got == pytest.approx(base + 2.5, rel=1e-12)

    def test_valid_for_matching_gaussian(self):
        # KL(N(0,1) | N(0,1)) = 0; the bound must sit above it once the
        # potential is normalized, which the quadrature partition does.
        got = kl0_upper_bound(gauss_stub(), profile(c_p=1.0, p=1.0))
        assert got >= 0.0
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-8)


def _log_abs_moment_gauss(s):
    # E exp(s|X|) for X ~ N(0,1): 2 e^{s^2/2} Phi(s).
    phi = 0.5 * (1.0 + math.erf(s / math.sqrt(2.0)))
    return 0.5 * s * s + math.log(2.0 * phi)


class TestCPiP:
    def test_gaussian_p1_matches_closed_form(self):
        got = c_pi_p(gauss_stub(), p=1.0)
        grid = np.logspace(-3.0, 2.0, 64)
        want = 2.0 * min((1.5 + _log_abs_moment_gauss(s)) / s for s in grid)
        assert got == pytest.approx(want, rel=1e-5)

    def test_sq_exp_p2_divergent_rates_excluded(self):
        # Density exp(-x^2): the moment at exponent 2 is finite only for
        # s < 1, where log E = -(1/2) log(1 - s).
        got = c_pi_p(sq_exp_stub(), p=2.0)
        grid = np.logspace(-3.0, 2.0, 64)
        want = 2.0 * min(
            math.sqrt((1.5 - 0.5 * math.log1p(-s)) / s) for s in grid if s < 1.0
        )
        assert got == pytest.approx(want, rel=1e-4)

    def test_dimension_growth_sanity(self):
        one = c_pi_p(sq_exp_stub(dim=1), p=2.0)
        two = c_pi_p(sq_exp_stub(dim=2), p=2.0)
        assert 1.0 <= two / one <= 1.5

    def test_quartic_all_rates_converge_at_p3(self):
        got = c_pi_p(quartic_stub(), p=3.0)
        assert 1.0 < got < 4.0

    def test_quartic_p4_keeps_only_subcritical_rates(self):
        got = c_pi_p(quartic_stub(), p=4.0)
        assert math.isfinite(got) and got > 0.0

    def test_dirichlet_simplex_pair(self):
        # Dual density of Dirichlet(3, 2) under the entropic chart is
        # exp(3x) / (1 + exp(x))^5; its exponential moment at p=1 converges
        # only for s < 2 (the slack tail rate), so the supercritical part of
        # the rate grid must be excluded and the minimum reproduced here by
        # direct quadrature over the subcritical rates.
        target = MirroredTarget(Dirichlet([3.0, 2.0]), EntropicSimplexMap(1))
        got = c_pi_p(target, p=1.0)

        x = np.linspace(-300.0, 300.0, 1 << 17)
        logpdf = 3.0 * x - 5.0 * np.logaddexp(0.0, x)
        log_mass = np.logaddexp.reduce(np.sort(logpdf))
        weights = np.exp(logpdf - log_mass)
        center = float(weights @ x)
        best = math.inf
        for s in np.logspace(-3.0, 2.0, 64):
            if s >= 1.8:
                continue
            log_moment = float(np.logaddexp.reduce(
                np.sort(logpdf + s * np.abs(x - center))) - log_mass)
            best = min(best, (1.5 + max(log_moment, 0.0)) / s)
        assert got == pytest.approx(2.0 * best, rel=1e-4)

    def test_one_potential_evaluation_per_box_and_ray_set(self, monkeypatch):
        # 64 growth rates walk the same boxes and rays; at most the 15 boxes
        # and 15 ray sets of each bracket are evaluated, not one per rate
        target = _preset_bundle("dirichlet-simplex-d2").mirrored
        calls = []
        original = target.potential
        monkeypatch.setattr(target, "potential", lambda q: calls.append(len(q)) or original(q))
        c_pi_p(target, p=1.0)
        assert 0 < len(calls) <= 30
        # Rays go first, so a box whose rays still rise is never evaluated,
        # and the moments' walk starts on the target box, whose potential
        # the target walk has already evaluated: 329 312 points are, and the
        # bound allows one more 256 x 256 box with its 96 ray probes.  Box
        # first and with no shared box, the walks evaluated 1 114 593.
        assert sum(calls) <= 329_312 + 65_536 + 96

    def test_divergent_for_every_rate(self):
        with pytest.raises(DomainError, match="diverges"):
            c_pi_p(gauss_stub(), p=3.0, num_s=5, s_max=10.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_pi_p(gauss_stub(), p=0.5)


def _box_first_walk(bracket, logf, max_doublings=14):
    """The bracket walk as first written, kept as the oracle of the
    rays-first one: each level's box, then its rays."""
    for level in range(max_doublings + 1):
        grid, arrays = bracket.box(level)
        vals = np.asarray(logf(arrays), dtype=float)
        if theory._tail_clears(vals, grid):
            far = np.asarray(logf(bracket.rays(level)), dtype=float)
            if np.all(np.diff(far.reshape(theory._RAY_DOUBLINGS, -1), axis=0) <= 0.0):
                return level, grid, vals
    return None


def _walk_targets():
    return {
        "dirichlet-2d": _preset_bundle("dirichlet-simplex-d2").mirrored,
        "dirichlet-1d": MirroredTarget(Dirichlet([3.0, 2.0]), EntropicSimplexMap(1)),
        "quartic": quartic_stub(),
    }


class TestBracketWalk:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["dirichlet-2d", "dirichlet-1d", "quartic"]),
        log_s=st.floats(-4.0, 3.0),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 5.0]),
        shift=st.floats(-2.0, 2.0),
        start=st.floats(0.5, 16.0),
    )
    # walks that end at levels 3 and 6 after passing rays over failing boxes,
    # and a divergent one whose boxes are never evaluated
    @example(name="dirichlet-2d", log_s=-0.5, p=1.0, shift=0.3, start=2.0)
    @example(name="dirichlet-2d", log_s=0.2, p=1.0, shift=0.0, start=0.5)
    @example(name="dirichlet-1d", log_s=0.0, p=1.0, shift=-0.5, start=1.0)
    @example(name="quartic", log_s=-0.3, p=4.0, shift=0.0, start=0.5)
    @example(name="quartic", log_s=0.5, p=4.0, shift=1.0, start=1.0)
    def test_rays_first_matches_box_first(self, name, log_s, p, shift, start):
        # The c_pi_p log-integrand s ||q - center||^p - V(q) at one growth
        # rate; small boxes keep each example cheap, and the walk does not
        # depend on the node count.
        target = _walk_targets()[name]
        dim = int(target.dim)
        center = np.full(dim, shift)
        s = 10.0 ** log_s

        def evaluate(q):
            return (np.sqrt(np.sum((q - center) ** 2, axis=1)) ** p,
                    np.asarray(target.potential(q), dtype=float))

        def logf(arrays):
            return s * arrays[0] - arrays[1]

        nodes = 48 if dim == 2 else 512
        got = theory._expand_until_decay(theory._Bracket(evaluate, dim, nodes, start), logf)
        want = _box_first_walk(theory._Bracket(evaluate, dim, nodes, start), logf)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert got[1].log_weights.tobytes() == want[1].log_weights.tobytes()
            assert got[2].tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("name", ["dirichlet-2d", "dirichlet-1d", "quartic"])
    def test_target_walk_matches_box_first(self, name):
        target = _walk_targets()[name]
        dim = int(target.dim)
        nodes = theory._default_nodes(dim)

        def evaluate(q):
            return -np.asarray(target.potential(q), dtype=float)

        got = theory._expand_until_decay(theory._Bracket(evaluate, dim, nodes, 8.0),
                                         lambda v: v)
        want = _box_first_walk(theory._Bracket(evaluate, dim, nodes, 8.0), lambda v: v)
        assert got[0] == want[0]
        assert got[1].log_weights.tobytes() == want[1].log_weights.tobytes()
        assert got[2].tobytes() == want[2].tobytes()


class TestLogSumExp:
    @staticmethod
    def _reference(values):
        """Sorted pairwise logaddexp in long double."""
        return float(np.logaddexp.reduce(np.sort(np.asarray(values, dtype=np.longdouble))))

    def test_all_minus_inf(self):
        assert log_sum_exp(np.full(7, -np.inf)) == -np.inf

    @pytest.mark.parametrize("value", [-1e4, -3.5, 0.0, 2.25, 7e3])
    def test_single_value(self, value):
        assert log_sum_exp(np.array([value])) == value

    @pytest.mark.parametrize("offset", [-2e4, 5e3, 1.5e4])
    def test_wide_spread_matches_long_double(self, rng, offset):
        # 65 536 values over 10^4 nats, the size of a 2-D quadrature box
        values = offset - rng.uniform(0.0, 1e4, 65536)
        values[rng.integers(0, 65536, 50)] = -np.inf
        ref = self._reference(values)
        assert abs(log_sum_exp(values) - ref) <= 1e-15 * abs(ref)

    def test_many_comparable_terms_match_long_double(self, rng):
        values = 20.0 + 3.0 * rng.normal(size=65536)
        ref = self._reference(values)
        assert abs(log_sum_exp(values) - ref) <= 1e-15 * abs(ref)


def _preset_bundle(name):
    """A preset's live objects, with no constant priced yet."""
    return build_runtime(load_config(_resolve_config_path(name)), resolve_gamma=False)


class TestCertify:
    @pytest.mark.parametrize("name", ["quartic-1d-descent", "dirichlet-simplex-d2"])
    def test_equals_the_free_function_composition(self, name):
        bundle = _preset_bundle(name)
        setting = (bundle.kernel.bounds(), bundle.mirror_map.strong_convexity, bundle.dim)
        cert = theory.certify(bundle.mirrored, bundle.profile, *setting)

        profile = bundle.profile.with_values(
            "empirical", c_pi_p=c_pi_p(bundle.mirrored, bundle.profile.p))
        kl0 = kl0_upper_bound(bundle.mirrored, profile, dim=bundle.dim)
        assert cert.profile == profile
        assert cert.kl0_upper == kl0
        assert cert.fixed_cap == step_size_bound(profile, *setting, kl0)
        assert (cert.kernel_bounds, cert.strong_convexity, cert.dim) == setting

    @pytest.mark.parametrize("given_c_pi_p", [None, 2.5])
    def test_brackets_the_target_once(self, monkeypatch, given_c_pi_p):
        bundle = _preset_bundle("quartic-1d-descent")
        assert bundle.profile.c_pi_p is None
        profile = bundle.profile
        if given_c_pi_p is not None:
            profile = profile.with_values("user", c_pi_p=given_c_pi_p)
        calls = []
        original = theory._target_grid

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(theory, "_target_grid", counting)
        theory.certify(bundle.mirrored, profile, bundle.kernel.bounds(), 1.0, 1)
        assert len(calls) == 1

    def test_c_pi_p_starts_on_the_bracketed_box(self, monkeypatch):
        # The target walk ends on the box that c_pi_p's walk starts on, so
        # c_pi_p takes its potential from certify: 5 boxes of 256 x 256
        # nodes are evaluated in all, not 6, and the constant is unchanged.
        bundle = _preset_bundle("dirichlet-simplex-d2")
        setting = (bundle.kernel.bounds(), bundle.mirror_map.strong_convexity, bundle.dim)
        boxes = []
        original = theory._potential

        def counting(target, q):
            if len(q) == 256 * 256:
                boxes.append(len(q))
            return original(target, q)

        monkeypatch.setattr(theory, "_potential", counting)
        seeded = theory.certify(bundle.mirrored, bundle.profile, *setting)
        assert len(boxes) == 5
        boxes.clear()
        monkeypatch.setattr(theory._Bracket, "seed", lambda *args: None)
        walked = theory.certify(bundle.mirrored, bundle.profile, *setting)
        assert len(boxes) == 6
        assert seeded.profile.c_pi_p == walked.profile.c_pi_p
        assert seeded == walked

    def test_a_given_c_pi_p_is_not_repriced(self, monkeypatch):
        bundle = _preset_bundle("quartic-1d-descent")
        profile = bundle.profile.with_values("user", c_pi_p=2.5)
        monkeypatch.setattr(theory, "c_pi_p", None)
        cert = theory.certify(bundle.mirrored, profile, bundle.kernel.bounds(), 1.0, 1)
        assert cert.profile is profile
        assert cert.profile.tag("c_pi_p") == "user"


class ScoreStub:
    def __init__(self, score):
        self.grad_log_density = score


class TestAn:
    def test_l1_zero_ignores_ensemble(self):
        assert a_n(None, None, profile(l0=3.0, l1=0.0)) == 3.0

    def test_quartic_mean(self):
        x = np.array([[0.5], [-1.0], [2.0]])
        prof = profile(l0=2.0, l1=0.5, c_p=4.0, p=3.0)
        want = 2.0 + 0.5 * np.mean([4.0 * 0.125, 4.0, 32.0])
        assert a_n(x, quartic_stub(), prof) == pytest.approx(want, rel=1e-14)


def _imq_pieces(diff, c=1.0, beta=-0.5):
    t = float(diff @ diff)
    base = c * c + t
    k = base ** beta
    dk_dx = 2.0 * beta * base ** (beta - 1.0) * diff
    trace = sum(
        -4.0 * beta * (beta - 1.0) * base ** (beta - 2.0) * diff[l] ** 2
        - 2.0 * beta * base ** (beta - 1.0)
        for l in range(diff.shape[0])
    )
    return k, dk_dx, trace


def _ksd_reference(x, score):
    n, _ = x.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            k, dk_dxi, trace = _imq_pieces(x[i] - x[j])
            total += float(score[i] @ score[j]) * k
            total += float(score[i] @ (-dk_dxi))  # derivative in the second slot
            total += float(score[j] @ dk_dxi)
            total += trace
    return total / n ** 2


def _sf(cloud, target, mirror_map, kernel, **kwargs):
    """stein_fisher_particles on the field the engine builds for the cloud."""
    ensemble = cloud if hasattr(cloud, "primal") else SimpleNamespace(primal=cloud)
    field = update_field(ensemble, target, mirror_map, kernel)
    return stein_fisher_particles(cloud, kernel, field, **kwargs)


def _v_statistic(theta, target, mirror_map, kernel):
    """The four-block V-statistic, gram block included, pair by pair."""
    n = theta.shape[0]
    hinv = mirror_map.hess_psi_inv(theta)
    op = np.einsum("nde,ne->nd", hinv, target.grad_log_density(theta))
    op += mirror_map.div_hess_psi_inv(theta)
    gram = kernel.gram(theta, theta)
    grad1 = kernel.grad1_gram(theta, theta)
    grad12 = kernel.grad12_gram(theta, theta)
    total = 0.0
    for b in range(n):
        for j in range(n):
            total += gram[b, j] * float(op[b] @ op[j])
            total += 2.0 * float(op[j] @ hinv[b] @ grad1[b, j])
            total += float(np.trace(hinv[b] @ grad12[b, j] @ hinv[j]))
    return total / n ** 2


class TestSteinFisherParticles:
    @pytest.mark.parametrize("d, kernel", [(1, IMQKernel()), (2, RBFKernel(0.7)),
                                           (2, RBFKernel("median"))])
    def test_matches_v_statistic_on_the_simplex(self, rng, d, kernel):
        theta = sample_simplex_interior(rng, 30, d, margin=1e-3)
        target = Dirichlet([2.0] * (d + 1))
        mirror_map = EntropicSimplexMap(d)
        got = _sf(theta, target, mirror_map, kernel)
        assert got == pytest.approx(_v_statistic(theta, target, mirror_map, kernel), rel=1e-12)

    @pytest.mark.parametrize("map_name", ["box", "euclidean", "simplex"])
    @pytest.mark.parametrize("kernel_name", ["imq", "rescaled-rbf", "dual-imq"])
    def test_matches_v_statistic_on_every_map(self, rng, map_name, kernel_name):
        lo, hi = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 2.0, 1.0])
        if map_name == "box":
            mirror_map = EntropicBoxMap(lo, hi)
            theta = sample_box_interior(rng, 30, lo, hi)
        elif map_name == "euclidean":
            mirror_map = EuclideanMap(3)
            theta = rng.standard_normal((30, 3))
        else:
            mirror_map = EntropicSimplexMap(3)
            theta = sample_simplex_interior(rng, 30, 3, margin=1e-3)
        target = TruncatedGaussian([0.2, -0.1, 0.0], [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1],
                                                      [0.0, 0.1, 1.2]])
        kernel = {"imq": IMQKernel(c=0.8), "rescaled-rbf": RescaledKernel(RBFKernel(0.7), 1.5),
                  "dual-imq": DualIMQKernel(mirror_map)}[kernel_name]
        got = _sf(theta, target, mirror_map, kernel)
        assert got == pytest.approx(_v_statistic(theta, target, mirror_map, kernel), rel=1e-12)

    def test_dual_imq_snapshot_builds_no_gram_blocks(self):
        lo, hi = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 2.0, 1.0])
        mirror_map = EntropicBoxMap(lo, hi)
        theta = sample_box_interior(np.random.default_rng(1), 1000, lo, hi)
        target = TruncatedGaussian([0.2, -0.1, 0.0], np.eye(3), lo=lo, hi=hi)
        kernel = DualIMQKernel(mirror_map)
        field = update_field(SimpleNamespace(primal=theta), target, mirror_map, kernel)
        tracemalloc.start()
        try:
            stein_fisher_particles(theta, kernel, field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The three n x n factors are 24 MB and the peak reads 48 MB, as for
        # imq.  Gram blocks would be 1 + d + d^2 = 13 n x n arrays (104 MB),
        # and the snapshot on them peaked at 216 MB.
        assert peak < 80e6

    def test_rejects_a_field_of_the_wrong_shape(self, rng):
        x = rng.standard_normal((6, 2))
        with pytest.raises(ValueError, match="velocity has shape"):
            stein_fisher_particles(x, IMQKernel(), ParticleField(
                np.zeros((6, 1)), np.zeros((6, 2)), np.zeros((6, 2, 2))))

    def test_matches_reference_ksd_euclidean(self, rng):
        x = rng.standard_normal((25, 2))
        target = ScoreStub(lambda t: -t)
        got = _sf(x, target, EuclideanMap(2), IMQKernel())
        assert got == pytest.approx(_ksd_reference(x, -x), rel=1e-12)

    def test_single_particle_positive_through_derivative_block(self):
        theta = np.array([[0.5]])
        target = ScoreStub(lambda t: np.zeros_like(t))
        got = _sf(theta, target, EntropicSimplexMap(1), IMQKernel())
        # operand is zero at theta = 1/2, so only the derivative block
        # contributes: (theta(1-theta))^2 * (-2 f'(0)) = 0.25^2 * 1.
        assert got == pytest.approx(0.0625, rel=1e-13)

    def test_chunking_does_not_change_the_value(self, rng, monkeypatch):
        x = rng.standard_normal((37, 2))
        target = ScoreStub(lambda t: -t)
        full = _sf(x, target, EuclideanMap(2), IMQKernel())
        # at most seven rows per tile: six ranges of 6 or 7 rows
        monkeypatch.setattr(kernels, "TILE_ROWS", 7)
        cached = _sf(x, target, EuclideanMap(2), IMQKernel())
        monkeypatch.setattr(kernels, "PRECOMPUTE_BYTES", 0)
        streamed = _sf(x, target, EuclideanMap(2), IMQKernel())
        # both ways run one loop over the same tiles
        assert streamed == cached
        assert streamed == pytest.approx(full, rel=1e-13)

    def test_nonnegative_on_random_clouds(self, rng):
        for d in (1, 2, 3):
            theta = sample_simplex_interior(rng, 40, d)
            target = ScoreStub(lambda t: np.ones_like(t))
            got = _sf(theta, target, EntropicSimplexMap(d), RBFKernel(0.7))
            assert got >= -1e-10

    def test_accepts_ensemble_objects(self, rng):
        x = rng.standard_normal((10, 2))

        class Bag:
            primal = x

        target = ScoreStub(lambda t: -t)
        assert _sf(Bag(), target, EuclideanMap(2), IMQKernel()) == (
            _sf(x, target, EuclideanMap(2), IMQKernel())
        )

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_property(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((12, 2))
        target = ScoreStub(lambda t: np.sin(t))
        got = _sf(x, target, EuclideanMap(2), IMQKernel())
        assert got >= -1e-10
