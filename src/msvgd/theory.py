"""Constants, growth functions, and admissible step sizes for the mirrored flow.

Almost everything here evaluates a closed-form expression: moments of the
standard normal start, an upper bound on its KL divergence from the target,
the largest step size under which the descent inequality is certified, and
iteration-count estimates at unit leading constants.  The exponential-moment
constant ``c_pi_p`` is the exception: it is bounded from above by 1D/2D
quadrature, with an explicit tail-decay test standing in for the moment
assumption it encodes.  Its growth rates s all walk the same bracketing
boxes and rays, and only the s * ||x - x0||^p term depends on s, so the
potential is evaluated once per box and once per ray set in a call.  The
walk tests a level's few ray probes before its box, so the boxes of rates
whose tails still rise are never evaluated.  Every quadrature sum is one
``log_sum_exp``.  Upper bounds are the safe direction throughout: a larger
``c_pi_p`` or initial-KL bound only shrinks the certified step size.

``Grid`` lives here, and one bracket walk sizes every quadrature box: the
boxes priced here and the grids of ``msvgd.gridflow``'s flows.

``certify`` is the one place that prices these constants for a run: it
fills in ``c_pi_p``, bounds the initial KL, and returns the fixed step size
with a per-state cap as one ``Certificate``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .kernels import kernel_operator

PROVENANCE_TAGS = ("analytic", "empirical", "user")

_PROFILE_FIELDS = ("l0", "l1", "c_p", "p", "lam", "c_pi_p", "alpha")


@dataclass(frozen=True)
class SmoothnessProfile:
    """Growth constants of a mirrored potential V.

    ``l0``/``l1`` bound the Hessian through ||hess V|| <= l0 + l1 ||grad V||;
    ``c_p`` and ``p`` bound the gradient through
    ||grad V(x)|| <= c_p (||x||^p + 1).  ``lam`` is an optional transport
    inequality constant (W_p^2 <= 2 KL / lam, usable for p in [1, 2]),
    ``c_pi_p`` an optional exponential-moment constant, and ``alpha`` > 1 the
    free split parameter of the step-size formula.  ``provenance`` tags each
    field "analytic", "empirical", or "user" (the default for untagged
    fields).
    """

    l0: float
    l1: float
    c_p: float
    p: float
    lam: float | None = None
    c_pi_p: float | None = None
    alpha: float = 2.0
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        checks = (
            (self.l0 >= 0.0, "l0 must be >= 0"),
            (self.l1 >= 0.0, "l1 must be >= 0"),
            (self.c_p > 0.0, "c_p must be > 0"),
            (self.p >= 1.0, "p must be >= 1"),
            (self.lam is None or self.lam > 0.0, "lam must be > 0 when given"),
            (self.c_pi_p is None or self.c_pi_p >= 0.0, "c_pi_p must be >= 0 when given"),
            (self.alpha > 1.0, "alpha must be > 1"),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(f"smoothness profile: {message}")
        for name, tag in self.provenance.items():
            if name not in _PROFILE_FIELDS:
                raise ConfigError(f"smoothness profile: provenance for unknown field {name!r}")
            if tag not in PROVENANCE_TAGS:
                raise ConfigError(
                    f"smoothness profile: provenance tag {tag!r} for {name!r} "
                    f"not one of {PROVENANCE_TAGS}"
                )

    def tag(self, name: str) -> str:
        if name not in _PROFILE_FIELDS:
            raise ConfigError(f"smoothness profile: unknown field {name!r}")
        return self.provenance.get(name, "user")

    def with_values(self, tag: str, **updates: float) -> "SmoothnessProfile":
        """Copy with updated constants, tagging each updated field with `tag`."""
        provenance = dict(self.provenance)
        provenance.update({name: tag for name in updates})
        return dataclasses.replace(self, provenance=provenance, **updates)


@dataclass
class DiagnosticsRecord:
    """One logged row of a run: current step, Stein-Fisher estimate, local
    smoothness level, step size, and (quadrature runs only) the KL value and
    per-bound margins."""

    step: int
    stein_fisher: float
    a_n: float
    gamma: float
    kl: float | None = None
    margins: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The estimator is a nonnegative quadratic form; anything below the
        # roundoff floor, or NaN, means the estimate itself is broken.
        if not self.stein_fisher >= -1e-10:
            raise NumericsError(
                f"stein_fisher estimate {self.stein_fisher!r} below the roundoff floor",
                step=self.step,
            )


def g_p(x: float, p: float) -> float:
    """Growth function x**(1/p) + (x/2)**(1/(2p)), increasing in x >= 0.

    Converts a KL value into the transport-distance scale it certifies.
    """
    if p < 1.0:
        raise DomainError(f"g_p requires p >= 1, got {p!r}")
    if x < 0.0:
        raise DomainError(f"g_p requires x >= 0, got {x!r}")
    return x ** (1.0 / p) + (0.5 * x) ** (0.5 / p)


def gaussian_moment(p: float, d: int) -> float:
    """E ||X||^(p+1) for X ~ N(0, I_d): 2^((p+1)/2) Gamma((p+d+1)/2) / Gamma(d/2).

    Evaluated through log-gamma so large (p, d) stay finite in float64.
    """
    if d < 1:
        raise DomainError(f"gaussian_moment requires d >= 1, got {d!r}")
    if p <= -d - 1:
        raise DomainError(f"gaussian_moment requires p > -d-1, got p={p!r} at d={d}")
    return math.exp(
        0.5 * (p + 1.0) * math.log(2.0)
        + math.lgamma(0.5 * (p + d + 1.0))
        - math.lgamma(0.5 * d)
    )


def w_p_to_point_mass(p: float, d: int) -> float:
    """p-Wasserstein distance from N(0, I_d) to a point mass at the origin.

    Equals the p-th moment root (E ||X||^p)^(1/p); the coupling to a point
    mass is forced, so this is exact, not a bound.
    """
    if p < 1.0:
        raise DomainError(f"w_p_to_point_mass requires p >= 1, got {p!r}")
    return gaussian_moment(p - 1.0, d) ** (1.0 / p)


def _reciprocal_or_inf(z: float) -> float:
    return math.inf if z == 0.0 else 1.0 / z


def step_size_cap(
    x: float,
    profile: SmoothnessProfile,
    kernel_bounds: tuple[float, float],
    strong_convexity: float,
    dim: int,
) -> float:
    """Largest certified step size when the mean mirrored-gradient norm is at
    most ``x``.  Nonincreasing in ``x``.

    This is step_size_cap_exact at the worst-case bounds of its measured
    arguments in terms of x:
    step_size_cap(x) == step_size_cap_exact(b1 x + b2 d / K, l0 + l1 x).
    Degenerate constants (l1 = 0, or a vanishing kernel-derivative bound)
    send individual pieces to infinity, and they drop out of the min; the
    result is finite whenever b1 > 0 and l0 + l1 x > 0.
    """
    if x < 0.0:
        raise DomainError(f"step_size_cap requires x >= 0, got {x!r}")
    b1, b2 = (float(b) for b in kernel_bounds)
    field_norm = b1 * x + b2 * float(dim) / float(strong_convexity)
    growth_stat = profile.l0 + profile.l1 * x
    return step_size_cap_exact(field_norm, growth_stat, profile, kernel_bounds,
                               strong_convexity, dim)


def step_size_cap_exact(
    field_norm: float,
    growth_stat: float,
    profile: SmoothnessProfile,
    kernel_bounds: tuple[float, float],
    strong_convexity: float,
    dim: int,
) -> float:
    """Per-state admissible step size from the measured quantities directly:
    the RKHS norm of the update field and the statistic l0 + l1 E||grad V||.
    step_size_cap evaluates it at their worst-case bounds.
    """
    if field_norm < 0.0 or growth_stat < 0.0:
        raise DomainError("step_size_cap_exact requires nonnegative arguments")
    b1, b2 = (float(b) for b in kernel_bounds)
    k = float(strong_convexity)
    d = float(dim)
    a = profile.alpha
    first = (a - 1.0) * k * _reciprocal_or_inf(a * b2 * d * field_norm)
    second = _reciprocal_or_inf(b1 * field_norm * profile.l1)
    third = k * k * _reciprocal_or_inf(
        a * a * b2 * b2 * d * d + k * k * b1 * b1 * (math.e - 1.0) * growth_stat
    )
    return min(first, second, third)


def exp_grad_bound(
    kl_n_upper: float,
    kl0_upper: float,
    w_p_mu0: float,
    profile: SmoothnessProfile,
    mode: str = "general",
) -> float:
    """Upper bound on the mean mirrored-gradient norm at step n, given KL
    upper bounds at step n and step 0.

    The KL arguments are floored at zero: the initial-KL formula can dip
    below zero for small dimension, and a negative divergence certifies the
    same zero transport distance.
    """
    kl_n = max(float(kl_n_upper), 0.0)
    kl_0 = max(float(kl0_upper), 0.0)
    w = float(w_p_mu0)
    if w < 0.0:
        raise DomainError(f"exp_grad_bound requires w_p_mu0 >= 0, got {w!r}")
    p = profile.p
    if mode == "general":
        if profile.c_pi_p is None:
            raise ConfigError(
                "profile has no c_pi_p exponential-moment constant; compute one "
                "with c_pi_p() or use the transport-inequality mode (lam)"
            )
        reach = profile.c_pi_p * (g_p(kl_n, p) + g_p(kl_0, p))
    elif mode == "tp":
        if profile.lam is None:
            raise ConfigError("transport-inequality mode requires lam in the profile")
        if not 1.0 <= p <= 2.0:
            raise ConfigError(f"transport-inequality mode requires 1 <= p <= 2, got p={p!r}")
        reach = math.sqrt(2.0 * kl_n / profile.lam) + math.sqrt(2.0 * kl_0 / profile.lam)
    else:
        raise ConfigError(f"unknown mode {mode!r}; expected 'general' or 'tp'")
    return profile.c_p * (reach + w) ** p + profile.c_p


def step_size_bound(
    profile: SmoothnessProfile,
    kernel_bounds: tuple[float, float],
    strong_convexity: float,
    dim: int,
    kl0_upper: float,
    w_p_mu0: float | None = None,
) -> float:
    """Fixed step size certified for every step of a run started at N(0, I).

    Evaluates the cap at the worst-case gradient-norm bound, with the KL at
    step n replaced by its step-0 upper bound; descent keeps that replacement
    valid, so one γ serves the whole run.
    """
    if w_p_mu0 is None:
        w_p_mu0 = w_p_to_point_mass(profile.p, dim)
    x = exp_grad_bound(kl0_upper, kl0_upper, w_p_mu0, profile, mode="general")
    return step_size_cap(x, profile, kernel_bounds, strong_convexity, dim)


def step_size_bound_tp(
    profile: SmoothnessProfile,
    kernel_bounds: tuple[float, float],
    strong_convexity: float,
    dim: int,
    kl0_upper: float,
    w_p_mu0: float | None = None,
) -> float:
    """Fixed certified step size in the transport-inequality regime (needs
    ``lam`` and 1 <= p <= 2 in the profile)."""
    if w_p_mu0 is None:
        w_p_mu0 = w_p_to_point_mass(profile.p, dim)
    x = exp_grad_bound(kl0_upper, kl0_upper, w_p_mu0, profile, mode="tp")
    return step_size_cap(x, profile, kernel_bounds, strong_convexity, dim)


def iteration_estimate(profile: SmoothnessProfile, eps: float, d: int, mode: str = "general") -> int:
    """Order-of-magnitude iteration count to drive the averaged Stein-Fisher
    value below ``eps``, with every hidden leading constant set to 1.

    An order estimate, not a guarantee: the 1/eps scaling and the dimension
    exponent are the meaningful content.
    """
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"iteration_estimate requires a finite eps > 0, got {eps!r}")
    p = profile.p
    if mode == "general":
        if profile.c_pi_p is None:
            raise ConfigError("iteration_estimate mode 'general' requires c_pi_p in the profile")
        log_n = (
            p * math.log(8.0)
            + p * math.log(profile.c_pi_p)
            + 2.0 * (math.lgamma(0.5 * (p + d + 1.0)) - math.lgamma(0.5 * d))
            - 2.0 * math.log(p + 1.0)
            - math.log(eps)
        )
    elif mode == "tp":
        if profile.lam is None:
            raise ConfigError("iteration_estimate mode 'tp' requires lam in the profile")
        log_n = (
            0.25 * (p + 2.0) * (p + 1.0) * math.log(float(d))
            - 0.5 * p * math.log(profile.lam)
            - math.log(eps)
        )
    else:
        raise ConfigError(f"unknown mode {mode!r}; expected 'general' or 'tp'")
    if log_n > 700.0:
        raise NumericsError(f"iteration estimate overflows float64 (log value {log_n:.1f})")
    return max(1, math.ceil(math.exp(log_n)))


def a_n(ensemble, mirrored_target, profile: SmoothnessProfile) -> float:
    """Smoothness level along the current cloud: l0 + l1 * mean ||grad V||.

    Accepts a particle ensemble (its dual positions are used) or a bare
    (n, d) array of dual points.
    """
    if profile.l1 == 0.0:
        return profile.l0
    dual = np.asarray(getattr(ensemble, "dual", ensemble), dtype=float)
    grad = np.asarray(mirrored_target.grad_potential(dual), dtype=float)
    return profile.l0 + profile.l1 * float(np.mean(np.sqrt(np.sum(grad * grad, axis=1))))


def stein_fisher_particles(ensemble, kernel, field) -> float:
    """Squared kernel-space norm of the update field over the ensemble: the
    V-statistic of the score-plus-divergence operand op_j = H_j s(t_j) +
    div Hinv(t_j), H_j = Hinv(t_j).  ``field`` is what
    ``engine.update_field`` built for this ensemble and kernel; its
    ``operand`` and ``hinv`` are those per-particle values and its
    ``velocity`` is the field v itself, so nothing per particle is
    evaluated again.  The V-statistic's gram term and one of its two equal
    cross terms sum to (1/n) sum_b op_b.v_b, so

        SF = (1/n) sum_b op_b.v_b + (1/n^2) sum_{b,j} [op_j.H_b grad1 k(t_b,t_j)
                                                      + tr(H_b grad12 k(t_b,t_j) H_j)].

    The second sum is sum_b <H_b, dvals_b>_F with (_, dvals) the kernel
    operator's apply(op, Hinv) over the particles (``kernels.kernel_operator``):
    its dvals_b pairs grad1 k with op and grad12 k with H_j^T, which is H_j
    because every mirror map's inverse Hessian is symmetric.  The operator
    reduces through matrix products of fixed shape, so a given ensemble
    always produces the same float.  Nonnegative up to roundoff.  A point
    mass still scores positive through the kernel-derivative block; the
    statistic detects non-convergence, not mere stationarity of the
    velocity.
    """
    theta = np.asarray(getattr(ensemble, "primal", ensemble), dtype=float)
    n, _ = theta.shape
    velocity, operand, hinv = field.velocity, field.operand, field.hinv
    if np.shape(velocity) != theta.shape:
        raise ValueError(f"velocity has shape {np.shape(velocity)}, expected {theta.shape}")
    _, dvals = kernel_operator(kernel, theta).apply(operand, hinv)
    total = float(np.einsum("bdc,bdc->", hinv, dvals))
    return (float(np.einsum("bd,bd->", operand, velocity)) + total / n) / n


# ---------------------------------------------------------------------------
# quadrature boxes: the bracket walk's border drop (nats), first halfwidth
# and doubling limit

TAIL_DROP_NATS = 45.0
START_HALFWIDTH = 8.0
MAX_DOUBLINGS = 14


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid over a dual-space box."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if not 1 <= len(axes) <= 2:
            raise ConfigError(f"grids support 1 or 2 dimensions, got {len(axes)}")
        for a in axes:
            if a.ndim != 1 or a.size < 8:
                raise ConfigError("each grid axis needs at least 8 nodes")
            steps = np.diff(a)
            if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
                raise ConfigError("grid axes must be uniformly spaced")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def box(cls, dim: int, nodes: int, halfwidth: float) -> "Grid":
        """The square box [-halfwidth, halfwidth]^dim, ``nodes`` per axis."""
        return cls(tuple(np.linspace(-halfwidth, halfwidth, nodes) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """All grid points in row-major order, (size, dim), read-only."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=1))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Flat trapezoid quadrature weights matching nodes, read-only."""
        parts = []
        for a in self.axes:
            w = np.full(a.size, a[1] - a[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            parts.append(w)
        return _read_only(parts[0] if self.dim == 1 else np.outer(parts[0], parts[1]).ravel())

    @functools.cached_property
    def log_weights(self) -> np.ndarray:
        """Logs of the trapezoid weights, read-only: every log-space mass on
        the grid sums log density + log weight."""
        return _read_only(np.log(self.weights))


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))), shifted by the largest value so no term
    overflows; -inf when every value is -inf."""
    peak = float(np.max(values))
    if not math.isfinite(peak):
        return peak
    return peak + math.log(float(np.sum(np.exp(values - peak))))


def _tail_clears(vals: np.ndarray, grid: Grid) -> bool:
    """The log-integrand on the grid's nodes sits TAIL_DROP_NATS under its
    peak at every border node and, in 1D, still falls at both ends."""
    peak = float(vals.max())
    if not np.isfinite(peak):
        return False
    if grid.dim == 1:
        if not (vals[0] <= vals[1] and vals[-1] <= vals[-2]):
            return False
        border = max(vals[0], vals[-1])
    else:
        box = vals.reshape(grid.shape)
        border = max(box[0].max(), box[-1].max(), box[:, 0].max(), box[:, -1].max())
    return float(border) <= peak - TAIL_DROP_NATS


_RAY_DOUBLINGS = 12


def _ray_points(dim: int, halfwidth: float) -> np.ndarray:
    # A dip-then-rise integrand (say s|x|^3 against a Gaussian tail) can look
    # converged on a small box; probe geometrically spaced radii along fixed
    # rays out to 2^12 box widths.  Rows run radius-major.
    if dim == 1:
        rays = np.array([[1.0], [-1.0]])
    else:
        diag = math.sqrt(0.5)
        rays = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
             [diag, diag], [diag, -diag], [-diag, diag], [-diag, -diag]]
        )
    radii = halfwidth * 2.0 ** np.arange(1, _RAY_DOUBLINGS + 1)
    return (radii[:, None, None] * rays[None, :, :]).reshape(-1, dim)


class _Bracket:
    """The boxes of one bracketing sequence, ``Grid.box`` at halfwidth
    ``start * 2**level``, and the ray probes beyond each box.

    ``evaluate`` maps a point set to the arrays a log-integrand is combined
    from.  It runs once per point set, the first time that box or ray set is
    asked for, so log-integrands that differ only in how they combine those
    arrays share every evaluation.
    """

    def __init__(self, evaluate, dim: int, nodes: int, start: float):
        self.dim = dim
        self.nodes = nodes
        self._evaluate = evaluate
        self._start = float(start)
        self._boxes: dict = {}
        self._rays: dict = {}

    def _halfwidth(self, level: int) -> float:
        return self._start * 2.0 ** level

    def seed(self, level: int, grid: Grid, arrays) -> None:
        """Take the level's box and its evaluated arrays from a caller that
        already holds them; ``grid`` must be the level's ``Grid.box``."""
        self._boxes[level] = (grid, arrays)

    def box(self, level: int):
        """(grid, evaluated arrays) of the level's box."""
        if level not in self._boxes:
            grid = Grid.box(self.dim, self.nodes, self._halfwidth(level))
            self._boxes[level] = (grid, self._evaluate(grid.nodes))
        return self._boxes[level]

    def rays(self, level: int):
        """Evaluated arrays at the ray probes beyond the level's box."""
        if level not in self._rays:
            self._rays[level] = self._evaluate(_ray_points(self.dim, self._halfwidth(level)))
        return self._rays[level]


def _expand_until_decay(bracket: _Bracket, logf):
    """Walk the bracket's boxes until the log-integrand ``logf`` (applied to
    the bracket's evaluated arrays) keeps falling along every ray far beyond
    the box and clears ``_tail_clears`` on it.  Returns (level, grid,
    values), or None when no bracketed box passes (a divergent integrand).

    Both tests must pass at one level, so their order leaves the result
    unchanged; the rays go first because they are a few dozen points against
    the box's nodes, and a box whose rays still rise is never evaluated."""
    for level in range(MAX_DOUBLINGS + 1):
        far = np.asarray(logf(bracket.rays(level)), dtype=float)
        if not np.all(np.diff(far.reshape(_RAY_DOUBLINGS, -1), axis=0) <= 0.0):
            continue
        grid, arrays = bracket.box(level)
        vals = np.asarray(logf(arrays), dtype=float)
        if _tail_clears(vals, grid):
            return level, grid, vals
    return None


def _potential(target, q: np.ndarray) -> np.ndarray:
    """The target's dual potential at the walk's points.  The walk probes
    far into the dual tails; a chart that saturates there (the box map's
    logistic past |x| of about 37) is a setting quadrature cannot serve."""
    try:
        return np.asarray(target.potential(q), dtype=float)
    except NumericsError as exc:
        chart = type(getattr(target, "map", target)).__name__
        raise ConfigError(
            f"dual-space quadrature (verify, theory) needs the potential far into "
            f"the dual tails, and the {chart} chart saturates there ({exc}); "
            "this map is not supported"
        ) from None


def _default_nodes(dim: int) -> int:
    return 4096 if dim == 1 else 256


def _target_grid(target, nodes: int | None) -> tuple:
    """(grid, -V on its nodes): the walk's box for the target's dual
    density exp(-V), ``nodes`` per axis."""
    dim = int(target.dim)
    if dim > 2:
        raise ConfigError(f"dual-space quadrature supports dim <= 2, got dim={dim}")
    nodes = int(nodes) if nodes is not None else _default_nodes(dim)
    bracket = _Bracket(lambda q: -_potential(target, q), dim, nodes, start=START_HALFWIDTH)
    got = _expand_until_decay(bracket, lambda vals: vals)
    if got is None:
        raise NumericsError("target density does not decay on any bracketed box")
    _, grid, vals = got
    return grid, vals


def _log_mass(grid: Grid, log_values: np.ndarray) -> float:
    return log_sum_exp(log_values + grid.log_weights)


def dual_log_partition(target, nodes: int | None = None) -> float:
    """log of the unnormalized mass of exp(-V) over the dual space, by
    trapezoid quadrature on an automatically bracketed box (dim <= 2)."""
    return _log_mass(*_target_grid(target, nodes))


def kl0_upper_bound(target, profile: SmoothnessProfile, dim: int | None = None,
                    log_partition: float | None = None) -> float:
    """Upper bound on KL(N(0, I_d) | normalized dual density of the target).

    The formula needs the potential of the *normalized* density at the
    origin; ``log_partition`` (computed by quadrature when not supplied) is
    added to ``target.potential(0)`` to normalize it.  The value can be
    negative in small dimension; consumers floor it at zero.
    """
    d = int(dim) if dim is not None else int(target.dim)
    if log_partition is None:
        log_partition = dual_log_partition(target)
    v0 = float(np.asarray(target.potential(np.zeros((1, d))), dtype=float).reshape(-1)[0])
    v0 += float(log_partition)
    p, c = profile.p, profile.c_p
    moment_term = (c / (p + 1.0)) * (
        gaussian_moment(p, d) + (p + 1.0) * gaussian_moment(0.0, d)
    )
    return -0.5 * d * math.log(2.0 * math.pi * math.e) + v0 + moment_term


def c_pi_p(target, p: float, num_s: int = 64, s_min: float = 1e-3, s_max: float = 100.0,
           nodes: int | None = None, *, _grid=None) -> float:
    """Upper bound on the exponential-moment transport constant of the
    target's dual density at growth exponent ``p``.

    Minimizes 2 * ((3/2 + log E exp(s ||x - x0||^p)) / s)^(1/p) over a fixed
    log-spaced grid of s, with x0 at the quadrature mean.  Grid values whose
    integrand fails the tail-decay test are excluded; if every s fails, the
    exponential-moment assumption does not hold for this (target, p) and a
    domain error is raised.  The result is an upper bound on the infimum,
    never the infimum itself, which is the conservative direction for step
    sizes.  ``certify`` passes the (grid, -V values) pair of the bracketed
    target box it already holds as ``_grid``.
    """
    if p < 1.0:
        raise DomainError(f"c_pi_p requires p >= 1, got {p!r}")
    grid, vals = _grid if _grid is not None else _target_grid(target, nodes)
    log_mass = _log_mass(grid, vals)
    weights = np.exp(vals + grid.log_weights - log_mass)
    center = weights @ grid.nodes
    base_half = float(np.max(np.abs(grid.nodes)))

    def powered(q):
        return np.sqrt(np.sum((q - center) ** 2, axis=1)) ** p

    def log_integrand(s):
        return lambda arrays: s * arrays[0] - arrays[1]

    # Only the s * ||q - center||^p term depends on s: every growth rate
    # walks the same boxes and rays, so each is evaluated once per call.
    # The walk starts at the target box itself, whose potential is -vals.
    bracket = _Bracket(lambda q: (powered(q), _potential(target, q)),
                       grid.dim, grid.shape[0], start=base_half)
    bracket.seed(0, grid, (powered(grid.nodes), -vals))
    best = math.inf
    for s in np.logspace(math.log10(s_min), math.log10(s_max), num_s):
        got = _expand_until_decay(bracket, log_integrand(float(s)))
        if got is None:
            continue
        _, grid_s, vals_s = got
        log_moment = _log_mass(grid_s, vals_s) - log_mass
        # The moment is >= 1 pointwise, so its log is >= 0; the floor only
        # absorbs quadrature roundoff.
        log_moment = max(log_moment, 0.0)
        best = min(best, ((1.5 + log_moment) / float(s)) ** (1.0 / p))
    if not math.isfinite(best):
        raise DomainError(
            f"exponential moment at exponent p={p!r} diverges for every sampled "
            f"growth rate in [{s_min!r}, {s_max!r}]"
        )
    return 2.0 * best


@dataclass(frozen=True)
class Certificate:
    """The priced constants behind a certified step size for one (target,
    map, kernel) setting: the profile with ``c_pi_p`` filled in, the
    initial-KL upper bound, and the fixed step size they certify for every
    step of a run started at N(0, I).  ``cap`` gives the per-state cap from
    a state's measured field norm and mean mirrored-gradient norm."""

    profile: SmoothnessProfile
    kernel_bounds: tuple[float, float]
    strong_convexity: float
    dim: int
    kl0_upper: float
    fixed_cap: float

    def cap(self, field_norm: float, mean_grad_norm: float) -> float:
        growth = self.profile.l0 + self.profile.l1 * mean_grad_norm
        return step_size_cap_exact(field_norm, growth, self.profile, self.kernel_bounds,
                                   self.strong_convexity, self.dim)


def certify(target, profile: SmoothnessProfile, kernel_bounds: tuple[float, float],
            strong_convexity: float, dim: int) -> Certificate:
    """Price the constants of the descent certificate once: ``c_pi_p`` by
    quadrature when the profile lacks it (tagged "empirical"), then the
    initial-KL upper bound, then the fixed step size.  Both quadratures
    share one bracketing of the target's dual density."""
    grid, vals = _target_grid(target, None)
    if profile.c_pi_p is None:
        profile = profile.with_values("empirical",
                                      c_pi_p=c_pi_p(target, profile.p, _grid=(grid, vals)))
    kl0_upper = kl0_upper_bound(target, profile, dim=dim, log_partition=_log_mass(grid, vals))
    fixed_cap = step_size_bound(profile, kernel_bounds, strong_convexity, dim, kl0_upper)
    return Certificate(
        profile=profile,
        kernel_bounds=tuple(float(b) for b in kernel_bounds),
        strong_convexity=float(strong_convexity),
        dim=int(dim),
        kl0_upper=kl0_upper,
        fixed_cap=fixed_cap,
    )
