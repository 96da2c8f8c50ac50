"""Constants, growth functions, and admissible step sizes for the mirrored flow.

Almost everything here evaluates a closed-form expression: moments of the
standard normal start, an upper bound on its KL divergence from the target,
the largest step size under which the descent inequality is certified, and
iteration-count estimates at unit leading constants.  Two constants rest on
integrals of the target's dual density exp(-V), which ``msvgd.quadrature``
evaluates on one bracketed box: the log-partition that normalizes the
initial-KL bound, and the exponential moments behind ``c_pi_p``, which is
bounded from above with an explicit tail-decay test standing in for the
moment assumption it encodes.  Upper bounds are the safe direction
throughout: a larger ``c_pi_p`` or initial-KL bound only shrinks the
certified step size.

``certify`` is the one place that prices these constants for a run: it
fills in ``c_pi_p``, bounds the initial KL, and returns the fixed step size
with a per-state cap as one ``Certificate``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .quadrature import log_moments, target_box

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
    field: "analytic" for a catalog constant that holds by derivation
    (``msvgd.targets.certified_profile``), "empirical" only for a ``c_pi_p``
    that ``certify`` priced by quadrature, and "user" for anything set by
    hand (the default for untagged fields).
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

    def growth(self, x: float) -> float:
        """The Hessian-norm bound l0 + l1 x at gradient norm x."""
        return self.l0 + self.l1 * x

    def with_values(self, tag: str, **updates: float) -> "SmoothnessProfile":
        """Copy with updated constants, tagging each updated field with `tag`."""
        provenance = dict(self.provenance)
        provenance.update({name: tag for name in updates})
        return dataclasses.replace(self, provenance=provenance, **updates)

    def to_dict(self) -> dict:
        """The constants by name, with each one's tag under "provenance"."""
        values = {name: getattr(self, name) for name in _PROFILE_FIELDS}
        values["provenance"] = {name: self.tag(name) for name in _PROFILE_FIELDS}
        return values


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


def field_norm_bound(
    x: float,
    kernel_bounds: tuple[float, float],
    strong_convexity: float,
    dim: int,
) -> float:
    """Bound b1 x + b2 d / K on the kernel-space norm of the update field
    when the mean mirrored-gradient norm is x."""
    b1, b2 = (float(b) for b in kernel_bounds)
    return b1 * x + b2 * float(dim) / float(strong_convexity)


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
    arguments in terms of x: field_norm_bound(x) and profile.growth(x).
    Degenerate constants (l1 = 0, or a vanishing kernel-derivative bound)
    send individual pieces to infinity, and they drop out of the min; the
    result is finite whenever b1 > 0 and l0 + l1 x > 0.
    """
    if x < 0.0:
        raise DomainError(f"step_size_cap requires x >= 0, got {x!r}")
    return step_size_cap_exact(field_norm_bound(x, kernel_bounds, strong_convexity, dim),
                               profile.growth(x), profile, kernel_bounds,
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


def check_transport_exponent(p: float) -> None:
    """Refuse a growth exponent outside 1 <= p <= 2, where the transport
    inequality ("tp" mode) does not bound the mean gradient norm."""
    if not 1.0 <= p <= 2.0:
        raise ConfigError(f"transport-inequality mode requires 1 <= p <= 2, got p={p!r}")


def exp_grad_bound(
    kl_n_upper: float,
    kl0_upper: float,
    w_start: float,
    profile: SmoothnessProfile,
    mode: str = "general",
) -> float:
    """Upper bound on the mean mirrored-gradient norm at step n, given KL
    upper bounds at step n and step 0 and the p-Wasserstein distance
    ``w_start`` from the start to a point mass.

    The KL arguments are floored at zero: the initial-KL formula can dip
    below zero for small dimension, and a negative divergence certifies the
    same zero transport distance.
    """
    kl_n = max(float(kl_n_upper), 0.0)
    kl_0 = max(float(kl0_upper), 0.0)
    w = float(w_start)
    if w < 0.0:
        raise DomainError(f"exp_grad_bound requires w_start >= 0, got {w!r}")
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
        check_transport_exponent(p)
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
    mode: str,
) -> float:
    """Fixed step size certified for every step of a run started at N(0, I).

    Evaluates the cap at exp_grad_bound's gradient-norm bound in ``mode``
    ("general", which needs ``c_pi_p``, or "tp", the transport-inequality
    regime, which needs ``lam`` and 1 <= p <= 2), with the start's distance
    to a point mass (w_p_to_point_mass) and the KL at step n replaced by its
    step-0 upper bound; descent keeps that replacement valid, so one γ
    serves the whole run.
    """
    x = exp_grad_bound(kl0_upper, kl0_upper, w_p_to_point_mass(profile.p, dim), profile,
                       mode=mode)
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


# growth rates s at which c_pi_p evaluates its exponential moment, and the
# nodes per axis of certify's box in 1-D and 2-D
GROWTH_RATES = np.logspace(-3.0, 2.0, 64)
PRICING_NODES = (4096, 256)


def kl0_upper_bound(target, profile: SmoothnessProfile, dim: int,
                    log_partition: float) -> float:
    """Upper bound on KL(N(0, I_d) | normalized dual density of the target).

    The formula needs the potential of the *normalized* density at the
    origin; ``log_partition``, the log mass of exp(-V), is added to
    ``target.potential(0)`` to normalize it.  The value can be negative in
    small dimension; consumers floor it at zero.
    """
    d = int(dim)
    v0 = float(target.potential(np.zeros((1, d)))[0]) + float(log_partition)
    p, c = profile.p, profile.c_p
    moment_term = (c / (p + 1.0)) * (
        gaussian_moment(p, d) + (p + 1.0) * gaussian_moment(0.0, d)
    )
    return -0.5 * d * math.log(2.0 * math.pi * math.e) + v0 + moment_term


def c_pi_p(target, p: float, box: tuple) -> float:
    """Upper bound on the exponential-moment transport constant of the
    target's dual density at growth exponent ``p``.

    Minimizes 2 * ((3/2 + log E exp(s ||x - x0||^p)) / s)^(1/p) over the
    GROWTH_RATES s, with the moments from ``quadrature.log_moments`` on the
    target's bracketed ``box``.  Rates whose moment diverges drop out of the
    min; if every rate does, the exponential-moment assumption does not hold
    for this (target, p) and a domain error is raised.  The result is an
    upper bound on the infimum, never the infimum itself, which is the
    conservative direction for step sizes.
    """
    if p < 1.0:
        raise DomainError(f"c_pi_p requires p >= 1, got {p!r}")
    moments = log_moments(target, box, p, GROWTH_RATES)
    best = min(((1.5 + m) / float(s)) ** (1.0 / p) for s, m in zip(GROWTH_RATES, moments))
    if not math.isfinite(best):
        raise DomainError(
            f"exponential moment at exponent p={p!r} diverges for every sampled "
            f"growth rate in [{GROWTH_RATES[0]:g}, {GROWTH_RATES[-1]:g}]"
        )
    return 2.0 * best


@dataclass(frozen=True)
class Certificate:
    """The priced constants behind a certified step size for one (target,
    map, kernel) setting: the profile with ``c_pi_p`` filled in, the kernel
    constants (b1, b2) from ``Kernel.bounds``, the initial-KL upper bound,
    and the fixed step size they certify for every step of a run started at
    N(0, I) (``step_size_bound`` in the "general" mode).  ``cap`` gives the
    per-state cap, step_size_cap_exact at a state's measured field norm and
    profile.growth of its mean mirrored-gradient norm."""

    profile: SmoothnessProfile
    kernel_bounds: tuple[float, float]
    strong_convexity: float
    dim: int
    kl0_upper: float
    fixed_cap: float

    def cap(self, field_norm: float, mean_grad_norm: float) -> float:
        return step_size_cap_exact(field_norm, self.profile.growth(mean_grad_norm),
                                   self.profile, self.kernel_bounds,
                                   self.strong_convexity, self.dim)


def certify(target, profile: SmoothnessProfile, kernel_bounds: tuple[float, float],
            strong_convexity: float, dim: int) -> Certificate:
    """Price the constants of the descent certificate once: ``c_pi_p`` by
    quadrature when the profile lacks it (tagged "empirical", the only
    constant the library tags so), then the initial-KL upper bound, then the
    fixed step size.  Both quadratures share one bracketing of the target's
    dual density, on PRICING_NODES nodes per axis."""
    box = target_box(target, PRICING_NODES[0] if int(target.dim) == 1 else PRICING_NODES[1])
    if profile.c_pi_p is None:
        profile = profile.with_values("empirical", c_pi_p=c_pi_p(target, profile.p, box))
    kl0_upper = kl0_upper_bound(target, profile, dim, box[0].log_mass(box[1]))
    fixed_cap = step_size_bound(profile, kernel_bounds, strong_convexity, dim, kl0_upper,
                                "general")
    return Certificate(
        profile=profile,
        kernel_bounds=tuple(float(b) for b in kernel_bounds),
        strong_convexity=float(strong_convexity),
        dim=int(dim),
        kl0_upper=kl0_upper,
        fixed_cap=fixed_cap,
    )
