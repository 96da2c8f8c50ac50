"""Target distributions on constrained domains, and their dual-space pullbacks.

A constrained target lives on the open primal domain and exposes the
unnormalized log density with its gradient.  Wrapping it with a mirror map
gives the mirrored target: the potential V of the dual-space density and its
gradient, built entirely from certified primal primitives.  The module also
carries the smoothness catalog: analytic growth constants where a closed form
exists, an envelope fitted on a sampled cloud otherwise, and None when the
potential is known not to admit the Hessian growth bound at all.
"""

import numpy as np

from .errors import ConfigError, DomainError
from .mirrors import EntropicSimplexMap, EuclideanMap, MirrorMap, _as_batch, _unbatch
from .theory import SmoothnessProfile


class ConstrainedTarget:
    """Interface: unnormalized log density on an open primal domain.

    Attributes
    ----------
    dim : int
        Dimension of the primal chart.
    domain : str
        Domain kind the density lives on: "simplex", "box", or "euclidean".
        Config validation pairs it with a matching mirror map.
    """

    dim: int
    domain: str

    def log_density_unnorm(self, theta):
        raise NotImplementedError

    def grad_log_density(self, theta):
        raise NotImplementedError


class Dirichlet(ConstrainedTarget):
    """Dirichlet density in the d-coordinate open simplex chart.

    ``concentration`` has d+1 entries; the last one weights the implicit
    coordinate 1 - sum(theta).  All-ones concentration is the uniform density
    (log density identically 0).
    """

    domain = "simplex"

    def __init__(self, concentration):
        conc = np.asarray(concentration, dtype=float)
        if conc.ndim != 1 or conc.shape[0] < 2:
            raise ConfigError(f"concentration must be a vector of d+1 >= 2 entries, got {conc.shape}")
        if not np.all(np.isfinite(conc)) or np.any(conc <= 0.0):
            raise ConfigError("concentration entries must be finite and > 0")
        self.concentration = conc
        self.dim = conc.shape[0] - 1

    def _interior(self, t):
        slack = 1.0 - np.sum(t, axis=1)
        bad = ~(np.all(t > 0.0, axis=1) & (slack > 0.0))
        if np.any(bad):
            row = int(np.argmax(bad))
            raise DomainError(f"point outside the open simplex chart: {t[row]}")
        return slack

    def log_density_unnorm(self, theta):
        t, squeeze = _as_batch(theta, self.dim)
        slack = self._interior(t)
        head = self.concentration[:-1] - 1.0
        out = np.log(t) @ head + (self.concentration[-1] - 1.0) * np.log(slack)
        return _unbatch(out, squeeze)

    def log_density_unnorm_from_logs(self, logs):
        """log density from log simplex coordinates, slack last, shape
        (..., dim + 1).  Valid arbitrarily close to the boundary, where the
        coordinates themselves underflow."""
        l2, squeeze = _as_batch(logs, self.dim + 1)
        out = l2 @ (self.concentration - 1.0)
        return _unbatch(out, squeeze)

    def grad_log_density(self, theta):
        t, squeeze = _as_batch(theta, self.dim)
        slack = self._interior(t)
        head = self.concentration[:-1] - 1.0
        out = head[None, :] / t - ((self.concentration[-1] - 1.0) / slack)[:, None]
        return _unbatch(out, squeeze)


class TruncatedGaussian(ConstrainedTarget):
    """Gaussian density restricted to an open axis-aligned box, or on all of
    R^d when no box is given.  Truncation only moves the normalizing
    constant, so log density and score are the plain Gaussian ones; the box
    is enforced as the domain."""

    def __init__(self, mean, cov, lo=None, hi=None):
        self.mean = np.asarray(mean, dtype=float)
        if self.mean.ndim != 1:
            raise ConfigError(f"mean must be a vector, got shape {self.mean.shape}")
        self.dim = self.mean.shape[0]
        cov = np.asarray(cov, dtype=float)
        if cov.shape == ():
            cov = float(cov) * np.eye(self.dim)
        if cov.shape != (self.dim, self.dim):
            raise ConfigError(f"cov must be ({self.dim}, {self.dim}), got {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigError("cov must be symmetric")
        eigs = np.linalg.eigvalsh(cov)
        if np.min(eigs) <= 0.0:
            raise ConfigError("cov must be positive definite")
        self.cov = cov
        self.precision = np.linalg.inv(cov)
        if (lo is None) != (hi is None):
            raise ConfigError("lo and hi must be given together")
        if lo is None:
            self.lo = None
            self.hi = None
            self.domain = "euclidean"
        else:
            self.lo = np.asarray(lo, dtype=float)
            self.hi = np.asarray(hi, dtype=float)
            if self.lo.shape != (self.dim,) or self.hi.shape != (self.dim,):
                raise ConfigError("lo and hi must match the mean's dimension")
            if not np.all(self.lo < self.hi):
                raise ConfigError("box must satisfy lo < hi componentwise")
            self.domain = "box"

    def _check(self, t):
        if self.lo is None:
            return
        bad = ~np.all((t > self.lo) & (t < self.hi), axis=1)
        if np.any(bad):
            row = int(np.argmax(bad))
            raise DomainError(f"point outside the open box: {t[row]}")

    def log_density_unnorm(self, theta):
        t, squeeze = _as_batch(theta, self.dim)
        self._check(t)
        centered = t - self.mean
        out = -0.5 * np.einsum("ni,ij,nj->n", centered, self.precision, centered)
        return _unbatch(out, squeeze)

    def grad_log_density(self, theta):
        t, squeeze = _as_batch(theta, self.dim)
        self._check(t)
        return _unbatch(-(t - self.mean) @ self.precision, squeeze)


class MirroredPowerLaw(ConstrainedTarget):
    """Density exp(-scale * ||x||^power) given directly in the dual space.

    Dual-native: its potential is the closed form above, and it doubles as a
    Euclidean-domain primal target (identity chart), where the log density is
    just the negated potential.  power > 1 keeps the gradient continuous at
    the origin."""

    domain = "euclidean"

    def __init__(self, power, scale=1.0, dim=1):
        self.power = float(power)
        self.scale = float(scale)
        if not self.power > 1.0:
            raise ConfigError(f"power must be > 1, got {self.power!r}")
        if not self.scale > 0.0:
            raise ConfigError(f"scale must be > 0, got {self.scale!r}")
        self.dim = int(dim)

    def potential(self, x):
        t, squeeze = _as_batch(x, self.dim)
        r = np.sqrt(np.sum(t * t, axis=1))
        return _unbatch(self.scale * r ** self.power, squeeze)

    def grad_potential(self, x):
        t, squeeze = _as_batch(x, self.dim)
        r = np.sqrt(np.sum(t * t, axis=1))
        # scale * power * r^(power-2) * x, with the removable singularity at
        # the origin filled by its limit 0 (power > 1).  Far out (diverging
        # particles) the product overflows to inf, which the engine's finite
        # check reports by particle.
        safe = np.where(r > 0.0, r, 1.0)
        with np.errstate(over="ignore"):
            out = (self.scale * self.power * np.where(r > 0.0, safe ** (self.power - 2.0), 0.0))[:, None] * t
        return _unbatch(out, squeeze)

    def log_density_unnorm(self, theta):
        return -self.potential(theta)

    def grad_log_density(self, theta):
        return -self.grad_potential(theta)


class MirroredTarget:
    """Dual-space view of a primal target through a mirror map.

    The dual density is the primal one times det hess_psi_inv at the primal
    point, so the potential is
    V(x) = -log_density_unnorm(theta) - log_det_hess_inv(theta) at
    theta = grad_psi_star(x), up to the normalizing constant.  Its gradient
    reuses the certified primal primitives: the chain rule for the first term
    gives -hess_psi_inv @ score, and the log-determinant term differentiates
    to exactly -div_hess_psi_inv (third derivatives of psi* are symmetric in
    all three slots).
    """

    def __init__(self, base, mirror_map):
        if base.dim != mirror_map.dim:
            raise ConfigError(
                f"target dimension {base.dim} does not match map dimension {mirror_map.dim}"
            )
        self.base = base
        self.map = mirror_map
        self.dim = base.dim

    def potential(self, x):
        t, squeeze = _as_batch(x, self.dim)
        from_logs = getattr(self.base, "log_density_unnorm_from_logs", None)
        to_logs = getattr(self.map, "log_grad_psi_star", None)
        if from_logs is not None and to_logs is not None:
            # Log-coordinate pair: stays exact where the chart saturates,
            # which far-field quadrature probes do reach.
            logs = np.asarray(to_logs(t), dtype=float)
            out = -np.asarray(from_logs(logs), dtype=float)
            out = out - np.asarray(self.map.log_det_hess_inv_from_logs(logs), dtype=float)
            return _unbatch(out, squeeze)
        theta = self.map.grad_psi_star(t)
        out = -np.asarray(self.base.log_density_unnorm(theta), dtype=float)
        out = out - np.asarray(self.map.log_det_hess_inv(theta), dtype=float)
        return _unbatch(out, squeeze)

    def grad_potential(self, x):
        t, squeeze = _as_batch(x, self.dim)
        theta = self.map.grad_psi_star(t)
        score = np.asarray(self.base.grad_log_density(theta), dtype=float)
        hinv = np.asarray(self.map.hess_psi_inv(theta), dtype=float)
        out = -np.einsum("nde,ne->nd", hinv, score)
        out = out - np.asarray(self.map.div_hess_psi_inv(theta), dtype=float)
        return _unbatch(out, squeeze)


def _power_law_profile(power, scale):
    if power < 2.0:
        return None  # Hessian blows up at the origin; no (l0, l1) pair exists
    if power == 2.0:
        l0, l1 = 2.0 * scale, 0.0
    else:
        # scale*q(q-1)|x|^(q-2) <= l0 for |x| <= q-1 and <= scale*q*|x|^(q-1)
        # beyond it; valid for every scale, tight only at scale = 1.
        l0, l1 = scale * power * (power - 1.0) ** (power - 1.0), 1.0
    return SmoothnessProfile(
        l0=l0,
        l1=l1,
        c_p=scale * power,
        p=power - 1.0,
        provenance={"l0": "analytic", "l1": "analytic", "c_p": "analytic", "p": "analytic"},
    )


def _dirichlet_entropic_profile(concentration):
    conc = np.asarray(concentration, dtype=float)
    total = float(np.sum(conc))
    d = conc.shape[0] - 1
    # grad V(x) = total * theta(x) - conc[:-1]; hess V = total * hess_psi_inv,
    # whose operator norm never exceeds 1/2 on the simplex.
    vertices = np.vstack([np.zeros(d), np.eye(d)])
    c_p = float(np.max(np.sqrt(np.sum((total * vertices - conc[:-1]) ** 2, axis=1))))
    return SmoothnessProfile(
        l0=0.5 * total,
        l1=0.0,
        c_p=c_p,
        p=1.0,
        provenance={"l0": "analytic", "l1": "analytic", "c_p": "analytic", "p": "analytic"},
    )


def _fd_hessian_norms(mirrored, x, h=1e-5):
    n, d = x.shape
    cols = np.empty((n, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        cols[:, :, k] = (mirrored.grad_potential(x + e) - mirrored.grad_potential(x - e)) / (2.0 * h)
    sym = 0.5 * (cols + np.swapaxes(cols, 1, 2))
    return np.max(np.abs(np.linalg.eigvalsh(sym)), axis=1)


def _empirical_profile(mirrored, samples, rng):
    gen = np.random.default_rng(20240817) if rng is None else rng
    d = mirrored.dim
    # Cloud spanning several length scales so growth shows up in the fit.
    scales = np.geomspace(0.25, 8.0, num=8)
    per = max(samples // scales.shape[0], 2)
    x = np.concatenate([s * gen.standard_normal((per, d)) for s in scales], axis=0)
    grad = np.asarray(mirrored.grad_potential(x), dtype=float)
    gnorm = np.sqrt(np.sum(grad * grad, axis=1))
    hnorm = _fd_hessian_norms(mirrored, x)
    # Envelope hess <= l0 + l1 * grad over the cloud: scan slopes, keep the
    # pair with the smallest induced cloud-level smoothness l0 + l1 * mean.
    best = None
    for l1 in np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)]):
        l0 = float(np.max(hnorm - l1 * gnorm))
        if l0 < 0.0:
            l0 = 0.0
        score = l0 + l1 * float(np.mean(gnorm))
        if best is None or score < best[0]:
            best = (score, l0, float(l1))
    _, l0, l1 = best
    radius = np.sqrt(np.sum(x * x, axis=1))
    far = radius >= np.quantile(radius, 0.9)
    with np.errstate(divide="ignore"):
        slope = np.polyfit(np.log(radius[far]), np.log(np.maximum(gnorm[far], 1e-300)), 1)[0]
    p = float(max(1.0, slope))
    c_p = float(np.max(gnorm / (radius ** p + 1.0))) * (1.0 + 1e-9)
    return SmoothnessProfile(
        l0=l0,
        l1=l1,
        c_p=max(c_p, 1e-12),
        p=p,
        provenance={"l0": "empirical", "l1": "empirical", "c_p": "empirical", "p": "empirical"},
    )


# Growth constants that hold by derivation, keyed by (base class, map class).
# Only these may back a "theorem" step size.
_PROFILE_CATALOG = {
    (MirroredPowerLaw, EuclideanMap): lambda base: _power_law_profile(base.power, base.scale),
    (Dirichlet, EntropicSimplexMap): lambda base: _dirichlet_entropic_profile(base.concentration),
}


def _catalog_key(mirrored) -> tuple:
    return type(mirrored.base), type(mirrored.map)


def certified_profile(mirrored):
    """Catalog growth constants, or None when only fitted estimates exist.

    Only profiles whose constants hold by derivation may back a "theorem"
    step size; the sampled-envelope fallback in smoothness_profile is
    advisory and deliberately not accepted here.
    """
    rule = _PROFILE_CATALOG.get(_catalog_key(mirrored))
    return None if rule is None else rule(mirrored.base)


def smoothness_profile(target, samples=100_000, rng=None):
    """Growth constants for a mirrored target.

    Catalog entries are returned with "analytic" provenance; anything else
    falls back to an envelope fitted on a sampled dual-space cloud, tagged
    "empirical" and advisory by construction.  Returns None when the
    potential is known not to satisfy the Hessian growth bound (then only a
    user-supplied step size can drive a run).
    """
    if not isinstance(target, MirroredTarget):
        raise ConfigError(f"no profile rule for target of type {type(target).__name__}")
    if _catalog_key(target) in _PROFILE_CATALOG:
        return certified_profile(target)
    return _empirical_profile(target, samples, rng)


_TARGETS = {
    "dirichlet": Dirichlet,
    "truncated-gaussian": TruncatedGaussian,
    "mirrored-power-law": MirroredPowerLaw,
}


def make_target(name, params=None):
    params = dict(params or {})
    try:
        cls = _TARGETS[name]
    except KeyError:
        raise ConfigError(f"unknown target {name!r}; expected one of {sorted(_TARGETS)}") from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for target {name!r}: {exc}") from None
