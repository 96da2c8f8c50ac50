"""Target distributions on constrained domains, and their dual-space pullbacks.

A constrained target lives on the open primal domain and exposes the
unnormalized log density with its gradient.  Wrapping it with a mirror map
gives the mirrored target: the potential V of the dual-space density and its
gradient, built entirely from certified primal primitives.  The module also
carries the smoothness catalog, keyed by (target class, map class): growth
constants that hold by derivation for the power law and the Gaussian on R^d
under the identity map and for the Dirichlet under the entropic simplex map.
``certified_profile`` is its one lookup; it returns None for any other pair,
and for a power law whose potential admits no Hessian growth bound at all.

Targets keep the point contract of ``mirrors``: every point op takes an
(n, d) batch and returns per-row arrays.  A target's domain check is its
domain's one predicate from ``mirrors`` (``in_open_simplex``, read with
its slack through ``checked_simplex_slack``, and ``in_open_box``), the test
the map's ``contains`` makes, so a primal point the chart returns is never
refused here: the chart itself refuses a dual point whose conjugate rounds
onto a face, with a NumericsError.
"""

import numpy as np

from .errors import ConfigError
from .mirrors import (EntropicSimplexMap, EuclideanMap, checked_simplex_slack, in_open_box,
                      require_inside)
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

    def log_density_unnorm(self, theta):
        slack = checked_simplex_slack(theta, "simplex chart")
        head = self.concentration[:-1] - 1.0
        return np.log(theta) @ head + (self.concentration[-1] - 1.0) * np.log(slack)

    def log_density_unnorm_from_logs(self, logs):
        """log density from log simplex coordinates, slack last, shape
        (n, dim + 1).  Valid arbitrarily close to the boundary, where the
        coordinates themselves underflow."""
        return logs @ (self.concentration - 1.0)

    def grad_log_density(self, theta):
        slack = checked_simplex_slack(theta, "simplex chart")
        head = self.concentration[:-1] - 1.0
        return head[None, :] / theta - ((self.concentration[-1] - 1.0) / slack)[:, None]


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

    def _check(self, theta):
        if self.lo is not None:
            require_inside(in_open_box(theta, self.lo, self.hi), theta, "box")

    def log_density_unnorm(self, theta):
        self._check(theta)
        centered = theta - self.mean
        return -0.5 * np.einsum("ni,ij,nj->n", centered, self.precision, centered)

    def grad_log_density(self, theta):
        self._check(theta)
        return -(theta - self.mean) @ self.precision


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
        r = np.sqrt(np.sum(x * x, axis=1))
        return self.scale * r ** self.power

    def grad_potential(self, x):
        r = np.sqrt(np.sum(x * x, axis=1))
        # scale * power * r^(power-2) * x, with the removable singularity at
        # the origin filled by its limit 0 (power > 1).  Far out (diverging
        # particles) the product overflows to inf, which the engine's finite
        # check reports by particle.
        safe = np.where(r > 0.0, r, 1.0)
        with np.errstate(over="ignore"):
            return (self.scale * self.power * np.where(r > 0.0, safe ** (self.power - 2.0), 0.0))[:, None] * x

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
    is the negated ``operand``, built from the certified primal primitives:
    the chain rule for the first term gives -hess_psi_inv @ score, and the
    log-determinant term differentiates to exactly -div_hess_psi_inv (third
    derivatives of psi* are symmetric in all three slots).
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
        from_logs = getattr(self.base, "log_density_unnorm_from_logs", None)
        to_logs = getattr(self.map, "log_grad_psi_star", None)
        if from_logs is not None and to_logs is not None:
            # Log-coordinate pair: stays exact where the chart saturates,
            # which far-field quadrature probes do reach.
            logs = to_logs(x)
            return -from_logs(logs) - self.map.log_det_hess_inv_from_logs(logs)
        theta = self.map.grad_psi_star(x)
        return -self.base.log_density_unnorm(theta) - self.map.log_det_hess_inv(theta)

    def operand(self, theta):
        """(s, Hinv, Hinv s + div Hinv) at primal points theta (n, d): the
        primal score, the inverse mirror Hessians and the operand that the
        particle field, the grid flow and a_n read, -grad V at
        x = grad_psi(theta)."""
        score = self.base.grad_log_density(theta)
        hinv = self.map.hess_psi_inv(theta)
        div = self.map.div_hess_psi_inv(theta)
        return score, hinv, np.einsum("nde,ne->nd", hinv, score) + div


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


def _gaussian_euclidean_profile(base):
    if base.lo is not None:
        return None  # under the identity chart the box edge is a jump in V
    # V = (x - mu)' P (x - mu) / 2, so hess V = P and
    # ||grad V|| <= ||P|| (||x|| + ||mu||) <= ||P|| max(1, ||mu||) (||x|| + 1).
    l0 = float(np.linalg.norm(base.precision, 2))
    return SmoothnessProfile(
        l0=l0,
        l1=0.0,
        c_p=l0 * max(1.0, float(np.linalg.norm(base.mean))),
        p=1.0,
        provenance={"l0": "analytic", "l1": "analytic", "c_p": "analytic", "p": "analytic"},
    )


# Growth constants that hold by derivation, keyed by (base class, map class).
# Only these may back a "theorem" step size.
_PROFILE_CATALOG = {
    (MirroredPowerLaw, EuclideanMap): lambda base: _power_law_profile(base.power, base.scale),
    (Dirichlet, EntropicSimplexMap): lambda base: _dirichlet_entropic_profile(base.concentration),
    (TruncatedGaussian, EuclideanMap): _gaussian_euclidean_profile,
}


def certified_profile(mirrored):
    """Growth constants of a mirrored target, from the catalog.

    Every returned constant holds by derivation and is tagged "analytic".
    Returns None for a pair the catalog does not cover, for a boxed Gaussian
    under the identity map, and for a power law whose potential does not
    satisfy the Hessian growth bound; then only a user-supplied step size
    can drive a run.
    """
    if not isinstance(mirrored, MirroredTarget):
        raise ConfigError(f"no profile rule for target of type {type(mirrored).__name__}")
    rule = _PROFILE_CATALOG.get((type(mirrored.base), type(mirrored.map)))
    return None if rule is None else rule(mirrored.base)


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
