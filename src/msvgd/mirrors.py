"""Mirror maps: strictly convex potentials whose gradients chart a constrained
open domain onto all of R^d.

Every map exposes the potential psi, the forward chart grad_psi, the inverse
chart grad_psi_star (gradient of the convex conjugate), the inverse Hessian
hess_psi_inv, and the row divergence of the inverse Hessian.

The point contract.  Every point op takes an (n, d) batch and returns
per-row arrays: (n,) for a scalar, (n, d) for a vector, (n, d, d) for a
matrix.  Each open domain is tested by one predicate, a module-level
function (``in_open_simplex``, ``in_open_box``); ``simplex_interior``
returns the simplex's mask with the compensated slack it tests, and
``checked_simplex_slack`` the slack of rows it admits, for a caller that
divides by that slack.  The map's ``contains`` is that
predicate, the targets' own domain checks call it, and
grad_psi_star applies it to its own output.  A point outside the open
domain raises DomainError.  A dual point whose conjugate rounds onto a face
raises NumericsError naming the first such particle: the chart never clamps
and never returns a row that ``contains`` refuses.
"""

import numpy as np

from .errors import DomainError, NumericsError


def in_open_simplex(t):
    """Rows of t (n, d) strictly inside {t_i > 0, sum t < 1}, shape (n,)."""
    return simplex_interior(t)[0]


def simplex_interior(t):
    """(inside, slack) for the rows of t (n, d): in_open_simplex's mask and
    the slack it tests, simplex_slack(t).  A row is inside when every
    coordinate and its compensated slack are positive; a naive
    1 - sum(t) rounds the slack of rows next to the face sum(t) = 1 to 0 or
    below and would refuse rows the simplex formulas, which divide by the
    compensated slack, can serve."""
    slack = simplex_slack(t)
    return np.all(t > 0.0, axis=1) & (slack > 0.0), slack


def in_open_box(t, lo, hi):
    """Rows of t (n, d) strictly inside the box (lo_i, hi_i)^d, shape (n,)."""
    return np.all((t > lo) & (t < hi), axis=1)


def simplex_slack(t):
    """The slack coordinate 1 - sum(t) of each row of t (n, d), as the
    Neumaier-compensated sum of (1, -t_1, ..., -t_d).  Near the face
    sum(t) = 1 the slack sits far below the rounding of a naive
    1 - sum(t), and the simplex chart and the Dirichlet score divide by it."""
    s = np.ones(t.shape[0])
    c = np.zeros(t.shape[0])
    for j in range(t.shape[1]):
        x = -t[:, j]
        tot = s + x
        big = np.abs(s) >= np.abs(x)
        c += np.where(big, (s - tot) + x, (x - tot) + s)
        s = tot
    return s + c


def row_max(a):
    """The largest entry of each row of a (n, k), taken column by column."""
    out = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        np.maximum(out, a[:, c], out=out)
    return out


def row_sum(a):
    """The sum of each row of a (n, k), added column by column, left to
    right: for the few columns of a point batch that is np.sum(a, axis=1)'s
    order, so the same bits, without its short inner loop per row.  On a
    (65536, 3) batch that loop took 1.05 ms and this 0.15 ms (2 cores)."""
    out = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        out += a[:, c]
    return out


def require_inside(ok, points, domain):
    """DomainError naming the first row of points (n, d) that ok (n,) refuses."""
    if not np.all(ok):
        row = int(np.argmin(ok))
        raise DomainError(f"point outside the open {domain}: row {row}, {points[row]}")


def checked_simplex_slack(t, domain):
    """simplex_interior's slack of the rows of t (n, d), once for the domain
    check and the formula that divides by it; require_inside names ``domain``."""
    inside, slack = simplex_interior(t)
    require_inside(inside, t, domain)
    return slack


def _on_chart(t, ok, domain):
    """t, the conjugate of a dual batch, or NumericsError naming the first
    particle whose row ok refuses: float64 rounded it onto a face."""
    if not np.all(ok):
        row = int(np.argmin(ok))
        raise NumericsError(
            f"conjugate gradient of dual point {row} rounded onto a face of the {domain}",
            particle=row,
        )
    return t


class MirrorMap:
    """Interface shared by all mirror maps.

    Attributes
    ----------
    dim : int
        Dimension d of the chart (and of the dual space).
    strong_convexity : float
        A constant K > 0 with hess_psi >= K * I on the whole open domain.
    """

    dim: int
    strong_convexity: float

    def contains(self, theta):
        """(n,) mask of strict interior membership: the domain's predicate."""
        raise NotImplementedError

    def psi(self, theta):
        raise NotImplementedError

    def grad_psi(self, theta):
        raise NotImplementedError

    def grad_psi_star(self, x):
        raise NotImplementedError

    def hess_psi(self, theta):
        raise NotImplementedError

    def hess_psi_inv(self, theta):
        raise NotImplementedError

    def div_hess_psi_inv(self, theta):
        """Row divergence sum_j d/dtheta_j [hess_psi_inv]_ij, shape (n, d)."""
        raise NotImplementedError

    def log_det_hess_inv(self, theta):
        """log det hess_psi_inv(theta), shape (n,)."""
        raise NotImplementedError

    def _require_interior(self, theta):
        require_inside(self.contains(theta), theta, f"domain of {type(self).__name__}")


class EuclideanMap(MirrorMap):
    """Identity chart psi(theta) = ||theta||^2 / 2 on all of R^d.

    Under this map the mirrored update collapses to the unconstrained kernel
    update, which the tests pin against an independent implementation.
    """

    def __init__(self, dim):
        self.dim = int(dim)
        self.strong_convexity = 1.0

    def contains(self, theta):
        return np.all(np.isfinite(theta), axis=1)

    def psi(self, theta):
        return 0.5 * np.sum(theta * theta, axis=1)

    def grad_psi(self, theta):
        return theta.copy()

    def grad_psi_star(self, x):
        return x.copy()

    def hess_psi(self, theta):
        return np.broadcast_to(np.eye(self.dim), (theta.shape[0], self.dim, self.dim)).copy()

    hess_psi_inv = hess_psi

    def div_hess_psi_inv(self, theta):
        return np.zeros_like(theta)

    def log_det_hess_inv(self, theta):
        return np.zeros(theta.shape[0])


class EntropicSimplexMap(MirrorMap):
    """Negative entropy on the open simplex {theta_i > 0, sum theta < 1}.

    psi(theta) = sum_i theta_i log theta_i + theta_0 log theta_0 with
    theta_0 = 1 - sum_i theta_i the slack coordinate. The chart is
    grad_psi_i = log(theta_i / theta_0); its inverse is the softmax with an
    implicit zero logit for the slack coordinate. psi is 1-strongly convex,
    so strong_convexity = 1.

    The closed forms below (inverse Hessian diag(theta) - theta theta^T, its
    row divergence 1 - (d+1) theta, and the log determinant
    sum_i log theta_i + log theta_0) are certified against finite-difference
    oracles in the test suite before anything downstream relies on them.
    """

    def __init__(self, dim):
        self.dim = int(dim)
        self.strong_convexity = 1.0

    def contains(self, theta):
        return in_open_simplex(theta)

    def _slack(self, theta):
        return checked_simplex_slack(theta, f"domain of {type(self).__name__}")

    def psi(self, theta):
        t0 = self._slack(theta)
        return np.sum(theta * np.log(theta), axis=1) + t0 * np.log(t0)

    def grad_psi(self, theta):
        slack = self._slack(theta)
        return np.log(theta) - np.log(slack)[:, None]

    def grad_psi_star(self, x):
        # Softmax over the logits (0, x_1, ..., x_d); the max shift keeps the
        # exponentials bounded. No clamping: a row that rounds onto a face
        # is an error, not a projection.
        m = np.maximum(np.max(x, axis=1), 0.0)
        ez = np.exp(x - m[:, None])
        t = ez / (np.exp(-m) + np.sum(ez, axis=1))[:, None]
        return _on_chart(t, self.contains(t), "simplex")

    def log_grad_psi_star(self, x):
        """Log of every coordinate of grad_psi_star(x), slack last, shape
        (n, dim + 1).  Exact at any finite x, including far-field points
        where the coordinates themselves underflow; quadrature that probes
        the dual tails evaluates densities through this instead of the
        saturating chart."""
        m = np.maximum(row_max(x), 0.0)
        lse = m + np.log(np.exp(-m) + row_sum(np.exp(x - m[:, None])))
        return np.concatenate([x - lse[:, None], -lse[:, None]], axis=1)

    def log_det_hess_inv_from_logs(self, logs):
        """log det hess_psi_inv from the log coordinates of
        log_grad_psi_star; det(diag(t) - t t^T) is the product of all
        dim + 1 coordinates."""
        return row_sum(logs)

    def hess_psi(self, theta):
        slack = self._slack(theta)
        h = np.einsum("ni,ij->nij", 1.0 / theta, np.eye(self.dim))
        h += (1.0 / slack)[:, None, None]
        return h

    def hess_psi_inv(self, theta):
        self._require_interior(theta)
        h = np.einsum("ni,ij->nij", theta, np.eye(self.dim))
        h -= theta[:, :, None] * theta[:, None, :]
        return h

    def div_hess_psi_inv(self, theta):
        self._require_interior(theta)
        return 1.0 - (self.dim + 1) * theta

    def log_det_hess_inv(self, theta):
        slack = self._slack(theta)
        return np.sum(np.log(theta), axis=1) + np.log(slack)


class EntropicBoxMap(MirrorMap):
    """Separable entropic barrier on an open box (lo_i, hi_i)^d.

    psi(theta) = sum_i (theta_i - lo_i) log(theta_i - lo_i)
                       + (hi_i - theta_i) log(hi_i - theta_i).

    Each coordinate acts independently, so the Hessian is diagonal. The
    smallest curvature 4 / (hi_i - lo_i) sits at the box midpoint, giving
    strong_convexity = min_i 4 / (hi_i - lo_i); curvature grows without
    bound toward the faces, which is fine (only the infimum matters).
    """

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise DomainError("lo and hi must be 1-d arrays of equal length")
        if not np.all(self.hi > self.lo):
            raise DomainError("box requires hi > lo componentwise")
        self.dim = self.lo.shape[0]
        self.strong_convexity = float(np.min(4.0 / (self.hi - self.lo)))

    def contains(self, theta):
        return in_open_box(theta, self.lo, self.hi)

    def psi(self, theta):
        self._require_interior(theta)
        a = theta - self.lo
        b = self.hi - theta
        return np.sum(a * np.log(a) + b * np.log(b), axis=1)

    def grad_psi(self, theta):
        self._require_interior(theta)
        return np.log(theta - self.lo) - np.log(self.hi - theta)

    def grad_psi_star(self, x):
        # Componentwise logistic rescaled to (lo, hi), evaluated on the side
        # that avoids overflow.
        t = self.lo + (self.hi - self.lo) * _stable_sigmoid(x)
        return _on_chart(t, self.contains(t), "box")

    def hess_psi(self, theta):
        self._require_interior(theta)
        diag = 1.0 / (theta - self.lo) + 1.0 / (self.hi - theta)
        return np.einsum("ni,ij->nij", diag, np.eye(self.dim))

    def hess_psi_inv(self, theta):
        self._require_interior(theta)
        diag = (theta - self.lo) * (self.hi - theta) / (self.hi - self.lo)
        return np.einsum("ni,ij->nij", diag, np.eye(self.dim))

    def div_hess_psi_inv(self, theta):
        self._require_interior(theta)
        return (self.hi + self.lo - 2.0 * theta) / (self.hi - self.lo)

    def log_det_hess_inv(self, theta):
        self._require_interior(theta)
        return np.sum(
            np.log(theta - self.lo) + np.log(self.hi - theta) - np.log(self.hi - self.lo),
            axis=1,
        )


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def make_map(name, dim=None, lo=None, hi=None):
    """Build a mirror map from its config name."""
    if name == "euclidean":
        if dim is None:
            raise DomainError("euclidean map needs dim")
        return EuclideanMap(dim)
    if name == "entropic-simplex":
        if dim is None:
            raise DomainError("entropic-simplex map needs dim")
        return EntropicSimplexMap(dim)
    if name == "entropic-box":
        if lo is None or hi is None:
            raise DomainError("entropic-box map needs lo and hi")
        return EntropicBoxMap(lo, hi)
    raise DomainError(f"unknown mirror map {name!r}")
