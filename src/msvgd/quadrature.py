"""Dual-space quadrature: trapezoid grids in d <= 2, the bracket walk that
sizes them, and the integrals of a target's dual density exp(-V).

``Grid.log_mass`` is the one log-space mass: every quadrature sum is one
``log_sum_exp`` of log values plus log weights.  ``target_box`` doubles a
box from halfwidth START_HALFWIDTH until the log density sits TAIL_DROP_NATS
under its peak on the border and keeps falling along rays far beyond; both
``theory.certify`` and ``gridflow``'s flows use its boxes.  ``log_moments``
gives log E exp(s ||x - x0||^p) at many rates s.  They all walk the same
boxes and rays, and only the s-term differs, so the potential is evaluated
once per box and ray set, and a box whose rays still rise is never
evaluated.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError
from .mirrors import row_sum

# the bracket walk's border drop (nats), first halfwidth and doubling limit
TAIL_DROP_NATS = 45.0
START_HALFWIDTH = 8.0
MAX_DOUBLINGS = 14


def read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))), shifted by the largest value so no term
    overflows; -inf when every value is -inf."""
    peak = float(values.max())
    if not math.isfinite(peak):
        return peak
    shifted = values - peak
    return peak + math.log(float(np.exp(shifted, out=shifted).sum()))


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
            # np.linspace rounds each node to the ulp of its own magnitude,
            # so a uniform axis's steps differ by up to about two ulps of its
            # largest node, whatever the node count (and nan is refused)
            steps = np.diff(a)
            if not np.max(np.abs(steps - steps[0])) <= 4 * np.spacing(np.max(np.abs(a))):
                raise ConfigError("grid axes must be uniformly spaced")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def box(cls, dim: int, nodes: int, halfwidth: float) -> "Grid":
        """The square box [-halfwidth, halfwidth]^dim, ``nodes`` per axis."""
        return cls(tuple(np.linspace(-halfwidth, halfwidth, nodes) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @functools.cached_property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @functools.cached_property
    def size(self) -> int:
        return math.prod(self.shape)

    @functools.cached_property
    def spacing(self) -> tuple:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """All grid points in row-major order, (size, dim), read-only."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return read_only(np.stack([m.ravel() for m in mesh], axis=1))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Flat trapezoid quadrature weights matching nodes, read-only."""
        parts = []
        for a in self.axes:
            w = np.full(a.size, a[1] - a[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            parts.append(w)
        return read_only(parts[0] if self.dim == 1 else np.outer(parts[0], parts[1]).ravel())

    @functools.cached_property
    def log_weights(self) -> np.ndarray:
        """Logs of the trapezoid weights, read-only."""
        return read_only(np.log(self.weights))

    def log_mass(self, log_values: np.ndarray) -> float:
        """log of the trapezoid integral of exp(log_values) over the grid."""
        return log_sum_exp(log_values + self.log_weights)


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


@contextlib.contextmanager
def chart_saturation_refused(target):
    """Refuse, as a configuration error, a face hit of the target's chart
    at quadrature points: the walk's probes or a flow's nodes.  They reach
    far into the dual tails, and a chart that saturates there (the box
    map's logistic past |x| of about 37, the simplex softmax past about 37
    along a vertex) is a setting quadrature cannot serve."""
    try:
        yield
    except NumericsError as exc:
        chart = type(getattr(target, "map", target)).__name__
        raise ConfigError(
            f"dual-space quadrature (verify, theory) reads the target far into "
            f"the dual tails, and the {chart} chart saturates there ({exc}); "
            "a narrower grid_halfwidth avoids it where the config sets one, "
            "and otherwise this map is not supported"
        ) from None


def _potential(target, q: np.ndarray) -> np.ndarray:
    """The target's dual potential at the walk's points."""
    with chart_saturation_refused(target):
        return target.potential(q)


def target_box(target, nodes: int) -> tuple:
    """(grid, -V on its nodes): the walk's box for the target's dual
    density exp(-V), ``nodes`` per axis, in dim <= 2."""
    dim = int(target.dim)
    if dim > 2:
        raise ConfigError(f"dual-space quadrature supports dim <= 2, got dim={dim}")
    bracket = _Bracket(lambda q: -_potential(target, q), dim, int(nodes), start=START_HALFWIDTH)
    got = _expand_until_decay(bracket, lambda vals: vals)
    if got is None:
        raise NumericsError("target density does not decay on any bracketed box")
    _, grid, vals = got
    return grid, vals


def log_moments(target, box: tuple, p: float, rates) -> list:
    """log E exp(s ||x - x0||^p) under the target's dual density for each
    growth rate s in ``rates``, with x0 the density's quadrature mean.

    ``box`` is the target's (grid, -V values) from ``target_box``; each
    rate's walk starts on it, at the same node count.  A rate whose
    integrand decays on no bracketed box gets +inf: its moment diverges.
    """
    grid, vals = box
    log_mass = grid.log_mass(vals)
    weights = np.exp(vals + grid.log_weights - log_mass)
    center = weights @ grid.nodes

    def powered(q):
        return np.sqrt(row_sum((q - center) ** 2)) ** p

    # The walk starts at the target box itself, whose potential is -vals.
    bracket = _Bracket(lambda q: (powered(q), _potential(target, q)),
                       grid.dim, grid.shape[0], start=float(np.max(np.abs(grid.nodes))))
    bracket.seed(0, grid, (powered(grid.nodes), -vals))
    moments = []
    for s in rates:
        got = _expand_until_decay(bracket, lambda arrays, s=float(s): s * arrays[0] - arrays[1])
        if got is None:
            moments.append(math.inf)
            continue
        _, grid_s, vals_s = got
        # The moment is >= 1 pointwise, so its log is >= 0; the floor only
        # absorbs quadrature roundoff.
        moments.append(max(grid_s.log_mass(vals_s) - log_mass, 0.0))
    return moments
