"""Dual-space quadrature: the grid's log mass against the trapezoid rule,
and the exponential moments against their closed forms."""

import math

import numpy as np
import pytest

from msvgd.quadrature import Grid, log_moments, target_box


class Gaussian:
    """The dual density exp(-||x||^2 / 2) in ``dim`` dimensions."""

    def __init__(self, dim):
        self.dim = dim

    def potential(self, x):
        return 0.5 * np.sum(x * x, axis=1)


@pytest.mark.parametrize("axes", [
    (np.linspace(-3.0, 5.0, 101),),
    (np.linspace(-2.0, 2.0, 33), np.linspace(-1.0, 4.0, 41)),
])
def test_log_mass_is_the_log_of_the_trapezoid_integral(axes):
    grid = Grid(axes)
    values = np.sin(grid.nodes).sum(axis=1) - 0.5 * np.sum(grid.nodes ** 2, axis=1)
    want = np.exp(values).reshape(grid.shape)
    for axis in reversed(axes):
        want = np.trapezoid(want, axis, axis=-1)
    assert grid.log_mass(values) == pytest.approx(math.log(want), rel=1e-13)


def test_log_moments_are_inf_exactly_where_the_moment_diverges():
    # E exp(s X^2) = (1 - 2s)^(-1/2) for X ~ N(0, 1), finite only for s < 1/2
    target = Gaussian(1)
    rates = [0.05, 0.2, 0.3, 0.7, 4.0]
    got = log_moments(target, target_box(target, 4096), 2.0, rates)
    for s, value in zip(rates[:3], got):
        assert value == pytest.approx(-0.5 * math.log1p(-2.0 * s), rel=1e-9)
    assert got[3:] == [math.inf, math.inf]
