"""Constrained particle sampling by running SVGD through a mirror map.

The package is layered: mirrors/kernels/targets define the geometry, engine
moves particles, quadrature integrates dual densities on grids, theory
prices certified step sizes, gridflow checks the descent story by
quadrature at desk scale, and cli ties the layers to JSON configs and CSV
artifacts.
"""

from .errors import ConfigError, DomainError, NumericsError
from .kernels import DualIMQKernel, IMQKernel, RBFKernel, RescaledKernel, make_kernel
from .mirrors import EntropicBoxMap, EntropicSimplexMap, EuclideanMap, make_map
from .targets import (
    Dirichlet,
    MirroredPowerLaw,
    MirroredTarget,
    TruncatedGaussian,
    certified_profile,
    make_target,
)
from .engine import stein_fisher_particles
from .theory import Certificate, SmoothnessProfile, certify, step_size_bound

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "NumericsError",
    "DualIMQKernel",
    "IMQKernel",
    "RBFKernel",
    "RescaledKernel",
    "make_kernel",
    "EntropicBoxMap",
    "EntropicSimplexMap",
    "EuclideanMap",
    "make_map",
    "Dirichlet",
    "MirroredPowerLaw",
    "MirroredTarget",
    "TruncatedGaussian",
    "make_target",
    "certified_profile",
    "SmoothnessProfile",
    "Certificate",
    "certify",
    "step_size_bound",
    "stein_fisher_particles",
    "__version__",
]
