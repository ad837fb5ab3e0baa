"""Gram spectra of stationary Gaussian fields.

Simulation of filtered Gaussian field matrices and their structured
deterministic companions, eigenvalue statistics and distribution
distances, and numerical solvers for the fixed-point equations that
characterize the limiting spectral distributions.
"""

from .symbols import *  # noqa: F401,F403
from .matgen import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .limit_solver import *  # noqa: F401,F403

__version__ = "0.1.0"
