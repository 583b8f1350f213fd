"""Single-excitation dissipative dynamics of chirally coupled atom chains.

The package simulates how one shared excitation decays out of a chain of
two-level atoms coupled to a one-dimensional reservoir with independently
tunable left- and right-propagating emission rates, and provides the
resonant dipole-dipole coupling kernels for 1D (chiral and reciprocal),
2D, and 3D reservoirs in a common convention.

The public names are those of each module's ``__all__``.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import analysis, chain, dynamics, errors, kernels, reprs
from .analysis import *  # noqa: F401,F403
from .chain import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .reprs import *  # noqa: F401,F403

__all__ = ["__version__", *analysis.__all__, *chain.__all__,
           *dynamics.__all__, *errors.__all__, *kernels.__all__, *reprs.__all__]
