"""Numerical toolkit for the spectral order on Hermitian matrices.

Decide order comparisons, compute suprema and infima of finite matrix sets
by independent routes (spectral-family lattice formulas, iterative
power-mean limits, and structure-specific oracles), and run the lattice and
convergence laws as executable verification suites.

The package re-exports the public names of each module, as listed in its
``__all__``; the package ``__all__`` is their concatenation.
"""

from . import core, family, harness, lattice, limits, projections
from .core import *  # noqa: F403
from .family import *  # noqa: F403
from .projections import *  # noqa: F403
from .lattice import *  # noqa: F403
from .limits import *  # noqa: F403
from .harness import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for m in (core, family, projections, lattice, limits, harness) for name in m.__all__]
