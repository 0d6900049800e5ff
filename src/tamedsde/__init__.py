"""Strong-approximation SDE integrators built around drift taming.

The package integrates Ito SDEs whose drift splits into a regular part and
a one-sided Lipschitz part, using explicit schemes that tame either the
whole drift or only the one-sided part, and provides a reproducible Monte
Carlo harness for strong-convergence and mean-square stability studies.
"""

from . import analysis, model, paths, schemes
from .model import *  # noqa: F403  (each module's own __all__)
from .paths import *  # noqa: F403
from .schemes import *  # noqa: F403
from .analysis import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*model.__all__, *paths.__all__, *schemes.__all__, *analysis.__all__, "__version__"]
