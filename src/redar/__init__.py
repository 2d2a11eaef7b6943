"""Closed-loop system identification with computable error bounds.

Pipeline: ridge VARX regression on joint input/output lags, delay-line
predictor realization, balanced truncation with a certified H-infinity
budget, innovation-form extraction.  The ``bounds`` module evaluates
non-asymptotic expected-error and model-error bounds from system-level
quantities, and ``experiments`` compares them against Monte Carlo runs.
"""

from . import bounds, errors, experiments, kalman, linalg, realization, serialize, systems, varx
from .bounds import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .kalman import *  # noqa: F403
from .linalg import *  # noqa: F403
from .realization import *  # noqa: F403
from .serialize import *  # noqa: F403
from .systems import *  # noqa: F403
from .varx import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
_MODULES = (bounds, errors, experiments, kalman, linalg, realization, serialize, systems, varx)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
