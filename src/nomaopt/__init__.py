"""Certified sum-rate maximization for multi-cell downlink NOMA.

The package solves joint power and sub-carrier allocation to epsilon
global optimality via outer polyblock approximation over the achievable
SINR set, with a bracketed line search as the boundary projection. It
ships an exhaustive grid cross-check, two declared stand-in baseline
heuristics, and a reproducible scenario generator plus experiment harness.

A name is public exactly when the module that defines it lists it in its
``__all__``; the package re-exports those lists.
"""

from . import experiments, fractional, model, oracle, polyblock, reduction
from .experiments import *  # noqa: F403
from .fractional import *  # noqa: F403
from .model import *  # noqa: F403
from .oracle import *  # noqa: F403
from .polyblock import *  # noqa: F403
from .reduction import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *reduction.__all__,
    *fractional.__all__,
    *polyblock.__all__,
    *oracle.__all__,
    *experiments.__all__,
]
