"""Predator-prey dynamics with demographic noise: analysis, simulation, certification."""

from . import ensemble, equilibria, model, ode, sde, verification
from .ensemble import *  # noqa: F401,F403
from .equilibria import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .ode import *  # noqa: F401,F403
from .sde import *  # noqa: F401,F403
from .verification import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each library module lists its own public names; the package exports their union.
__all__ = sorted(
    name
    for module in (ensemble, equilibria, model, ode, sde, verification)
    for name in module.__all__
)
