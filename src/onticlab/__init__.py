"""Verification lab for hidden-variable models of a single qubit.

The package root holds the names the README's library example uses; every
other name lives in its submodule (qubit, integrate, models, checks, bell,
cli).
"""

from .checks import CheckRun, check_born_reproduction
from .integrate import McConfig
from .models import default_catalog, make_model

__version__ = "0.1.0"
