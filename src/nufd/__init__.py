"""Finite-difference operators, consistency analysis and error metrics on
uniform and nonuniform meshes.

The package exports exactly the names in its library modules' ``__all__``.
"""

from . import analysis, diffops, functions, ivp, mesh, metrics
from .analysis import *
from .diffops import *
from .functions import *
from .ivp import *
from .mesh import *
from .metrics import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += analysis.__all__
__all__ += diffops.__all__
__all__ += functions.__all__
__all__ += ivp.__all__
__all__ += mesh.__all__
__all__ += metrics.__all__
