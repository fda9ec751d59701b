"""Finite groupoids, principal bundles, gauge transformations and bibundles.

The package re-exports each module's __all__.
"""

from .builders import *
from .bundles import *
from .core import *
from .gauge import *
from .hs import *
from .serialize import *
from .theorems import *

__version__ = "0.1.0"
