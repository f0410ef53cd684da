"""Link budgets, achievable rates, and max-min power/bandwidth allocation
for a LEO satellite jointly serving an access user and a backhaul station.
"""

from . import allocator, linkbudget, ratemodel
from .linkbudget import *
from .ratemodel import *
from .allocator import *

__version__ = "0.1.0"

__all__ = linkbudget.__all__ + ratemodel.__all__ + allocator.__all__
