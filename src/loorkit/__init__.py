"""Weighted Lovász numbers, optimal orthogonal representations, and
complex-to-real conversion for exclusivity graphs."""

from . import graph, instances, loor, numerics, realify, theta
from .graph import *
from .instances import *
from .loor import *
from .numerics import *
from .realify import *
from .theta import *

__version__ = "0.1.0"

__all__ = [
    *graph.__all__,
    *instances.__all__,
    *loor.__all__,
    *numerics.__all__,
    *realify.__all__,
    *theta.__all__,
    "__version__",
]
