"""Locally linear embedding with a choice of classical ambient-space weights
or rank-d neighborhood-representation weights, plus the verification
experiments built around the method: weight-stability bounds under
perturbation, preimage objective-value scaling, and embedding-quality
statistics against ground truth.

The package's modules import only numpy and the standard library at module
level; each scipy module is imported inside the function that uses it, so the
perturbation study and the generators run without loading scipy."""

from . import datasets, diagnostics, embedding, errors, neighbors, weights
from .datasets import *
from .diagnostics import *
from .embedding import *
from .errors import *
from .neighbors import *
from .weights import *

__version__ = "0.1.0"

__all__ = (datasets.__all__ + diagnostics.__all__ + embedding.__all__ + errors.__all__
           + neighbors.__all__ + weights.__all__ + ["__version__"])
