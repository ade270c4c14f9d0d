"""Batch Newton optimization with a Gaussian-filtered momentum variant.

The package provides a small SPD linear-algebra kernel, sub-sampled
objectives (least squares, exponential families, canonical GLMs), a
backtracking line search, a Gaussian filter over the latent gradient
with a momentum-matrix monitor, the two optimization loops, and a
paired-trial benchmark with CSV output. Each library module's
``__all__`` is the package's list of its public names.
"""

from .experiment import *
from .filtering import *
from .line_search import *
from .linalg import *
from .objectives import *
from .optim import *
from .streams import *

__version__ = "0.1.0"
