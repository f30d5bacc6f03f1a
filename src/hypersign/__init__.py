"""Balance, switching and spectra for oriented and signed hypergraphs.

An oriented hypergraph attaches +1/-1 to every edge-vertex incidence; a
signed hypergraph attaches a single +1/-1 to each edge.  This package
builds both structures, decides balance through independent structural,
matrix and tensor routes, produces replayable certificates for every
verdict, and ships a small file format plus seeded generators so the
routes can be cross-validated on random ensembles.

The public API is the union of the library modules' ``__all__``; the
command line (``hypersign.cli``) is not imported here.
"""

__version__ = "0.1.0"

from . import balance, core, errors, fileio, generate, linalg, spectral, switching, tensor, walks

# Read before the star imports, which rebind ``generate`` from the module
# to the function.
__all__ = [
    name
    for module in (balance, core, errors, fileio, generate, linalg, spectral, switching,
                   tensor, walks)
    for name in module.__all__
]

from .balance import *  # noqa: E402,F403
from .core import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
from .fileio import *  # noqa: E402,F403
from .generate import *  # noqa: E402,F403
from .linalg import *  # noqa: E402,F403
from .spectral import *  # noqa: E402,F403
from .switching import *  # noqa: E402,F403
from .tensor import *  # noqa: E402,F403
from .walks import *  # noqa: E402,F403
