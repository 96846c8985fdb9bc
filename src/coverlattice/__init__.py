"""Exact toolkit for minimal vertex covers of unmixed bipartite graphs.

Enumerate the minimal covers of a graph, decide unmixedness, normalize an
unmixed bipartite graph so that each {x_i, y_i} is an edge, read its cover
lattice off the labeled edges (the down-sets of i <= j iff x_i y_j is an
edge), and tie the lattice rank to the exact rank of the cover incidence
matrix: the semigroup of the cover monomials has dimension rank plus one,
and every pipeline run re-verifies that.
"""

from . import algebra, covers, exceptions, graphs, lattice, pipeline
from .algebra import *
from .covers import *
from .exceptions import *
from .graphs import *
from .lattice import *
from .pipeline import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    *exceptions.__all__,
    *graphs.__all__,
    *covers.__all__,
    *lattice.__all__,
    *algebra.__all__,
    *pipeline.__all__,
]
