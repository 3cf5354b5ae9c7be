"""Sparse recovery from nonlinear measurements via pointwise linearization
of composite sensing maps: property certification (spark, RIP, NSP) of
sensing matrices, a catalog of nonlinear measurement maps, per-point
linearization certificates, l1/l0 decoders, and a batch experiment harness.

The package re-exports the public names of its modules; each module's
``__all__`` is the one list of them.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .matrix_core import *  # noqa: F401,F403
from .nonlinear_maps import *  # noqa: F401,F403
from .pointwise_linearization import *  # noqa: F401,F403
from .recovery import *  # noqa: F401,F403
from .sensing_properties import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403
