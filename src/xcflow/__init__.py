"""Cross curvature flow on circle-symmetric 3-manifolds.

Simulates the reduced flows of warped metrics on square-torus bundles
and sphere bundles over a circle, evaluates their curvature in closed
form, and checks the monotonicity and convergence behaviour of the
flows against explicit thresholds.
"""

from . import claims, cli, diagnostics, flow, geometry
from .claims import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403

__all__ = [
    *claims.__all__,
    *cli.__all__,
    *diagnostics.__all__,
    *flow.__all__,
    *geometry.__all__,
]

__version__ = "0.1.0"
