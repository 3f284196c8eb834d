"""Spectral solver and verification suite for elastic plate waveguide modes.

The package splits into five layers:

- `core`: material records, pencil coefficient blocks, and the principal
  symbol of the underlying second-order system.
- `oracle`: independent analytic references — the transcendental
  dispersion determinants with certified contour root counting, the
  closed-form shear-horizontal spectrum, decaying half-space solutions,
  and the zero-group-velocity point locator.  Nothing here touches the
  solver's discretization.
- `discretize`: Chebyshev collocation of the quadratic pencil, the
  sesquilinear forms, and what is read off the pencil: the energy metric,
  the masked companion rows and the half-size lam = mu^2 form.
- `eigen`: the shift-invert eigensolve, split into symmetric and
  antisymmetric blocks on the traction-free plate, with two-resolution
  filtering, parity labels, Jordan-chain detection, and biorthogonal systems.
- `analysis`: measured verification of the operator-level claims —
  coercivity constants, resolvent norms on the five admissible rays, a
  Hilbert-Schmidt proxy, non-self-adjointness witnesses (the adjoint
  defect eliminates the boundary rows itself), and modal completeness.

`cli` wraps everything in deterministic batch subcommands.
"""

from . import analysis, core, discretize, eigen, oracle
from .analysis import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .discretize import *  # noqa: F401,F403
from .eigen import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (analysis, core, discretize, eigen, oracle)
                 for name in module.__all__) + ["__version__"]
