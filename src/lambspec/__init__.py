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
  sesquilinear forms, and the energy metric and masked companion
  linearization, both read off the pencil.
- `eigen`: the QZ eigensolve, split into symmetric and antisymmetric
  blocks on the traction-free plate, with two-resolution filtering,
  parity labels, Jordan-chain detection, and biorthogonal systems.
- `analysis`: measured verification of the operator-level claims —
  coercivity constants, resolvent norms on the five admissible rays, a
  Hilbert-Schmidt proxy, non-self-adjointness witnesses, and modal
  completeness residuals.

`cli` wraps everything in deterministic batch subcommands.
"""

from .analysis import (
    CoercivityReport,
    ExpansionReport,
    ResolventScan,
    adjoint_defect,
    coercivity_scan,
    constrained_min_singular,
    expand_field,
    five_rays,
    gram_norm,
    in_sector,
    measured_b,
    nonorthogonality_witness,
    quadratic_form_value,
    random_trig_fields,
    resolvent_norms,
    resolvent_scan,
    resolvent_solve,
)
from .core import (
    BCKind,
    Material,
    PencilCoefficients,
    make_material,
    pencil_coefficients,
    principal_symbol,
    symbol_det_l0,
)
from .discretize import (
    DiscreteOperator,
    DiscretePencil,
    FormMatrices,
    Grid,
    assemble_linearization,
    assemble_operator,
    assemble_pencil,
    assemble_sh_pencil,
    chebyshev_grid,
    pencil_residual,
    pencil_scale,
    pencil_value,
    reduced_operator,
    sesquilinear_forms,
)
from .eigen import (
    BiorthogonalSystem,
    JordanChain,
    Mode,
    ModeSet,
    PARITY_ANTISYMMETRIC,
    PARITY_MIXED,
    PARITY_SYMMETRIC,
    biorthogonalize,
    classify_parity,
    detect_jordan_chains,
    solve_modes,
)
from .oracle import (
    DispersionFunction,
    RootCertificationError,
    StableSolutionReport,
    cutoff_frequencies,
    find_zero_group_velocity_point,
    low_frequency_plate_speed,
    rayleigh_lamb_roots,
    rayleigh_speed,
    sh_modes_closed_form,
    stable_solution_check,
    winding_number,
)

__version__ = "0.1.0"

__all__ = [
    "BCKind",
    "BiorthogonalSystem",
    "CoercivityReport",
    "DiscreteOperator",
    "DiscretePencil",
    "DispersionFunction",
    "ExpansionReport",
    "FormMatrices",
    "Grid",
    "JordanChain",
    "Material",
    "Mode",
    "ModeSet",
    "PARITY_ANTISYMMETRIC",
    "PARITY_MIXED",
    "PARITY_SYMMETRIC",
    "PencilCoefficients",
    "ResolventScan",
    "RootCertificationError",
    "StableSolutionReport",
    "adjoint_defect",
    "assemble_linearization",
    "assemble_operator",
    "assemble_pencil",
    "assemble_sh_pencil",
    "biorthogonalize",
    "chebyshev_grid",
    "classify_parity",
    "coercivity_scan",
    "constrained_min_singular",
    "cutoff_frequencies",
    "detect_jordan_chains",
    "expand_field",
    "find_zero_group_velocity_point",
    "five_rays",
    "gram_norm",
    "in_sector",
    "low_frequency_plate_speed",
    "make_material",
    "measured_b",
    "nonorthogonality_witness",
    "pencil_coefficients",
    "pencil_residual",
    "pencil_scale",
    "pencil_value",
    "principal_symbol",
    "quadratic_form_value",
    "random_trig_fields",
    "rayleigh_lamb_roots",
    "rayleigh_speed",
    "reduced_operator",
    "resolvent_norms",
    "resolvent_scan",
    "resolvent_solve",
    "sesquilinear_forms",
    "sh_modes_closed_form",
    "solve_modes",
    "stable_solution_check",
    "symbol_det_l0",
    "winding_number",
    "__version__",
]
