"""Minimum-divergence region of a symmetric binary pair, with envelopes.

The package is organised bottom-up:

- :mod:`.binary` — scalar binary entropy/divergence machinery, the
  source parameters and couplings.
- :mod:`.mre` — the two-letter divergence surface ``dd2`` and its exact
  minimizer ``p_star``.
- :mod:`.envelopes` — the surface slices ``phi``/``psi``, their monotone
  rearrangements, and the slope-indexed families phi_q/psi_q
  (``phi_q_full``/``psi_q_full``).
- :mod:`.hulls` — grid convex-hull and curvature certificates.
- :mod:`.stationary` — stationarity root equation, coupling
  reconstruction, and saddle-value extrema.
- :mod:`.verify` — the claim registry tying everything together.
- :mod:`.cli` — ``dsbs-envelopes`` command-line entry point.
"""

__version__ = "0.1.0"

from .binary import (
    Coupling2x2,
    DsbsParams,
    bconv,
    d2,
    d2_inv,
    h2,
)
from .envelopes import (
    QParam,
    in_s0,
    phi,
    phi_grid,
    phi_q_full,
    phi_tilde,
    phi_tilde_ab,
    phi_tilde_grid,
    psi,
    psi_grid,
    psi_q_full,
)
from .errors import (
    DsbsError,
    InconsistencyError,
    InputDomainError,
    NoRootError,
)
from .hulls import (
    ConvexityReport,
    GridFn,
    check_midpoint_concave,
    check_midpoint_convex,
    check_monotone,
    check_slope_bounds,
    lower_convex_envelope,
    upper_concave_envelope,
)
from .mre import MreResult, dd2, p_star
from .stationary import (
    GammaExtremum,
    RootProblem,
    StationaryPoint,
    aux_phi_h,
    count_roots_scan,
    eta_of_h,
    gamma_extremum,
    h0_threshold,
    hypercontractive_regime,
    solve_root_z,
    stationary_point,
)
from .verify import (
    CLAIM_IDS,
    ClaimResult,
    VerificationReport,
    VerifyOptions,
    default_tolerances,
    verify_all,
)

__all__ = [
    "CLAIM_IDS",
    "ClaimResult",
    "ConvexityReport",
    "Coupling2x2",
    "DsbsError",
    "DsbsParams",
    "GammaExtremum",
    "GridFn",
    "InconsistencyError",
    "InputDomainError",
    "MreResult",
    "NoRootError",
    "QParam",
    "RootProblem",
    "StationaryPoint",
    "VerificationReport",
    "VerifyOptions",
    "aux_phi_h",
    "bconv",
    "check_midpoint_concave",
    "check_midpoint_convex",
    "check_monotone",
    "check_slope_bounds",
    "count_roots_scan",
    "d2",
    "d2_inv",
    "dd2",
    "default_tolerances",
    "eta_of_h",
    "gamma_extremum",
    "h0_threshold",
    "h2",
    "hypercontractive_regime",
    "in_s0",
    "lower_convex_envelope",
    "p_star",
    "phi",
    "phi_grid",
    "phi_q_full",
    "phi_tilde",
    "phi_tilde_ab",
    "phi_tilde_grid",
    "psi",
    "psi_grid",
    "psi_q_full",
    "solve_root_z",
    "stationary_point",
    "upper_concave_envelope",
    "verify_all",
]
