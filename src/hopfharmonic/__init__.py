"""Certified proper r-harmonic and biharmonic homogeneous Hopf hypersurfaces.

The package couples two computation lanes: exact rational arithmetic for
quartic coefficients, probe identities and Sturm-certified root counts, and
mpmath high-precision floats for curvature spectra, residuals and radii.
"""

from mpmath import mp

__version__ = "0.1.0"

# Curvature evaluation is specified to carry at least 30 significant digits.
if mp.dps < 30:
    mp.dps = 30

from .errors import (  # noqa: E402
    DegenerateLeadingCoefficient,
    DegenerateTube,
    ExcludedRadius,
    HopfError,
    InvalidFamily,
    InvalidOrder,
    InvalidRootSearch,
    InvalidTolerance,
    NoExactCountGuarantee,
    NotApplicable,
    ProbesCollide,
    RadiusOutOfDomain,
    RootOutOfRange,
    ToleranceNotReached,
    UnsupportedFamily,
)
from .families import (  # noqa: E402
    CurvatureSpectrum,
    FamilyTag,
    HypersurfaceFamily,
    SpecialRadii,
    Substitution,
    admissible_families,
    curvature_spectrum,
    minimal_x,
    r_independent_x,
    radius_from_x,
    scaled_curvature_spectrum,
    special_radii,
    spectrum_arrays,
    trace_shape,
    trace_shape_squared,
    x_from_radius,
)
from .residual import (  # noqa: E402
    ResidualReport,
    chn_scan,
    is_proper_r_harmonic,
    residual,
    residual_grid,
    tail_residual,
)
from .quartic import (  # noqa: E402
    QuarticPoly,
    RootCertificate,
    build_quartic,
    cauchy_bound,
    count_real_roots,
    isolate_and_refine,
    root_to_radius,
)
from .existence import (  # noqa: E402
    BalancedTubeRoots,
    KWindow,
    ProbeReport,
    ThresholdPair,
    a1_offset_probe_poly,
    a2_closed_form,
    a2_k_thresholds,
    certify_radii,
    count_solutions,
    eta1,
    eta2,
    guaranteed_thresholds,
    k_above_k2,
    k_below_k1,
    probe_values,
)
from .biharmonic import (  # noqa: E402
    AsymptoticErrors,
    BiharmonicTube,
    IndexClaim,
    StabilityReport,
    ThresholdScan,
    asymptotic_check,
    biharmonic_radii,
    first_eigenvalue_bound,
    index_threshold_scan,
    lambda_min_squared,
    stability_condition,
    tube_family,
)
