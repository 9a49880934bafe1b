"""Certified proper r-harmonic and biharmonic homogeneous Hopf hypersurfaces.

The package couples two computation lanes: exact rational arithmetic for
quartic coefficients, probe identities and Sturm-certified root counts, and
mpmath high-precision floats for curvature spectra, residuals and radii.
"""

__version__ = "0.1.0"

from .errors import (
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
    mp,
)
from .families import (
    CurvatureSpectrum,
    FamilyTag,
    HypersurfaceFamily,
    Substitution,
    admissible_families,
    curvature_spectrum,
    minimal_x,
    r_independent_x,
    radius_from_x,
    scaled_curvature_spectrum,
    spectrum_arrays,
    trace_shape,
    trace_shape_squared,
    x_from_radius,
)
from .residual import (
    ResidualReport,
    chn_scan,
    residual,
    residual_grid,
    tail_residual,
)
from .quartic import (
    QuarticPoly,
    RootCertificate,
    build_quartic,
    count_real_roots,
    isolate_and_refine,
    root_to_radius,
)
from .existence import (
    BalancedTubeRoots,
    ProbeReport,
    ThresholdPair,
    a1_offset_probe_poly,
    a2_closed_form,
    certify_radii,
    count_solutions,
    eta1,
    guaranteed_thresholds,
    k_above_k2,
    k_below_k1,
    probe_values,
)
from .biharmonic import (
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
