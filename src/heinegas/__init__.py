"""Multi-dimensional Heine count laws and the finite-n radial Coulomb gas.

The package has five layers:

- :mod:`heinegas.qseries`: q-Pochhammer utilities and the 1-D closed form.
- :mod:`heinegas.heine`: the multi-dimensional Heine distribution (exact
  pmf, tables, moments, MGF, sampling, mapped convolution).
- :mod:`heinegas.potentials`: smooth radial potential builders with
  outposts outside the droplet or inside a spectral gap, plus the droplet
  classifier and validator.
- :mod:`heinegas.engine`: exact finite-n quantities per index j
  (log norms, joint MGFs, Poisson-binomial count laws, moduli sampling).
- :mod:`heinegas.limits`: the predicted scaling limits (case-1 Heine
  parameters, case-2 oscillating two-vector decomposition) and the per-n
  row comparing the exact law with them.

The command-line entry point lives in :mod:`heinegas.cli`.
"""

from .engine import (
    HardRegion,
    LandingMatrix,
    MgfResult,
    ModuliSample,
    QuadratureConfig,
    QuadratureError,
    RegionSet,
    SplitBump,
    SplitRegion,
    exact_count_law,
    joint_mgf,
    landing_matrix,
    log_norm,
    moduli_to_csv,
    region_probabilities,
    sample_moduli,
    standard_regions,
)
from .heine import (
    CoordinateMap,
    CountLaw,
    HeineParams,
    HeineSample,
    convolve_mapped,
    covariance,
    covariance_matrix,
    identity_map,
    marginal_cap,
    mean_vector,
    mgf,
    pmf_point,
    pmf_table,
    poisson_binomial_dp,
    sample,
    site_probabilities,
    truncation_site_count,
    tv_distance,
    validate_params,
    variance_vector,
)
from .limits import (
    Case1Limit,
    Case2Limit,
    case1,
    case2,
    case2_moments,
    case2_predicted_law,
    case2_predicted_mgf,
)
from .potentials import (
    BuildValidationError,
    BumpSpec,
    ClassificationError,
    DropletData,
    RadialPotential,
    RootFindingError,
    Shoulder,
    build_case1,
    build_case2,
    bump,
    classify,
    derivative_consistency,
    droplet_data,
    g_tau,
    ginibre,
    laplacian,
    mass_between,
    shoulder,
    validation_report,
)
from .qseries import heine_pmf_1d, qpochhammer, qpochhammer_inf

__version__ = "0.1.0"

__all__ = [
    "BuildValidationError",
    "BumpSpec",
    "Case1Limit",
    "Case2Limit",
    "ClassificationError",
    "CoordinateMap",
    "CountLaw",
    "DropletData",
    "HardRegion",
    "HeineParams",
    "HeineSample",
    "LandingMatrix",
    "MgfResult",
    "ModuliSample",
    "QuadratureConfig",
    "QuadratureError",
    "RadialPotential",
    "RegionSet",
    "RootFindingError",
    "Shoulder",
    "SplitBump",
    "SplitRegion",
    "build_case1",
    "build_case2",
    "bump",
    "case1",
    "case2",
    "case2_moments",
    "case2_predicted_law",
    "case2_predicted_mgf",
    "classify",
    "convolve_mapped",
    "covariance",
    "covariance_matrix",
    "derivative_consistency",
    "droplet_data",
    "exact_count_law",
    "g_tau",
    "ginibre",
    "heine_pmf_1d",
    "identity_map",
    "joint_mgf",
    "landing_matrix",
    "laplacian",
    "log_norm",
    "marginal_cap",
    "mass_between",
    "mean_vector",
    "mgf",
    "moduli_to_csv",
    "pmf_point",
    "pmf_table",
    "poisson_binomial_dp",
    "qpochhammer",
    "qpochhammer_inf",
    "region_probabilities",
    "sample",
    "sample_moduli",
    "shoulder",
    "site_probabilities",
    "standard_regions",
    "truncation_site_count",
    "tv_distance",
    "validate_params",
    "validation_report",
    "variance_vector",
]
