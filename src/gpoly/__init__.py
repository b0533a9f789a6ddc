"""Gaussian random point sets in d dimensions.

Sampling with reproducible splittable streams, exact enumeration of facets,
k-facets and estranged facet pairs, closed-form growth constants, and a
Monte Carlo verification suite that triangulates simulation against theory.
"""

__version__ = "0.1.0"

from .experiments import (
    MCEstimate,
    VerificationReport,
    estranged_expectation_mc,
    facet_growth_table,
    fixed_subset_kfacet_probability_mc,
    kfacet_expectation_mc,
    mc_run,
    pair_facet_probability_mc,
    reduced_kfacet_probability_mc,
)
from .geometry import (
    FacetSet,
    KFacetProfile,
    estranged_pair_count,
    facet_set,
    general_position_check,
    kfacet_profile,
)
from .sampling import (
    PointSet,
    RngStream,
    gaussian_point_set,
    stream,
)
from .theory import (
    ConstantResult,
    binary_entropy,
    c_alpha_r,
    dot_density,
    estranged_constant,
    estranged_constant_reduced,
    gaussian_simplex_expected_volume,
    growth_base_kfacet,
    kfacet_expectation_exact,
    kfacet_probability_exact,
    truncated_simplex_lower_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
