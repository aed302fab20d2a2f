"""Sign-rank certificates for sign matrices.

The package computes exact VC-style combinatorics (shattering, VC dimension,
dual sign rank), spectral lower-bound certificates, constructive upper-bound
witnesses (planar realizations, low-stabbing row orderings, factorization
search), generators for the structured instances these bounds are sharp on,
and exhaustive small-scale censuses of concept classes.
"""

from .census import (
    CensusEstimate,
    CensusResult,
    cube_connected,
    enumerate_census,
    maximum_class_masks,
    sample_census,
)
from .embed import (
    BoundReport,
    FactorizationWitness,
    approx_sign_rank,
    embed_vc1,
    hinge_search_upper,
    lower_certificates,
    signrank_bracket,
    verify_realization,
)
from .errors import CertificationError, MatrixFormatError, SizeLimitError
from .generators import (
    ProjectiveSpace,
    default_line_orders,
    disjointness,
    grid_hyperplane,
    hamming_ball,
    heavy_dominant_free_random,
    heavy_dominant_free_random_logged,
    interval_class,
    line_subset_random,
    planted_line_orders,
    projective_incidence,
    signed_identity,
)
from .matrix import (
    BooleanMatrix,
    RegularityInfo,
    SignMatrix,
    distinct_rows,
    parse_sign_matrix,
    regularity,
    to_boolean,
    to_signed,
)
from .spectral import (
    SpectrumSummary,
    WitnessMatrix,
    forster_bound,
    identity_witness,
    integer_certificate,
    regular_upper_bound,
    regular_witness,
    sigma2_trace_floor,
    spectral_signrank_lower,
    star_norm_floor,
    top_singular_values,
)
from .stabbing import (
    RowOrdering,
    WelzlState,
    count_sign_changes,
    low_stabbing_order,
    sc_star_bruteforce,
    vc1_path,
    welzl_path,
)
from .vc import (
    ConceptClass,
    dual_sign_rank,
    is_antipodally_shattered,
    is_maximum_class,
    is_shattered,
    sauer_bound,
    vc_dimension,
)

__version__ = "0.1.0"
