"""Certification and search tools for product Kraus representations.

A separable quantum channel acts as ``rho -> sum_j K_j rho K_j^dag`` with every
Kraus operator a tensor product across parties.  This package decides, for a
given product family, whether that representation is the only one (up to
isometric remixing no other product family implements the same channel),
hunts numerically for product combinations inside member subsets, converts
channels to ket ensembles and back, and ships the reference families the
theory is calibrated on.
"""

__version__ = "0.1.0"

from .certify import (
    DEFAULT_ENUMERATION_CAP,
    STRATEGY_ALL_BIPARTITIONS,
    STRATEGY_PAIRS,
    Certificate,
    CompletenessReport,
    Witness,
    certify_unique,
    default_strategy,
    verify_completeness,
)
from .choi import (
    DensityMatrix,
    channel_to_choi_ensemble,
    channels_equal,
    ensemble_to_state,
)
from .errors import (
    DegenerateInputError,
    EnumerationCapError,
    NumericError,
    ParameterError,
    SepcertError,
    ShapeError,
    SizeBudgetError,
    UsageError,
)
from .families import (
    Bipartition,
    OperatorFamily,
    PartySpec,
    ProductOperator,
    SpanBoundReport,
    all_bipartitions,
    family_from_factors,
    party_pairs,
    span_bound_report,
)
from .hunter import (
    MixingPoint,
    SearchResult,
    SpanBoundStats,
    apply_mixing,
    fuzz_span_bound,
    hunt_product,
    mixing_search,
    mixing_unitary,
    product_residual,
    recover_product,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    TolerancePolicy,
    frobenius,
    kron,
    numerical_rank,
    proportional,
    realign_bipartite,
    schmidt_rank,
    span_dimension,
    unvectorize,
    vectorize,
)
from .sampling import (
    haar_unitary,
    independent_matrices,
    planted_dependent_family,
    random_isometry,
    random_povm,
    random_product_family,
    random_product_measurement,
    shared_factor_family,
)
from .serialize import (
    FORMAT_VERSION,
    KIND_CHANNEL,
    KIND_ENSEMBLE,
    LoadedFile,
    detect_kind,
    family_from_dict,
    family_to_dict,
    load_family,
    save_family,
)
from .zoo import (
    augment_channel,
    gen_fourier_channel,
    gen_ladder_channel,
    gen_pauli_pair_channel,
    gen_product_unitary_channel,
    gen_projective_basis,
    gen_tight_family,
    heisenberg_weyl_unitaries,
    smallest_prime_exceeding,
)
