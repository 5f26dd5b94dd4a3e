"""plandscape: a laboratory for the dense-subgraph landscape of planted
clique instances.

Deterministic side: the first moment curve and its approximations, the
monotonicity classifiers and the phase diagram, all evaluable at n = 1e7.
Instance side: exact overlap-restricted densest values, flatness checks,
Gibbs chains with exact desk-scale stationary laws, free-energy-well ratios,
hitting times, and overlap-gap certificates.
"""

from .errors import (
    BudgetError,
    CertificationError,
    DomainError,
    ParameterError,
    UndefinedCurveError,
)
from .model import (
    BitGraph,
    ModelParams,
    PlantedGraph,
    VertexSubset,
    edge_count,
    load_graph,
    overlap,
    sample_planted,
    save_graph,
)
from .numerics import (
    ClassifierConfig,
    CurvePoint,
    MonotonicityClass,
    OverlapCurve,
    binary_entropy,
    binary_entropy_inv,
    classify_curve,
    classify_params,
    curve_grid,
    entropy_inv_series,
    first_moment_curve,
    first_moment_expansion,
    first_moment_sqrt_approx,
    log_binomial,
    log_placements,
    phase_diagram,
    rate_function,
    sqrt_approx_renormalized,
    trend_statistic,
)
from .landscape import (
    DensestPrediction,
    DensestResult,
    binomial_tail_bracket,
    densest_prediction,
    densest_subgraph,
    densest_with_overlap,
    error_exponent_bound,
    local_search_densest,
    log_binomial_tail,
    log_expected_dense_count,
)
from .flatness import FlatnessReport, is_flat, sample_conditioned, subset_slack
from .mcmc import (
    ChainTrace,
    ExactGibbs,
    MCMCConfig,
    WellPartition,
    beta_scale_threshold,
    conditional_init,
    exact_gibbs,
    free_energy_well_ratio,
    gibbs_log_weight,
    hitting_time,
    run_chain,
    transition_matrix,
    well_ratio_lower_bound,
)
from .ogp import DipWitness, OGPCertificate, auto_certify, certify_ogp, dip_witness, overlap_curve

__version__ = "0.1.0"
