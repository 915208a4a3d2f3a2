"""Collaborative CP factorization of horizontally partitioned sparse tensors,
with elastic server aggregation, column-sparse patient factors, and
differentially private uploads."""

from .baseline import BaselineResult, run_centralized_sgd
from .data import (
    ExperimentConfig,
    SynthSpec,
    generate_synthetic,
    load_config,
    partition_rows,
    read_coo,
    read_factors,
    write_coo,
    write_factors,
)
from .errors import (
    ConfigError,
    DimensionError,
    NumericOverflowError,
    ParseError,
    ProtocolError,
)
from .federation import (
    EpochMetrics,
    RoundMessage,
    RunResult,
    ServerState,
    comm_cost,
    has_converged,
    run_experiment,
    run_round,
    server_update,
)
from .privacy import (
    LedgerEntry,
    PrivacyAccountant,
    PrivacyParams,
    compose_serial,
    gaussian_sigma,
    l2_sensitivity,
    perturb_matrix,
    rho_for_target,
    zcdp_to_dp,
    zcdp_to_dp_approx,
)
from .solver import (
    RoundSums,
    SiteState,
    SolverParams,
    beta_lipschitz,
    init_site_state,
    prox_l21,
    run_local_epoch,
)
from .tensor import (
    FactorizationResult,
    FmsReport,
    SparseTensorCOO,
    factor_weights,
    fms,
    fms_report,
    rmse,
    zero_column_count,
)

__version__ = "0.1.0"
