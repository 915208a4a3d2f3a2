"""Collaborative CP factorization of horizontally partitioned sparse tensors,
with elastic server aggregation, column-sparse patient factors, and
differentially private uploads.

The package exports the entry points of a run and what their callers pass
in or get back; everything else is imported from its submodule."""

from .baseline import run_centralized_sgd
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
from .federation import EpochMetrics, RunResult, run_experiment
from .privacy import PrivacyParams
from .solver import SolverParams
from .tensor import FactorizationResult, SparseTensorCOO, fms, rmse

__version__ = "0.1.0"
