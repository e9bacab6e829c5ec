"""Federated learning simulator with a tail-focused training objective."""

from .data import (
    Population,
    gen_gaussian_mixture,
    gen_hetero_logistic,
    load_devices_jsonl,
    save_devices_jsonl,
    split_devices,
    stream,
)
from .federation import (
    AMResult,
    CertifiedGradientDescent,
    EvalSnapshot,
    FederatedRun,
    FederationConfig,
    PopulationObjective,
    PowerLawSchedule,
    RoundLog,
    am_meta,
    deltafl_round,
    local_update,
    lr_schedule,
    population_objectives,
    quadratic_objectives,
    run_federated,
    smoothed_full_gradient,
)
from .metrics import percentile, summarize, table_from_population
from .models import LossSpec, device_error, device_loss, init_params, point_grad, point_loss
from .secure_agg import (
    AggregationTranscript,
    MMQuantileResult,
    PinballSpec,
    audit_transcript,
    masked_weighted_sum,
    mm_quantile,
    pinball_loss,
    plain_weighted_sum,
    secure_quantile_for_round,
)
from .superquantile import (
    WeightedValues,
    plus_objective,
    smoothed_device_coefficients,
    smoothed_eta_minimizers,
    smoothed_eta_star,
    smoothed_objective,
    smoothed_objective_slope,
    smoothed_plus,
    smoothed_plus_derivative,
    superquantile,
    weighted_quantile,
)

__version__ = "0.1.0"
