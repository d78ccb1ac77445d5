"""Simulation, filtering, retrofiltering, and smoothing of continuously
monitored linear Gaussian quantum systems."""

from .estimate import (
    Trajectory,
    innovations,
    run_filter,
    run_ltl_filter,
    run_retrofilter,
)
from .ingest import (
    RawTrace,
    demodulate,
    inject_noise,
    segment,
)
from .metrics import (
    EnsembleStats,
    VacfResult,
    consistency_check,
    hs_avg_theory,
    hs_avg_theory_classical,
    sev,
    std_delta_theory,
    vacf,
)
from .model import (
    EffectiveParams,
    PhysicalParams,
    effective_params,
    retro_precision,
    v_filter,
    v_filter_ss,
    v_retro,
    v_retro_ss,
    v_true,
)
from .smooth import TargetSpec, smooth_general
from .simulate import (
    MeasurementRecord,
    NumericalError,
    TruthBundle,
    TruthEnsemble,
    simulate_true_and_record,
    simulate_truth_ensemble,
    synthesize_raw,
)

__version__ = "0.1.0"

__all__ = [
    "EffectiveParams",
    "EnsembleStats",
    "MeasurementRecord",
    "NumericalError",
    "PhysicalParams",
    "RawTrace",
    "TargetSpec",
    "Trajectory",
    "TruthBundle",
    "TruthEnsemble",
    "VacfResult",
    "__version__",
    "consistency_check",
    "demodulate",
    "effective_params",
    "hs_avg_theory",
    "hs_avg_theory_classical",
    "inject_noise",
    "innovations",
    "retro_precision",
    "run_filter",
    "run_ltl_filter",
    "run_retrofilter",
    "segment",
    "sev",
    "simulate_true_and_record",
    "simulate_truth_ensemble",
    "smooth_general",
    "std_delta_theory",
    "synthesize_raw",
    "v_filter",
    "v_filter_ss",
    "v_retro",
    "v_retro_ss",
    "v_true",
    "vacf",
]
