"""Churn substrate: traces, the columnar timeline, stochastic models,
the synthetic Overnet generator, persistence, and statistics."""

from repro.churn.loader import (
    TRACE_MODELS,
    generate_model_trace,
    load_trace_npz,
    load_trace_text,
    save_trace_npz,
    save_trace_text,
)
from repro.churn.models import DiurnalProfile, MarkovChurnModel, sample_epoch_matrix
from repro.churn.overnet import (
    DEFAULT_MIXTURE,
    OVERNET_EPOCH_SECONDS,
    OVERNET_EPOCHS,
    OVERNET_HOSTS,
    BetaComponent,
    BetaMixture,
    OvernetTraceConfig,
    generate_overnet_trace,
    sample_availabilities,
)
from repro.churn.stats import (
    TraceSummary,
    availability_samples,
    churn_events_per_epoch,
    online_availability_samples,
    online_population_series,
    summarize_trace,
)
from repro.churn.timeline import ChurnTimeline
from repro.churn.trace import ChurnTrace

__all__ = [
    "ChurnTrace",
    "ChurnTimeline",
    "MarkovChurnModel",
    "DiurnalProfile",
    "sample_epoch_matrix",
    "BetaComponent",
    "BetaMixture",
    "DEFAULT_MIXTURE",
    "OvernetTraceConfig",
    "generate_overnet_trace",
    "sample_availabilities",
    "OVERNET_HOSTS",
    "OVERNET_EPOCHS",
    "OVERNET_EPOCH_SECONDS",
    "generate_model_trace",
    "TRACE_MODELS",
    "save_trace_npz",
    "load_trace_npz",
    "save_trace_text",
    "load_trace_text",
    "TraceSummary",
    "summarize_trace",
    "availability_samples",
    "online_availability_samples",
    "online_population_series",
    "churn_events_per_epoch",
]
