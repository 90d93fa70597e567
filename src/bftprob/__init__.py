"""Probabilistic happy-path models for quorum-based BFT protocols.

Computes exact per-phase replica-state distributions for PBFT, BFT-SMaRt,
Zyzzyva, and SBFT under independent per-message link failures and per-phase
crash failures, plus stability/timeout analysis tools and a seeded
discrete-event simulator for validating the closed forms.
"""

from .analysis import (
    GradientField,
    SweepGrid,
    SweepRow,
    gradient_field,
    quorum_asymptote,
    quorum_success,
    stability_boundary,
    stability_crossing,
    sweep,
    timeout_for_boundary,
)
from .chain import (
    JointDistribution,
    convolve,
    crash_step,
    joint_via_kernel,
    total_probability,
    total_probability_joint,
)
from .prob import (
    DomainError,
    FailureParams,
    NormalizationError,
    Pmf,
    binom_range,
    normal_quantile,
    pmf_binomial,
)
from .protocols import (
    BFT_SMART,
    PBFT,
    PROTOCOLS,
    SBFT,
    ZYZZYVA,
    PhaseTrace,
    ProtocolConfig,
    model_trace,
    pbft_crash_only,
    pbft_model,
    sbft_model,
    smart_model,
    zyzzyva_model,
)
from .sim import (
    CampaignStats,
    ModelCheck,
    SimConfig,
    SimRecord,
    compare_to_model,
    run_campaign,
    simulate_request,
    validate_model,
)

__version__ = "0.2.0"
