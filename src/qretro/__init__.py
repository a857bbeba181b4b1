"""Minimum mean-square retrodiction of quantum observables.

Computes the optimal Hermitian (Personick) and unconstrained complex
estimators of an observable seen through a quantum channel, their minimum
risks, and the specializations that fall out of the same normal equation:
classical conditional expectations, real and complex weak values, Gaussian
quadrature smoothing, and SLD Fisher-information monotonicity.
"""

from .channels import (
    ClassicalChannel,
    CptpReport,
    Povm,
    QuantumChannel,
    apply_channel,
    channel_from_classical,
    channel_from_cq_ensemble,
    channel_from_dilation,
    channel_from_povm,
    depolarizing_channel,
    identity_channel,
    partial_trace_channel,
    validate_cptp,
)
from .estimators import (
    EstimationResult,
    classical_conditional_expectation,
    complex_estimator,
    complex_weak_value,
    heisenberg_risk,
    personick_estimator,
    schrodinger_risk,
    weak_value,
)
from .fisher import (
    MonotonicityReport,
    PushforwardReport,
    RankChangeError,
    StateFamily,
    depolarizing_mixture_family,
    diagonal_exponential_family,
    diagonal_line_family,
    monotonicity_check,
    qfi,
    qfi_at,
    push_family,
    sld,
    sld_pushforward_check,
    unitary_rotation_family,
)
from .gaussian import (
    GaussianWigner,
    LinearQuadrature,
    NegligibleOverlap,
    gaussian_product,
    numeric_wigner_integral,
    quadrature_estimator,
)
from .operator_core import (
    NumericalFailure,
    Spectrum,
    ValidationError,
    eig_hermitian,
    embed,
    jordan_product,
    jordan_trace_gap,
    partial_trace,
    pseudo_inverse_psd,
    solve_jordan,
    support_projector,
    support_rank,
    tensor,
)
from .scenario import run_scenario
from .selftest import run_selftest

__version__ = "0.1.0"
