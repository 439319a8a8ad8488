"""Exact and asymptotic N-boson transition amplitudes on M-mode unitary networks."""

from .beamsplitter import (
    BeamSplitterCase,
    Regime,
    amplitude_exact_bs,
    analytic_det,
    analytic_saddles,
    classify_regime,
)
from .errors import (
    BadDimension,
    BosonicSaddleError,
    CoalescingSaddles,
    DegenerateSaddle,
    EmptyMode,
    FormMismatch,
    MarginMismatch,
    NoConvergence,
    NonPositiveIntensity,
    NonPositiveMatrix,
    NoSaddlesFound,
    NotUnitary,
    TooLarge,
    ZeroScalingComponent,
)
from .exact import (
    FlopEstimate,
    RyserStats,
    amplitude_exact,
    bell_classical_probability,
    classical_probability,
    flop_estimate,
    permanent_repeated,
)
from .logcomplex import LogComplex
from .network import (
    NetworkMatrix,
    Occupation,
    beam_splitter,
    enumerate_output_configs,
    haar_random_unitary,
    output_config_count,
    tritter,
    validate_unitary,
)
from .saddle import (
    ApproxDiagnostics,
    ApproxResult,
    HessianBlocks,
    SaddleContribution,
    amplitude_approx,
    classical_probability_approx,
    det_Dprime,
    mortici_theta,
    multinomial_approx,
    multinomial_exact_log,
    saddle_exponent,
    select_contributing,
    stirling_relative_error,
)
from .scaling import (
    ReducedSystem,
    SaddleSolution,
    ScalingProblem,
    build_reduced_system,
    canonicalize_and_dedup,
    conjugate_pairs,
    sinkhorn_scale_classical,
    solve_all_saddles,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
