"""Error-rate analysis of downlink power-domain NOMA with imperfect SIC.

Building blocks:

  constellation  symbol alphabets and bit-error weights
  channel        ordered Rayleigh magnitude and SNR densities, sampling
  pep            conditional and unconditional pairwise error probability
  asymptotic     exponential bounds and effective diversity estimation
  simulate       vectorized Monte Carlo link simulator (the empirical oracle)
  optimize       union-bound BER objective and power-allocation search
  cli            command-line recipes and CSV emission
"""

__version__ = "0.1.0"

from .asymptotic import (
    chernoff_average,
    chernoff_conditional,
    effective_diversity,
    pep_upper_bound,
)
from .channel import (
    ChannelModel,
    ordered_magnitude_pdf,
    ordered_snr_pdf,
    sample_ordered_channels,
)
from .constellation import (
    Constellation,
    bit_errors,
    qpsk_constellation,
)
from .optimize import (
    OptimizationProblem,
    OptimizationResult,
    objective_psi,
    pep_table,
    residual_tables,
    solve,
    union_bound_ber,
    union_bound_from_pep,
)
from .pep import (
    EnumerationCapError,
    ErrorHypothesis,
    NumericalError,
    average_pep,
    beta_factor,
    closed_form_consistency_report,
    conditional_pep,
    pair_classes,
    pep_quadrature,
    pep_user1_closed,
    pep_user_l_closed,
    q_function,
    upsilon_factor,
)
from .simulate import (
    PatternCounts,
    PepEstimate,
    SimStats,
    SystemConfig,
    bit_error_rate,
    empirical_detection_prob,
    empirical_pep,
    sic_detect,
    sic_patterns,
    sic_weight_tables,
    simulate,
    stats_rows,
    superposed_signal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
