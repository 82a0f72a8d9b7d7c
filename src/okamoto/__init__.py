"""Toolkit for the graph and level sets of Okamoto's function.

Exact symbolic projections, separation certificates, closed-form dimension
quantities, and numerical estimators for the one-parameter self-affine family
with horizontal ratio 1/3 and vertical ratios (a, 1-2a, a), a in (1/2, 1).
"""

from .dimensions import (
    DimReport,
    affinity_dimension,
    assouad_bound,
    dim_report,
    entropy_lyapunov,
    feng_hu_dim,
    lq_dimension,
    natural_weights,
    okamoto_s0,
    similarity_dimension,
    tau_q,
)
from .errors import BudgetError, DepthCapError, OkamotoError, ParameterError
from .estimators import (
    BoxCountSeries,
    LevelSetCover,
    MeasureSample,
    box_count_graph,
    box_count_series,
    fit_dimension,
    fourier_decay_fit,
    fourier_estimate,
    ks_statistic,
    level_set_cover,
    level_set_scan,
    level_statistics,
    local_dimension_estimate,
    natural_measure_sample,
    sample_measure,
)
from .separation import SeparationReport, classify_pair, delta_n, f_function, verify_sesc
from .subsystem import (
    HomogeneousSystem,
    build_subsystem,
    convolution_check,
    entropy_ratio,
    gamma_conjugate,
    slice_lower_bound_report,
)
from .systems import (
    AffineDiag2D,
    RationalPoly,
    Similarity1D,
    SystemSpec,
    build_system,
    evaluate_T,
    image_interval,
    pi_polynomial,
    project_word,
)
from .words import (
    StoppingCover,
    common_prefix,
    enumerate_words,
    stopping_cover,
    subsystem_alphabet,
    word_from_str,
    word_to_str,
)

__version__ = "0.1.0"
