"""Toolkit for the graph and level sets of Okamoto's function.

Closed-form dimension quantities, exact separation certificates for the
conjugate family, and numerical estimators (box counts, level-set covers,
measure samples and their probes) for the one-parameter self-affine family
with horizontal ratio 1/3 and vertical ratios (a, 1-2a, a), a in (1/2, 1).
"""

from .dimensions import (
    DimReport,
    assouad_bound,
    dim_report,
    entropy_lyapunov,
    lq_dimension,
    natural_weights,
    okamoto_s0,
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
    natural_measure_sample,
    sample_measure,
)
from .separation import SeparationReport, verify_sesc
from .subsystem import (
    HomogeneousSystem,
    build_subsystem,
    convolution_check,
    entropy_ratio,
    gamma_conjugate,
    slice_lower_bound_report,
)
from .systems import Similarity1D, SystemSpec, build_system
from .words import stopping_cover, subsystem_alphabet, word_to_str

__version__ = "0.1.0"
