"""ap4kit: exact 4-term-progression counting, Fourier uniformity analysis, and
a certified construction of a near-half-density subset of Z_n whose 4-term
progression count falls below the random benchmark."""

from .apcount import (
    ApMean,
    ap4_mean_profile,
    ap4_sum_z,
    apk_mean_zn,
    linear_form_mean_fourier,
    modulated_ap4_mean,
)
from .constructions import (
    AXIS,
    MAIN_DIAGONAL,
    PLANE_DIAGONAL,
    GridDesign,
    GridLine,
    PatternCoeffs,
    build_interval_signal,
    build_modulated_signal,
    build_probability_signal,
    classify_patterns,
    embed_triple,
    enumerate_lines,
    freiman_check,
    grid_ap4_sum,
    interval_block,
    interval_block_length,
    interval_progression_count,
    lift_signal,
    quadratic_level_set,
    reference_design,
    sample_indicator,
    sign_grid,
    validate_design,
)
from .core import (
    IntervalZn,
    IntSignalZ,
    Modulus,
    RngStream,
    SignalStats,
    ZnSignal,
    constant_signal,
    is_prime,
    load_signal,
    make_modulus,
    save_signal,
    signal_from_weighted_intervals,
    signal_stats,
)
from .report import (
    CheckRecord,
    VerificationReport,
    load_report,
    report_to_json,
    run_demo_quadratic,
    run_scaling,
    run_verify,
    save_report,
)
from .search import SearchResult, min_ap4_pm1, min_ap4_ternary, search_grid_designs
from .spectra import (
    Spectrum,
    dft,
    dft_direct,
    interval_coeff_bound,
    interval_coeff_bound_sum,
    max_coefficient,
    modulated_interval_uniformity_check,
    quadratic_phase_signal,
    save_spectrum_csv,
    uniformity,
)

__version__ = "0.1.0"
