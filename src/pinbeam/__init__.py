"""pinbeam: curve-averaging operators and pinned-beam search on raster sets."""

from .harness import (
    DecompositionReport,
    HarnessConstants,
    SmallTReport,
    SqSumReport,
    check_smallt_scaling,
    compute_decomposition,
    compute_j0,
    compute_sq_sums,
    decay_sweep,
    empirical_decay,
    pairing,
)
from .kernel import (
    CurveParams,
    Cutoff,
    arc_hits_set,
    build_cutoff,
    curve_average,
    param_from_scale,
    support_radius,
    validate_params,
)
from .prospect import (
    BeamCertificate,
    ExhaustionReport,
    ResolutionError,
    SamplingConfig,
    ScaleLadder,
    default_ladder,
    dyadic_round_down,
    dyadic_round_up,
    find_dense_window,
    j_bound,
    normalize_window,
    prospect,
    verify_certificate,
)
from .raster import (
    GridSpec,
    RasterParseError,
    RasterSet,
    ScalarField,
    axis_swap,
    complement_in_window,
    generate_random,
    indicator,
    integral,
    load_raster,
    measure,
    save_raster,
)
from .smoothing import (
    lp_norm,
    martingale_average,
    martingale_difference,
    poisson_smooth,
    poisson_smooth_multi,
)

__version__ = "0.1.0"
