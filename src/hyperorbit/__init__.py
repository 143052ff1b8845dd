"""hyperorbit: exact desk-scale experiments on orbit recurrence of weighted
backward shifts over integer index sets."""

__version__ = "0.1.0"

from .indexsets import (
    BitmapSet,
    DensityReport,
    ExplicitSet,
    FactorialBlockSet,
    GeometricSet,
    IndexSet,
    PeriodicSet,
    SegmentPatternSet,
    SetFamily,
    SquareSet,
    check_gap_family,
    difference_set,
    estimate_densities,
    is_syndetic,
    make_prescribed_density_set,
)
from .spaces import SparseVec, SpaceSpec, ball_contains, c0, lp, norm, norm_sq_exact
from .shifts import (
    ConstantWeights,
    RatioPowerWeights,
    ShiftOperator,
    TableWeights,
    WeightSequence,
    apply_backward,
    apply_right_inverse,
    mixing_test,
    reciprocal_product_series,
)
from .counterexample import (
    Block,
    BlockFamily,
    DigitNeighborhoodSet,
    DoublingResetWeights,
    HugeInt,
    banach_window_ratio,
    build_block_family,
    envelope_contains,
    product_exponent,
    product_threshold_scan,
    run_length_array,
    s_contains,
    s_flags,
    s_intervals_in,
    threshold_bound,
    verify_block_conditions,
    verify_scale_exclusion,
)
from .constructor import (
    ConstructionPlan,
    DenseDyadicSequence,
    HCVector,
    assemble_vector,
    dyadic_block_family,
    prime_power_family,
    proof_bound,
    select_subsequence,
    verify_orbit_bounds,
)
from .recurrence import (
    AlphaProfile,
    Classification,
    CorrelationReport,
    HittingReport,
    ReturnSetReport,
    bilateral_tail_sums,
    classify,
    correlation_scan,
    hitting_times,
    return_set,
    return_weight_sums,
)
