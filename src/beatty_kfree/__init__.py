"""k-free integers along Beatty sequences: sieves, exponential sums, smoothing,
discrepancy, and certified fixed-point arithmetic underneath all of it."""

from .beatty import (
    BeattyParams,
    beatty_term,
    beatty_terms_block,
    count_kfree_beatty,
    is_member,
    member_flags_block,
    member_witness,
    parse_beta,
)
from .cfrac import (
    PHI,
    SQRT2,
    SQRT3,
    DecimalString,
    IrrationalSpec,
    PartialQuotients,
    QuadraticIrrational,
    dirichlet_approx,
    estimate_type,
    parse_irrational,
    to_fixed,
)
from .discrepancy import (
    DiscrepancyResult,
    PointSet,
    build_pointset,
    decay_fit,
    extreme_discrepancy,
    extreme_discrepancy_oracle,
)
from .errors import (
    DegenerateFit,
    InvalidDelta,
    MemoryBudgetExceeded,
    PrecisionExhausted,
)
from .expsums import (
    BoundReport,
    HyperbolaSplit,
    ThetaApprox,
    double_kfree_sum_hyperbola,
    double_kfree_sum_naive,
    double_sum_bound_check,
    linear_exp_sum,
    split_parameter,
)
from .fixed import FixedReal, frac_vector
from .kfree import (
    count_kfree,
    floor_sum,
    sieve_kfree,
    sieve_moebius,
    zeta,
)
from .smoothing import (
    SmoothedIndicator,
    build_smoothed,
    coefficient_bound,
    default_delta,
    default_truncation,
    eval_truncated_series,
    smoothed_beatty_count,
)

__version__ = "0.1.0"
