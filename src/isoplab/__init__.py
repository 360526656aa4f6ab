"""Numerical laboratory for isoperimetric-type inequalities on unit balls
of l_p^n, 1 <= p <= 2: exact one-dimensional oracles, deterministic
samplers, Monte Carlo boundary-content estimators, and a suite of graded
inequality checks with PASS/FAIL/INCONCLUSIVE verdicts.
"""

import os

# parallelism comes from the cell pool; BLAS sees only 1-D dots, so its
# worker threads would only add start-up time (a caller's value is kept)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .geometry import (
    BallComplement,
    HalfSpace,
    JacobianResult,
    KinkError,
    PBallParams,
    ball_log_volume,
    ball_volume,
    bgmn_map,
    coordinate_half_space,
    jacobian_T,
    jacobian_op_norms,
    lp_norm,
    marginal_cdf,
    marginal_density,
    marginal_isf,
    marginal_quantile,
    marginal_second_moment,
    marginal_sf,
)
from .inequality_suite import (
    CheckReport,
    ConcentrationCurve,
    InequalityReport,
    IsotropyConstants,
    default_eps_ladder,
    check_kls,
    check_lemma5,
    check_product_isoperimetry,
    concentration_from_isoperimetry,
    isotropy_constants,
    lemma5_constant,
)
from .measures1d import (
    LogConcave1D,
    bobkov_profile,
    make_exponential,
    make_gamma,
    make_mu_p,
    make_nu_p,
    profile_comparison,
)
from .montecarlo import (
    ContentEstimate,
    EstimateCI,
    bernoulli_ci,
    content_from_batch,
    estimate_measure,
    estimate_median_and_phi,
    estimate_tail,
    integrate_grad,
    mean_ci,
    verdict_geq,
    verdict_leq,
)
from .sampling import (
    SampleBatch,
    ball_blocks,
    ball_sampler,
    cell_blocks,
    child_seed,
    rejection_sample_ball,
    rejection_sampler,
    sample_ball,
    sample_product,
    write_batch_csv,
)

__version__ = "0.1.0"
