"""Extragradient methods with relative-Lipschitzness certificates.

Mirror prox and dual extrapolation over Bregman geometries, accelerated
smooth minimization through a primal-dual reformulation, a randomized
coordinate variant with O(1) implicit iterate maintenance, and a
box-simplex bilinear game solver, plus numerical certification of the
inequalities the convergence guarantees rest on.
"""

from .core import (
    TAU_NUM,
    Point,
    DomainError,
    Everywhere,
    Box,
    Simplex,
    ProductSet,
    ScaledEuclidean,
    NegativeEntropy,
    ConjugateRegularizer,
    ProductRegularizer,
)
from .operators import (
    make_rng,
    SmoothnessProfile,
    lambda_fenchel,
    lambda_coord,
    lambda_minimax,
    BoxSimplexInstance,
    MinimaxProfile,
    MinimaxInstance,
    AliasTable,
)
from .problems import (
    ParseError,
    QuadraticProblem,
    gen_quadratic,
    gen_box_simplex,
    gen_minimax,
    save_instance,
    load_instance,
)
from .solvers import (
    SolverTrace,
    NonFiniteIterateError,
    mirror_prox,
    dual_extrapolation,
    mirror_prox_sm,
    baseline_unaccelerated,
    eg_accel,
    general_norm_accel,
    ImplicitIterate,
    eg_coord_accel,
)
from .boxsimplex import (
    LAMBDA_BOX_SIMPLEX,
    ShermanRegularizer,
    preprocess,
    linf_regression_reduction,
    duality_gap,
    iteration_budget,
    solve_box_simplex,
)
from .verify import (
    TripleSampler,
    CertificateReport,
    check_relative_lipschitzness,
    check_relative_smoothness_implies,
    check_strong_monotonicity,
    check_regret_certificate,
    check_estimator_conditions,
    coord_trajectory,
)

USING_NUMBA = False  # read by the machine record of perfbench/run.py

__version__ = "0.1.0"
