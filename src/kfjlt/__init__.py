"""Kronecker fast Johnson-Lindenstrauss transforms and their applications:
structured sketched least squares, randomized CP decomposition, and a
desk-scale verification toolkit."""

from .kron import (
    DEFAULT_MATERIALIZE_CAP,
    KroneckerVector,
    ResourceLimitError,
    Shape,
    khatri_rao,
    khatri_rao_rows,
    kron_materialize,
    kron_norm_sq,
    multi_index_array,
)
from .transforms import (
    FactoredKfjltOperator,
    FjltOperator,
    KfjltOperator,
    SignVector,
    distortion_ratio,
    dft_matrix,
    factored_apply,
    fjlt_apply,
    kfjlt_apply_dense,
    kfjlt_apply_kron,
    materialize_operator,
    mix_factor,
    mix_modes,
    rademacher,
)
from .sketch_ls import (
    KrlsProblem,
    ResidualReport,
    SketchedLsResult,
    build_sketched_system,
    complexify,
    residual_ratio,
    sketch_khatri_rao,
    solve_sketched_ls,
)
from .cprand import (
    CpModel,
    DenseTensor,
    cp_als,
    cp_als_sweep,
    cp_als_update_mode,
    cprand_mix,
    cprand_mix_sweep,
    fit,
    khatri_rao_all_but,
    mix_tensor,
    objective,
    random_model,
    reconstruct,
    unfold,
)
from .testkit import (
    BlockNormReport,
    RipReport,
    TailReport,
    block_norm_bounds_check,
    dense_oracle_apply,
    distortion_quadratic_form,
    gaussian_jlt_apply,
    hanson_wright_tail_check,
    hoeffding_tail_check,
    rip_constant,
    verify_suite,
)
from .bench import ExperimentConfig, TrialRecord, emit_csv, run_experiment

__version__ = "0.1.0"
