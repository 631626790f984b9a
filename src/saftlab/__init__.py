"""saftlab: offset linear canonical (affine-Fourier) transforms, their
convolution calculus, shift-invariant spaces, and dynamical-sampling
recovery on uniform grids."""

from .grid import (
    GridFn,
    SeqFn,
    dft,
    integrate,
    reciprocal_grid,
    sample_generator,
    sampling_grid,
    uniform_grid,
)
from .params import (
    SaftParams,
    ValidityReport,
    chirp,
    inverse_params,
    modulation,
    preset,
    random_params,
    validate,
)
from .lattice import (
    SamplingLattice,
    build_lattice,
    decompose,
    merge_sequence,
    split_sequence,
)
from .saft import (
    SaftPlan,
    dtsaft,
    downsample,
    downsample_check,
    kernel_quadrature,
    parseval_check,
    poisson_check,
    saft_forward,
    saft_inverse,
    saft_plan,
)
from .conv import (
    comb_apply,
    comb_power,
    commute_check,
    conv_cc,
    conv_dd,
    conv_power,
    conv_sd,
    theorem_residual_cc,
    theorem_residual_dd,
    theorem_residual_sd,
)
from .sis import (
    RieszReport,
    SisModel,
    build_sis,
    frame_check,
    grammian,
    grammian_unsquared,
    riesz_bounds,
    synthesize,
    wiener_norm,
)
from .dynsamp import (
    MatrixField,
    MeasurementSet,
    StabilityReport,
    build_B_from_samples,
    build_B_window,
    build_D,
    coset_coefficients,
    filtered_levels,
    integer_sample_levels,
    measure_from_samples,
    recover_continuous,
    recover_discrete,
    solve_grid,
    stability_report,
)
from .repro import (
    ExampleScenario,
    MeyerSpec,
    build_example,
    meyer_aux,
    meyer_psi,
    meyer_time_table,
    run_example,
)
from .estimators import SaftTransformer

__version__ = "1.0.0"

__all__ = [
    "GridFn", "SeqFn", "dft", "integrate", "reciprocal_grid",
    "sample_generator", "sampling_grid", "uniform_grid",
    "SaftParams", "ValidityReport", "chirp", "inverse_params", "modulation",
    "preset", "random_params", "validate",
    "SamplingLattice", "build_lattice", "decompose", "merge_sequence",
    "split_sequence",
    "SaftPlan", "dtsaft", "downsample", "downsample_check",
    "kernel_quadrature", "parseval_check",
    "poisson_check", "saft_forward", "saft_inverse", "saft_plan",
    "comb_apply", "comb_power", "commute_check", "conv_cc", "conv_dd",
    "conv_power", "conv_sd", "theorem_residual_cc", "theorem_residual_dd",
    "theorem_residual_sd",
    "RieszReport", "SisModel", "build_sis", "frame_check", "grammian",
    "grammian_unsquared", "riesz_bounds", "synthesize", "wiener_norm",
    "MatrixField", "MeasurementSet", "StabilityReport",
    "build_B_from_samples", "build_B_window", "build_D", "coset_coefficients",
    "filtered_levels", "integer_sample_levels",
    "measure_from_samples", "recover_continuous", "recover_discrete",
    "solve_grid", "stability_report",
    "ExampleScenario", "MeyerSpec", "build_example", "meyer_aux", "meyer_psi",
    "meyer_time_table", "run_example",
    "SaftTransformer",
    "__version__",
]
