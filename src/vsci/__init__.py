"""Video snapshot compressive imaging reconstruction via fixed-point iteration maps."""

from .sci import (
    Measurement,
    SensingMask,
    add_noise,
    adjoint,
    forward,
    gap_project,
    init_estimate,
    mask_generate,
    validate_cube,
)
from .tensorio import read_tensor, write_tensor
from .denoisers import (
    ConvParams,
    ConvResidualDenoiser,
    GatedConvCell,
    IdentityDenoiser,
    ScaleShiftDenoiser,
    make_conv_residual,
    make_gated_cell,
    spectral_normalize,
    tv_denoise,
)
from .fixed_point import (
    FixedPointConfig,
    IterationTrace,
    SolveResult,
    anderson_solve,
    solve,
    solve_alpha,
)
from .maps import DeGapMap, pnp_gap_solve
from .models import DeGapModel
from .training import (
    TrainConfig,
    backward_fixed_point,
    finite_diff_gradcheck,
    loss_gradient,
    mse_loss,
    neumann_backward,
    train,
)
from .analysis import (
    LipschitzReport,
    estimate_map_lipschitz,
    projection_spectrum,
)
from .metrics import psnr, ssim
from .synth import SyntheticScene, synth_video
from .bench import BenchSpec, MethodSpec, run_trajectory_bench

__version__ = "0.1.0"
