"""Sparse-scan self-attention: kernels, layers, backbones, and validation.

The package is organized bottom-up:

  tensor   dense float32/float64 arrays and the Philox random source
  kernel   clamped dilated 2D neighborhood attention with backward
  layer    the two-stage sparse-scan attention layer (S3A) with LCE
  blocks   CPE / LayerNorm / FFN / conv stem / downsampling / block wiring
  model    four-stage backbone presets, forward pass, analytic counts
  oracle   brute-force references sharing no index machinery
  io       tensor-file and checkpoint formats
  checks   the validation suites behind `ssattn check`
  bench    wall-clock timing with analytic MAC context
  cli      the `ssattn` command-line tool
"""
from .bench import SCOPE_NOTE, bench_scaling, run_bench
from .blocks import (
    conv2d,
    downsample_forward,
    ffn_forward,
    gelu,
    init_block_params,
    layernorm,
    ssvit_block,
    stem_forward,
)
from .checks import CHECKS, BUDGETS, CheckResult, run_checks, tiny_config
from .errors import (
    ConfigError,
    DTypeError,
    EmptyDomainError,
    FormatError,
    MagicError,
    ManifestError,
    NumericError,
    PayloadSizeError,
    SSAttnError,
    ShapeError,
    SizeError,
    StateError,
    TruncatedPayloadError,
)
from .io import (
    load_checkpoint,
    load_model_checkpoint,
    load_tensor,
    save_checkpoint,
    save_model_checkpoint,
    save_tensor,
)
from .kernel import (
    NeighborhoodSpec,
    clamped_lattice,
    effective_kernel,
    flat_index_map,
    kernel_backward,
    kernel_flops,
    kernel_forward,
    neighborhood_aggregate,
    neighborhood_scores,
    softmax_rows,
)
from .layer import (
    S3AConfig,
    S3AParams,
    init_s3a_params,
    resolve_stride,
    s3a_backward,
    s3a_flops,
    s3a_forward,
    s3a_param_count,
)
from .model import (
    MODEL_PRESETS,
    ModelConfig,
    build_model,
    config_from_dict,
    config_hash,
    config_to_dict,
    count_flops,
    count_params,
    get_config,
    model_forward,
    param_items,
)
from .oracle import (
    dense_attention,
    fd_gradient,
    oracle_kernel,
    oracle_s3a,
)
from .report import ReportNode
from .tensor import DTYPES, Rng, randn

__version__ = "0.1.0"
