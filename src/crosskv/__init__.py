"""crosskv: a desk-scale laboratory for cross-layer KV-cache sharing.

The package pairs a small decoder-transformer stack (with tape-based
autodiff and a finite-difference oracle) with the machinery the sharing
methods need: rotation-compatible weighted fusion, a strategy catalog,
incremental decoding with cache accounting, and an analytic cost model.
"""

from .attention import attend
from .costmodel import (
    CostBreakdown,
    DeviceProfile,
    LatencyEstimate,
    WorkloadSpec,
    fusion_decode_overhead_fraction,
    roofline_latency,
    sweep,
    table1_costs,
)
from .model import DecoderModel, DecodeResult, ModelConfig, build_model, fusion_weight_rows
from .rope import (
    RopeSchedule,
    apply_rope,
    fused_key_score,
    score_decomposed,
    score_direct,
)
from .sharing import (
    LayerCache,
    SharingPlan,
    folded_cache,
    init_equivalent,
    init_normal,
    iterative_reconstruct,
    plan_for_strategy,
    reconstruct,
    sample_iterative_weights,
)
from .tensor import (
    DimensionError,
    EvaluationError,
    Tape,
    Tensor,
    grad_check,
    matmul,
    rmsnorm,
    swiglu,
)
from .training import TrainingDivergedError, TrainReport, train

__version__ = "0.1.0"
