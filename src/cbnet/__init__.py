"""Composite backbone networks on a small float64 conv engine."""

from .engine import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormParams,
    ConfigError,
    ConvParams,
    ShapeError,
    Tape,
    Tensor4,
    add,
    batchnorm,
    batchnorm_backward,
    conv2d,
    conv2d_backward,
    global_avg_pool,
    global_avg_pool_backward,
    gradcheck,
    maxpool2,
    maxpool2_backward,
    relu,
    relu_backward,
    upsample_nearest,
    upsample_nearest_backward,
)
from .backbone import (
    Backbone,
    BackboneSpec,
    TOY_SPEC,
    backbone_forward,
    build_backbone,
)
from .composite import (
    CBNet,
    CBNetConfig,
    CompositeConnection,
    CompositeStyle,
    FeaturePyramid,
    WithHead,
    apply_state,
    build_cbnet,
    cbnet_forward,
    connection_keys,
    direct_add_keys,
    flop_count,
    force_zero_composites,
    model_gradcheck,
    param_count,
    set_mode,
    state_dict,
)
from .task import (
    Head,
    SyntheticSample,
    TrainLog,
    TrainingDivergedError,
    build_head,
    evaluate,
    gen_dataset,
    loss_and_grads,
    run_training,
    train,
)
from .viz import channel_mean, heatmap_channel_mean, normalize_gray, write_pgm
from .weights import WeightFormatError, load_weights, save_weights

__version__ = "0.1.0"
