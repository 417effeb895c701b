"""Point-supervised instance pseudo-label synthesis toolkit."""

from .errors import (
    CliUsageError,
    EvalError,
    GridError,
    LossError,
    PipelineError,
    PointsegError,
    SceneError,
)
from .grids import (
    ClassScoreMap,
    LabelGrid,
    OffsetField,
    Point,
    PointAnnotationSet,
    connected_components,
    decode_label_pgm,
    decode_points_csv,
    decode_tensor,
    encode_label_pgm,
    encode_label_ppm,
    encode_points_csv,
    encode_tensor,
)
from .i2s import (
    AffinitySampleSet,
    I2SConfig,
    build_affinity_targets,
    dense_affinity_from_instances,
    refresh_semantic,
)
from .loop import (
    MdmConfig,
    MdmResult,
    PredictorOutputs,
    StageResult,
    StageTargets,
    TinyPredictorParams,
    affinity_logits,
    build_stage_targets,
    expand_features,
    predict,
    run_mdm,
    run_stage,
    train_step,
)
from .losses import (
    GradCheckReport,
    LossReport,
    LossWeights,
    affinity_floor,
    affinity_loss,
    grad_check,
    offset_loss,
    offset_target,
    ohem_target,
    seg_loss_ohem,
    smooth_l1,
    total_loss,
)
from .metrics import (
    ApReport,
    MatchReport,
    ap_report,
    average_precision,
    greedy_match,
    mask_iou,
)
from .s2i import (
    GroupingConfig,
    InstanceRegion,
    assign_points,
    attach_points,
    class_grid_from_instances,
    compute_offset_field,
    extract_regions,
    finalize_pseudo_labels,
    group_instances,
)
from .synth import (
    CorruptionConfig,
    Scene,
    corrupt_semantic,
    features_from_semantic,
    generate_scene,
    pick_points,
)

__version__ = "0.1.0"
