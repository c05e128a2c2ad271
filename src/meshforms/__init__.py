"""Edge-centric learning on triangle meshes.

Rigid-motion-invariant per-edge features (edge length + dihedral angle and
the classic five-channel set), an order-invariant edge convolution, an
incrementally rescored edge-collapse pooling layer with exact unpooling, and
end-to-end training pipelines for classification, per-edge segmentation and
feature-space de-noising.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DegenerateFaceError,
    EmptyMeshError,
    GraphError,
    IllegalCollapseError,
    MeshError,
    MeshFormsError,
    NonFiniteError,
    ObjParseError,
    PoolTargetError,
    TopologyError,
)
from .mesh import (
    Mesh,
    RigidMotion,
    apply_motion,
    normalize_unit_box,
    parse_obj,
    save_obj,
    write_edge_field,
    write_obj,
)
from .topology import EdgeTopology, build_edge_topology, euler_genus, validate_manifold
from .features import (
    FF,
    LAPLACIAN,
    MESHCNN5,
    XYZ,
    XYZ_INV,
    ChannelStats,
    FeatureTensor,
    coordinate_features,
    extract,
    feature_norms,
    fit_channel_stats,
    fundamental_forms,
    meshcnn5,
    normalize,
    read_features,
    write_features,
)
from .pooling import (
    ILLEGAL_REASONS,
    CollapseRecord,
    PoolHistory,
    PoolingState,
    ScoreQueue,
    pool,
    unpool,
)
from .autodiff import Value
from .layers import (
    Dense,
    GlobalAveragePool,
    InstanceNorm,
    MeshConv,
    ModelGraph,
    Pool,
    ReLU,
    Unpool,
    cross_entropy,
    mse,
)
from .optim import Optimizer
from .checkpoint import Checkpoint
from .config import ExperimentConfig, config_hash, format_config, parse_config
from .datasets import (
    DatasetSpec,
    LabeledMesh,
    add_vertex_noise,
    augment,
    dataset_hash,
    generate,
    load_dataset,
    save_dataset,
    split,
)
from .pipelines import (
    TEST_METRICS,
    MetricsReport,
    evaluate,
    run_ablation,
    soft_edge_accuracy,
    train,
)

__version__ = "0.1.0"
