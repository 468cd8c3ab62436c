"""Two-stage scene summarization: balanced clustering of frame features, then a
contrastively trained autoencoder that picks one keyframe per cluster, with
spatial-divergence evaluation and classic baselines."""

from .baselines import change_detect_summary, random_summary, uniform_summary, vsumm_centroid
from .clustering import (ClusterPartition, ClusterSample, balance_assignment, cluster_features,
                         gt_pose_clustering, kmeans, partition_from_labels, sample_cluster)
from .dataset import (Pose, SceneDataset, SyntheticConfig, generate_synthetic, load_dataset,
                      pose_matrix, save_dataset)
from .features import (HistogramConfig, PpmImage, histogram_descriptor, load_ppm,
                       random_projection, save_ppm)
from .metrics import DivergenceCurve, auc, divergence, divergence_curve, similar_pair_count
from .selector import (AutoencoderParams, SummaryResult, TrainConfig, cosine_sim, decode, encode,
                       grad, infonce_pair, init_params, load_params, pool, recon_loss, save_params,
                       select_keyframes, total_loss, train)

__version__ = "0.1.0"

__all__ = [
    "AutoencoderParams", "ClusterPartition", "ClusterSample", "DivergenceCurve",
    "HistogramConfig", "Pose", "PpmImage", "SceneDataset", "SummaryResult",
    "SyntheticConfig", "TrainConfig", "auc", "balance_assignment", "change_detect_summary",
    "cluster_features", "cosine_sim", "decode", "divergence", "divergence_curve", "encode",
    "generate_synthetic", "grad", "gt_pose_clustering", "histogram_descriptor", "infonce_pair",
    "init_params", "kmeans", "load_dataset", "load_params", "load_ppm", "partition_from_labels",
    "pool", "pose_matrix", "random_projection", "random_summary", "recon_loss", "sample_cluster",
    "save_dataset", "save_params", "save_ppm", "select_keyframes", "similar_pair_count",
    "total_loss", "train", "uniform_summary", "vsumm_centroid",
]
