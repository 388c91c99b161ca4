from .layers import Conv, Dense, LayerNorm, Parameter, ReLU, VoxelConv3d
from .network import Model, NetworkConfig, build_mlp_net, build_voxel_net
from .losses import (
    LossConfig,
    alpha_weight,
    batch_loss_and_grad,
    combined_loss,
    cosine_distance,
    loss_projected,
    loss_scaled_3d,
)
from .training import AdamOptimizer, LearningRateSchedule, TrainingConfig, TrainReport, train
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "AdamOptimizer",
    "Conv",
    "Dense",
    "LayerNorm",
    "LearningRateSchedule",
    "LossConfig",
    "Model",
    "NetworkConfig",
    "Parameter",
    "ReLU",
    "TrainReport",
    "TrainingConfig",
    "VoxelConv3d",
    "alpha_weight",
    "batch_loss_and_grad",
    "build_mlp_net",
    "build_voxel_net",
    "combined_loss",
    "cosine_distance",
    "load_checkpoint",
    "loss_projected",
    "loss_scaled_3d",
    "save_checkpoint",
    "train",
]
