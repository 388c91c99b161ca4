from .layers import Conv, Dense, LayerNormReLU, Parameter, ReLU, VoxelConv3d
from .network import Model, NetworkConfig, build_mlp_net, build_voxel_net
from .losses import LossConfig, batch_loss_and_grad
from .training import AdamOptimizer, LearningRateSchedule, TrainingConfig, TrainReport, train
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "AdamOptimizer",
    "Conv",
    "Dense",
    "LayerNormReLU",
    "LearningRateSchedule",
    "LossConfig",
    "Model",
    "NetworkConfig",
    "Parameter",
    "ReLU",
    "TrainReport",
    "TrainingConfig",
    "VoxelConv3d",
    "batch_loss_and_grad",
    "build_mlp_net",
    "build_voxel_net",
    "load_checkpoint",
    "save_checkpoint",
    "train",
]
