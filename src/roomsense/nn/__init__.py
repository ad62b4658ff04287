"""Minimal deterministic neural-network engine.

Float64 numpy arrays are the tensor type, with up to 3 logical axes: batch N,
channels C, length L. Layers accept any strides. Conv1d and BatchNorm1d keep
activations channels-last in memory, so their (N, C, L) outputs, and those of
the layers after them, may be transposed views of (N, L, C) buffers. Layers
implement exact forward/backward pairs, parameters live in a named ParamStore
whose buffers and paired gradients are views of one flat arena each, with
per-buffer trainable flags, and Adam with cosine scheduling drives updates.
"""

from .params import AdamState, Param, ParamStore, adam_step, cosine_lr
from .layers import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Dropout,
    GlobalAvgPool,
    Lstm,
    MaxPool1dSame,
    Relu,
    Sigmoid,
    SoftmaxClasses,
    head_probabilities,
    relu,
    sigmoid,
    softmax_over_classes,
)
from .losses import bce_with_logits, mse, softmax_cross_entropy
from .checkpoint import (
    Checkpoint,
    architecture_fingerprint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "AdamState", "Param", "ParamStore", "adam_step", "cosine_lr",
    "BatchNorm1d", "Conv1d", "Dense", "Dropout", "GlobalAvgPool", "Lstm",
    "MaxPool1dSame", "Relu", "Sigmoid", "SoftmaxClasses",
    "head_probabilities", "relu", "sigmoid", "softmax_over_classes",
    "bce_with_logits", "mse", "softmax_cross_entropy",
    "Checkpoint", "architecture_fingerprint", "load_checkpoint", "save_checkpoint",
]
