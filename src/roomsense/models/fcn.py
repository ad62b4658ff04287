"""Fully convolutional classifier: conv+batchnorm+relu blocks, GAP, linear head.

The stack has no pooling between blocks and preserves the time length, so one
parameter set handles any window length >= 1; the head sees only the pooled
per-filter means.
"""

from __future__ import annotations

import numpy as np

from ..nn import BatchNorm1d, Conv1d, Dense, GlobalAvgPool, ParamStore, Relu
from ..nn.layers import head_probabilities
from ..rng import Rng
from .config import FcnConfig


class FcnClassifier:
    kind = "fcn"

    def __init__(self, config: FcnConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.store = ParamStore()
        rng = Rng(seed)
        self.convs: list[Conv1d] = []
        self.bns: list[BatchNorm1d] = []
        self.relus: list[Relu] = []
        in_ch = config.in_channels
        for b, (f, k) in enumerate(zip(config.filters, config.kernels)):
            self.convs.append(Conv1d(self.store, f"block{b}.conv", in_ch, f, k, rng))
            self.bns.append(BatchNorm1d(self.store, f"block{b}.bn", f))
            self.relus.append(Relu())
            in_ch = f
        self.gap = GlobalAvgPool()
        self.head = Dense(self.store, "head", in_ch, config.classes, rng)
        self._features: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for conv, bn, act in zip(self.convs, self.bns, self.relus):
            x = act.forward(bn.forward(conv.forward(x), train))
        self._features = self.gap.forward(x)
        return self.head.forward(self._features)

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        dx = self.gap.backward(self.head.backward(dlogits))
        for conv, bn, act in zip(reversed(self.convs), reversed(self.bns),
                                 reversed(self.relus)):
            dx = conv.backward(bn.backward(act.backward(dx)))
        return dx

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return head_probabilities(self.forward(x, train=False), self.config.head_mode)

    def feature_space(self, x: np.ndarray) -> np.ndarray:
        """GAP output in eval mode (the input to the linear head)."""
        self.forward(x, train=False)
        return self._features


def build_fcn(config: FcnConfig, seed: int = 0) -> FcnClassifier:
    return FcnClassifier(config, seed)
