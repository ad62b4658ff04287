"""Fully convolutional classifier: conv+batchnorm+relu blocks, GAP, linear head.

The stack has no pooling between blocks and preserves the time length, so one
parameter set handles any window length >= 1; the head sees only the pooled
per-filter means.
"""

from __future__ import annotations

import numpy as np

from ..nn import BatchNorm1d, Conv1d, Dense, GlobalAvgPool, ParamStore, Relu
from ..nn.layers import chunked, head_probabilities
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

    def _features(self, x: np.ndarray, train: bool) -> np.ndarray:
        for conv, bn, act in zip(self.convs, self.bns, self.relus):
            x = act.forward(bn.forward(conv.forward(x, train), train), train)
        return self.gap.forward(x)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.head.forward(self._features(x, train), train)

    def backward(self, dlogits: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        dx = self.gap.backward(self.head.backward(dlogits))
        for b in range(len(self.convs) - 1, -1, -1):
            dx = self.bns[b].backward(self.relus[b].backward(dx))
            dx = self.convs[b].backward(dx, input_grad or b > 0)
        return dx

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return chunked(lambda xb: head_probabilities(self.forward(xb), self.config.head_mode), x)

    def feature_space(self, x: np.ndarray) -> np.ndarray:
        """GAP output in eval mode (the input to the linear head)."""
        return chunked(lambda xb: self._features(xb, False), x)


def build_fcn(config: FcnConfig, seed: int = 0) -> FcnClassifier:
    return FcnClassifier(config, seed)
