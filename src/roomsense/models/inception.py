"""Inception-style multi-scale convolutional classifier.

Each module pushes its input through a kernel-1 bottleneck, applies three
parallel convolutions of different kernel sizes to the bottleneck output plus
a maxpool->kernel-1-conv branch on the raw input, concatenates the four
branches, and finishes with batch norm and relu. Every third module the block
input is added to the module output (through a kernel-1 conv when channel
counts differ); the sum passes through unchanged, so zeroed module weights
leave only the shortcut signal.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..nn import BatchNorm1d, Conv1d, Dense, GlobalAvgPool, MaxPool1dSame, ParamStore, Relu
from ..nn.layers import chunked, head_probabilities
from ..rng import Rng
from .config import InceptionConfig


class _InceptionModule:
    def __init__(self, store: ParamStore, name: str, in_channels: int, nf: int,
                 bottleneck: int, branch_kernels: tuple[int, ...], rng: Rng):
        self.bottleneck = Conv1d(store, f"{name}.bottleneck", in_channels, bottleneck, 1, rng)
        self.branches = [
            Conv1d(store, f"{name}.branch{i}", bottleneck, nf, k, rng)
            for i, k in enumerate(branch_kernels)
        ]
        self.pool = MaxPool1dSame()
        self.pool_conv = Conv1d(store, f"{name}.pool_conv", in_channels, nf, 1, rng)
        self.bn = BatchNorm1d(store, f"{name}.bn", nf * (len(branch_kernels) + 1))
        self.act = Relu()
        self.nf = nf

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        b = self.bottleneck.forward(x, train)
        outs = [conv.forward(b, train) for conv in self.branches]
        outs.append(self.pool_conv.forward(self.pool.forward(x, train), train))
        # joined along the memory (last) axis, so the result stays channels-last
        cat = np.concatenate([o.transpose(0, 2, 1) for o in outs], axis=2).transpose(0, 2, 1)
        return self.act.forward(self.bn.forward(cat, train), train)

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        dcat = self.bn.backward(self.act.backward(dout))
        nf = self.nf
        db = None
        for i, conv in enumerate(self.branches):
            piece = conv.backward(dcat[:, i * nf:(i + 1) * nf])
            db = piece if db is None else db + piece
        k = len(self.branches)
        dpool = self.pool_conv.backward(dcat[:, k * nf:(k + 1) * nf], input_grad)
        dx = self.bottleneck.backward(db, input_grad)
        return dx + self.pool.backward(dpool) if input_grad else None


class InceptionNetwork:
    kind = "inception"

    def __init__(self, config: InceptionConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.store = ParamStore()
        rng = Rng(seed)
        width = config.filters * (len(config.branch_kernels) + 1)
        self.modules: list[_InceptionModule] = []
        self.shortcuts: dict[int, Conv1d | None] = {}
        in_ch = config.in_channels
        block_in = config.in_channels
        for d in range(config.depth):
            self.modules.append(_InceptionModule(
                self.store, f"module{d}", in_ch, config.filters,
                config.bottleneck, config.branch_kernels, rng))
            in_ch = width
            if d % 3 == 2:
                if block_in != width:
                    self.shortcuts[d] = Conv1d(self.store, f"shortcut{d}",
                                               block_in, width, 1, rng)
                else:
                    self.shortcuts[d] = None
                block_in = width
        self.gap = GlobalAvgPool()
        self.head = Dense(self.store, "head", width, config.classes, rng)

    def _features(self, x: np.ndarray, train: bool) -> np.ndarray:
        if x.shape[1] != self.config.in_channels:
            raise ShapeError(
                f"inception expected {self.config.in_channels} channels, got {x.shape[1]}")
        res = x
        for d, mod in enumerate(self.modules):
            x = mod.forward(x, train)
            if d % 3 == 2:
                sc = self.shortcuts[d]
                x = x + (res if sc is None else sc.forward(res, train))
                res = x
        return self.gap.forward(x)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.head.forward(self._features(x, train), train)

    def backward(self, dlogits: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        dx = self.gap.backward(self.head.backward(dlogits))
        pending: list[np.ndarray | None] = []
        for d in range(self.config.depth - 1, -1, -1):
            # the first module and the first shortcut read the model's input
            needed = input_grad or d > 2
            if d % 3 == 2:
                sc = self.shortcuts[d]
                pending.append(dx if sc is None else sc.backward(dx, needed))
            dx = self.modules[d].backward(dx, input_grad or d > 0)
            if d % 3 == 0:
                shortcut = pending.pop()
                dx = dx + shortcut if needed else None
        return dx

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return chunked(lambda xb: head_probabilities(self.forward(xb), self.config.head_mode), x)

    def feature_space(self, x: np.ndarray) -> np.ndarray:
        return chunked(lambda xb: self._features(xb, False), x)


def build_inception(config: InceptionConfig, seed: int = 0) -> InceptionNetwork:
    return InceptionNetwork(config, seed)
