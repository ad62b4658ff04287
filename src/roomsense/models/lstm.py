"""Recurrent classifier: one LSTM layer, last-step readout, dropout, linear head."""

from __future__ import annotations

import numpy as np

from ..nn import Dense, Dropout, Lstm, ParamStore
from ..nn.layers import chunked, head_probabilities
from ..rng import Rng
from .config import LstmConfig


class LstmClassifier:
    kind = "lstm"

    def __init__(self, config: LstmConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.store = ParamStore()
        rng = Rng(seed)
        self.lstm = Lstm(self.store, "lstm", config.in_channels, config.hidden, rng,
                         bidirectional=config.bidirectional, return_sequence=False)
        width = config.hidden * (2 if config.bidirectional else 1)
        self.dropout = Dropout(config.dropout, rng.spawn(1))
        self.head = Dense(self.store, "head", width, config.classes, rng)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.head.forward(self.dropout.forward(self.lstm.forward(x, train), train), train)

    def backward(self, dlogits: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        dh = self.dropout.backward(self.head.backward(dlogits))
        return self.lstm.backward(dh, input_grad)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return chunked(lambda xb: head_probabilities(self.forward(xb), self.config.head_mode), x)

    def feature_space(self, x: np.ndarray) -> np.ndarray:
        """Last hidden state (concatenated over directions), eval mode."""
        return chunked(lambda xb: self.lstm.forward(xb, False), x)


def build_lstm_classifier(config: LstmConfig, seed: int = 0) -> LstmClassifier:
    return LstmClassifier(config, seed)
