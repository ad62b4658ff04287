"""Two-component PCA from one symmetric eigendecomposition (``numpy.linalg.eigh``).

The components are the eigenvectors of the population covariance with the two
largest eigenvalues, largest first; eigenvalues are clamped at 0. Sign
convention: the largest-magnitude entry of each component is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, IntegrityError
from .frames import csv_text
from .schema import dump, load


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray           # (D,)
    components: np.ndarray     # (D, 2), orthonormal columns
    explained: tuple[float, float]

    def to_json(self) -> str:
        return dump({"mean": self.mean.tolist(),
                     "components": self.components.tolist(),
                     "explained": list(self.explained)})

    @staticmethod
    def from_json(text: str) -> "PcaModel":
        doc = load(_PcaDoc, text, "pca")
        if len(doc.components) != len(doc.mean):
            raise IntegrityError("pca key 'components' must have one row per entry of 'mean'")
        return PcaModel(np.asarray(doc.mean, dtype=np.float64),
                        np.asarray(doc.components, dtype=np.float64).reshape(-1, 2),
                        doc.explained)


@dataclass(frozen=True)
class _PcaDoc:
    mean: list[float]
    components: list[tuple[float, float]]
    explained: tuple[float, float]


def _fix_sign(v: np.ndarray) -> np.ndarray:
    return -v if v[np.argmax(np.abs(v))] < 0 else v


def pca_fit(features: np.ndarray) -> PcaModel:
    """Fit mean + top-2 covariance eigenvectors of an (N, D) feature matrix."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3 or x.shape[1] < 2:
        raise ConfigError(f"PCA needs an (N>=3, D>=2) matrix, got {x.shape}")
    if not np.isfinite(x).all():
        raise DegenerateDataError("feature matrix holds a NaN or an infinity")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    total = float(np.trace(cov))
    if not np.isfinite(total):
        raise DegenerateDataError("feature covariance overflows float64")
    if total <= 0.0:
        raise DegenerateDataError("feature matrix has zero variance (rank 0)")
    evals, evecs = np.linalg.eigh(cov)  # ascending, so the top two come last
    components = np.stack([_fix_sign(evecs[:, j]) for j in (-1, -2)], axis=1)
    lam1, lam2 = (max(float(evals[j]), 0.0) for j in (-1, -2))
    explained = (min(lam1 / total, 1.0), min(lam2 / total, 1.0))
    return PcaModel(mean, components, explained)


def pca_project(model: PcaModel, features: np.ndarray) -> np.ndarray:
    """Project (N, D) features onto the two fitted components."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.mean.shape[0]:
        raise ConfigError(
            f"features have {x.shape[1]} dims, model expects {model.mean.shape[0]}")
    return (x - model.mean) @ model.components


def projection_csv(points: np.ndarray, labels: np.ndarray | None = None) -> str:
    """Plot-ready CSV, one row per projected point."""
    if labels is None:
        return csv_text(["x", "y"], points.T)
    return csv_text(["x", "y", "label"], [*points.T, labels])
