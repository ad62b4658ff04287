"""Two-component PCA by deflated power iteration (no linear-algebra solver).

Components come from iterated power steps on the population covariance with
re-orthogonalization against the first component, tolerance 1e-10, at most
10,000 iterations. The start vector is drawn from a fixed internal seed, so
fits are deterministic. Sign convention: the largest-magnitude entry of each
component is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, IntegrityError
from .frames import csv_text
from .rng import Rng
from .schema import dump, load

_START_SEED = 0x9E3779B9
_TOL = 1e-10
_MAX_ITER = 10_000


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


def _power_iterate(cov: np.ndarray, rng: Rng, orthogonal_to: np.ndarray | None) -> tuple[np.ndarray, float]:
    d = cov.shape[0]
    v = rng.normal(size=(d,))
    if orthogonal_to is not None:
        v -= (v @ orthogonal_to) * orthogonal_to
    v /= np.linalg.norm(v)
    for _ in range(_MAX_ITER):
        w = cov @ v
        if orthogonal_to is not None:
            w -= (w @ orthogonal_to) * orthogonal_to
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            break  # this direction carries no variance; keep current v
        w /= norm
        if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < _TOL:
            v = w
            break
        v = w
    eigenvalue = float(v @ cov @ v)
    return _fix_sign(v), max(eigenvalue, 0.0)


def pca_fit(features: np.ndarray) -> PcaModel:
    """Fit mean + top-2 covariance eigenvectors of an (N, D) feature matrix."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3 or x.shape[1] < 2:
        raise ConfigError(f"PCA needs an (N>=3, D>=2) matrix, got {x.shape}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    total = float(np.trace(cov))
    if total <= 0.0:
        raise DegenerateDataError("feature matrix has zero variance (rank 0)")
    rng = Rng(_START_SEED)
    v1, lam1 = _power_iterate(cov, rng, orthogonal_to=None)
    deflated = cov - lam1 * np.outer(v1, v1)
    v2, lam2 = _power_iterate(deflated, rng, orthogonal_to=v1)
    if lam2 > lam1:  # power iteration stalled on a near-tie; restore the order
        v1, v2 = v2, _fix_sign(v1 - (v1 @ v2) * v2)
        lam1, lam2 = lam2, lam1
    components = np.stack([v1, v2], axis=1)
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
