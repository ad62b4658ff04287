import numpy as np
import pytest

from roomsense.errors import ConfigError, DegenerateDataError
from roomsense.pca import PcaModel, pca_fit, pca_project, projection_csv
from roomsense.rng import Rng


class TestPcaFit:
    def test_collinear_data_first_fraction_one(self):
        t = Rng(1).normal(size=(50,))
        data = np.stack([t, t], axis=1)  # along (1, 1)
        model = pca_fit(data)
        assert model.explained[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(model.explained[1]) < 1e-9
        direction = model.components[:, 0]
        assert abs(abs(direction @ np.array([1.0, 1.0]) / np.sqrt(2)) - 1.0) < 1e-9

    def test_isotropic_gaussian_splits_half(self):
        data = Rng(2).normal(size=(10_000, 2))
        model = pca_fit(data)
        assert model.explained[0] == pytest.approx(0.5, abs=0.05)
        assert model.explained[1] == pytest.approx(0.5, abs=0.05)

    def test_projection_of_mean_is_origin(self):
        data = Rng(3).normal(3.0, 2.0, size=(40, 5))
        model = pca_fit(data)
        point = pca_project(model, data.mean(axis=0))
        assert np.abs(point).max() < 1e-9

    def test_orthonormal_columns(self):
        data = Rng(4).normal(size=(100, 6)) * np.array([5, 3, 1, 1, 0.5, 0.2])
        model = pca_fit(data)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(2)).max() < 1e-9

    def test_fit_data_projections_centered(self):
        data = Rng(5).normal(size=(200, 4)) * np.array([4, 2, 1, 0.5])
        model = pca_fit(data)
        points = pca_project(model, data)
        assert np.abs(points.mean(axis=0)).max() < 1e-9

    def test_explained_fractions_descending_in_unit_interval(self):
        data = Rng(6).normal(size=(80, 5)) * np.array([3, 2, 1.5, 1, 0.3])
        model = pca_fit(data)
        assert 0.0 <= model.explained[1] <= model.explained[0] <= 1.0

    def test_sign_convention(self):
        data = Rng(7).normal(size=(60, 3)) * np.array([4, 2, 1])
        model = pca_fit(data)
        for j in range(2):
            v = model.components[:, j]
            assert v[np.argmax(np.abs(v))] > 0

    def test_matches_eigh_oracle_on_anisotropic_instances(self):
        rng = Rng(8)
        for trial in range(100):
            n = 30 + rng.integers(50)
            d = 3 + rng.integers(4)
            scales = np.array([3.0 ** -i for i in range(d)])
            data = rng.normal(size=(n, d)) * scales + rng.normal(size=(d,))
            model = pca_fit(data)
            centered = data - data.mean(axis=0)
            cov = centered.T @ centered / n
            evals, evecs = np.linalg.eigh(cov)
            order = np.argsort(evals)[::-1]
            top = evals[order[:2]]
            total = evals.sum()
            assert abs(model.explained[0] - top[0] / total) < 1e-9
            assert abs(model.explained[1] - top[1] / total) < 1e-9
            for j in range(2):
                align = abs(model.components[:, j] @ evecs[:, order[j]])
                assert align > 1.0 - 1e-9

    def test_matches_eigh_oracle_on_a_near_tie(self):
        """Whitened samples give a covariance whose top two variances are
        2.0**2 and 1.9998**2 exactly, under a random rotation."""
        rng = Rng(12)
        z = rng.normal(size=(2_000, 10))
        z -= z.mean(axis=0)
        evals, evecs = np.linalg.eigh(z.T @ z / len(z))
        z = z @ evecs / np.sqrt(evals)
        rotation, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        data = (z * np.array([2.0, 1.9998] + [0.5] * 8)) @ rotation.T
        model = pca_fit(data)
        centered = data - data.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered / len(data))
        assert evals[-1] / evals[-2] - 1.0 < 3e-4
        for j in range(2):
            assert abs(model.explained[j] - evals[-1 - j] / evals.sum()) < 1e-9
            assert abs(model.components[:, j] @ evecs[:, -1 - j]) > 1.0 - 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        data = Rng(13).normal(size=(20, 3))
        data[4, 1] = bad
        with pytest.raises(DegenerateDataError, match="NaN or an infinity"):
            pca_fit(data)

    def test_covariance_overflow_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(DegenerateDataError, match="overflows"):
            pca_fit(Rng(14).normal(size=(20, 3)) * 1e200)

    def test_rank_zero_rejected(self):
        with pytest.raises(DegenerateDataError):
            pca_fit(np.ones((10, 3)))

    def test_shape_preconditions(self):
        with pytest.raises(ConfigError):
            pca_fit(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            pca_fit(np.zeros((10, 1)))

    def test_deterministic(self):
        data = Rng(9).normal(size=(50, 4))
        a = pca_fit(data)
        b = pca_fit(data)
        assert np.array_equal(a.components, b.components)
        assert a.explained == b.explained


class TestSerialization:
    def test_json_round_trip(self):
        model = pca_fit(Rng(10).normal(size=(30, 3)) * np.array([3, 1, 0.5]))
        again = PcaModel.from_json(model.to_json())
        assert np.allclose(again.mean, model.mean)
        assert np.allclose(again.components, model.components)
        assert again.explained == pytest.approx(model.explained)

    def test_projection_csv(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        text = projection_csv(points, labels=np.array([0, 1]))
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,label"
        assert len(lines) == 3

    def test_dimension_mismatch(self):
        model = pca_fit(Rng(11).normal(size=(30, 3)))
        with pytest.raises(ConfigError):
            pca_project(model, np.zeros((5, 4)))
