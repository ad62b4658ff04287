import numpy as np
import pytest

from roomsense.errors import ConfigError
from roomsense.rng import Rng, derive_seed


def test_stream_is_deterministic_and_seed_dependent():
    a = Rng(7).raw(16)
    b = Rng(7).raw(16)
    c = Rng(8).raw(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_is_stateful_not_repeating():
    rng = Rng(7)
    first = rng.raw(8)
    second = rng.raw(8)
    assert not np.array_equal(first, second)
    # the two chunks are exactly the first 16 outputs
    assert np.array_equal(np.concatenate([first, second]), Rng(7).raw(16))


def test_uniform_range_and_mean():
    u = Rng(3).uniform(size=(10_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    lo_hi = Rng(3).uniform(-2.0, 4.0, size=(1000,))
    assert lo_hi.min() >= -2.0 and lo_hi.max() < 4.0


def test_normal_moments():
    z = Rng(11).normal(size=(40_000,))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_permutation_is_a_permutation():
    perm = Rng(5).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
    assert not np.array_equal(perm, np.arange(100))


def test_permutation_matches_documented_argsort_rule():
    # documented: stable argsort of the next n raw outputs
    rng = Rng(9)
    expected = np.argsort(Rng(9).raw(50), kind="stable")
    assert np.array_equal(rng.permutation(50), expected)


def test_integers_bounds():
    v = Rng(2).integers(7, size=(500,))
    assert v.min() >= 0 and v.max() < 7


@pytest.mark.parametrize("bound", [0, -3])
def test_integers_refuses_an_empty_range(bound):
    with pytest.raises(ConfigError, match="bound"):
        Rng(2).integers(bound)


def test_derive_seed_children_are_independent():
    children = {derive_seed(42, k) for k in range(100)}
    assert len(children) == 100
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, 3) != derive_seed(43, 3)


def test_spawn_matches_derive():
    assert Rng(42).spawn(5).seed == derive_seed(42, 5)
