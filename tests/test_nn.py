import math

import numpy as np
import pytest

from conftest import numeric_gradient, rel_error
from roomsense.errors import ConfigError, IntegrityError, TrainingDivergedError
from roomsense.nn import (
    AdamState,
    ParamStore,
    adam_step,
    bce_with_logits,
    cosine_lr,
    load_checkpoint,
    mse,
    save_checkpoint,
    softmax_cross_entropy,
)
from roomsense.nn.checkpoint import architecture_fingerprint, restore_into
from roomsense.rng import Rng


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(3))
        with pytest.raises(ConfigError):
            store.add("w", np.zeros(3))

    def test_trainable_count_and_freeze(self):
        store = ParamStore()
        store.add("enc.w", np.zeros((2, 3)))
        store.add("head.w", np.zeros(4))
        store.add("bn.running", np.zeros(2), trainable=False)
        assert store.trainable_count() == 10
        store.set_trainable(False, prefix="enc")
        assert store.trainable_count() == 4

    def test_snapshot_restore(self):
        store = ParamStore()
        p = store.add("w", np.arange(4.0))
        snap = store.snapshot()
        p.value[...] = 0.0
        store.restore(snap)
        assert p.value.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_every_buffer_is_a_view_of_the_arenas_in_store_order(self):
        from roomsense.models import InceptionConfig, build_inception
        store = build_inception(InceptionConfig(in_channels=5, depth=3), seed=1).store
        values, grads = store.value_arena, store.grad_arena
        offset = 0
        for p in store:
            size = p.value.size
            assert np.shares_memory(p.value, values) and np.shares_memory(p.grad, grads)
            assert p.value.ctypes.data == values[offset:].ctypes.data
            assert p.grad.ctypes.data == grads[offset:].ctypes.data
            offset += size
        assert offset == values.size == grads.size
        assert values.tobytes() == b"".join(p.value.tobytes() for p in store)

    def test_growing_keeps_values_and_params(self):
        store = ParamStore()
        first = store.add("a", np.arange(3.0))
        first.grad[...] = 2.0
        for i in range(40):  # many moves of the arenas
            store.add(f"b{i}", np.full((i % 4 + 1, 2), float(i)))
        assert store["a"] is first
        assert first.value.tolist() == [0.0, 1.0, 2.0] and first.grad.tolist() == [2.0] * 3
        assert np.shares_memory(first.value, store.value_arena)
        assert store["b39"].value.tolist() == [[39.0, 39.0]] * 4

    def test_snapshot_is_one_copy_of_the_arena(self):
        store = ParamStore()
        store.add("w", np.arange(4.0))
        store.add("b", np.ones(2), trainable=False)
        snap = store.snapshot()
        assert snap.tolist() == [0.0, 1.0, 2.0, 3.0, 1.0, 1.0]
        assert not np.shares_memory(snap, store.value_arena)


def _per_buffer_adam(store, moments, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-buffer Adam loop, kept as the oracle of the blocked update."""
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for p in store:
        if not p.trainable:
            continue
        g = p.grad
        m, v = moments[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.value -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
        g[...] = 0.0


class TestAdam:
    def test_blocked_update_matches_per_buffer_loop_bit_for_bit(self, monkeypatch):
        """Frozen buffers split the runs, and a small block size splits the
        buffers, so runs, blocks and buffer edges all fall in different places."""
        from roomsense.nn import params
        monkeypatch.setattr(params, "ADAM_BLOCK", 7)
        shapes = [((3, 4), True), ((5,), True), ((2,), False), ((4, 3), True),
                  ((1,), False), ((2,), False), ((9,), True), ((6,), False)]

        def build():
            store = ParamStore()
            for i, (shape, trainable) in enumerate(shapes):
                store.add(f"b{i}", Rng(i).normal(size=shape), trainable=trainable)
            return store

        blocked, oracle = build(), build()
        state = AdamState(blocked)
        moments = {p.name: (np.zeros_like(p.value), np.zeros_like(p.value)) for p in oracle}
        rng = Rng(99)
        for t in range(1, 51):
            for p, q in zip(blocked, oracle):
                p.grad[...] = q.grad[...] = rng.normal(size=p.value.shape) * 10.0 ** (t % 5 - 2)
            lr = 0.05 / t
            adam_step(blocked, state, lr)
            _per_buffer_adam(oracle, moments, t, lr)
        assert blocked.value_arena.tobytes() == oracle.value_arena.tobytes()
        assert blocked.grad_arena.tobytes() == oracle.grad_arena.tobytes()
        m_views, v_views = blocked.views(state.m_arena), blocked.views(state.v_arena)
        for p, m, v in zip(oracle, m_views, v_views):
            assert m.tobytes() == moments[p.name][0].tobytes()
            assert v.tobytes() == moments[p.name][1].tobytes()
            assert np.shares_memory(m, state.m_arena)

    def test_nonfinite_gradient_in_a_later_block_names_its_buffer(self, monkeypatch):
        from roomsense.nn import params
        monkeypatch.setattr(params, "ADAM_BLOCK", 4)
        store = ParamStore()
        store.add("a", np.ones(6))
        store.add("frozen", np.ones(3), trainable=False).grad[0] = np.inf
        store.add("b", np.ones(5)).grad[3] = np.inf
        with pytest.raises(TrainingDivergedError, match="'b'"):
            adam_step(store, AdamState(store), lr=0.1)

    def test_zero_gradient_no_change(self):
        store = ParamStore()
        p = store.add("w", np.ones(3))
        state = AdamState(store)
        adam_step(store, state, lr=0.1)
        assert p.value.tolist() == [1.0, 1.0, 1.0]

    def test_frozen_buffer_untouched(self):
        store = ParamStore()
        p = store.add("w", np.ones(3), trainable=False)
        p.grad[...] = 5.0
        state = AdamState(store)
        adam_step(store, state, lr=0.1)
        assert p.value.tolist() == [1.0, 1.0, 1.0]
        assert store.views(state.m_arena)[0].tolist() == [0.0, 0.0, 0.0]
        assert p.grad.tolist() == [5.0, 5.0, 5.0]  # only updated buffers' grads are zeroed

    def test_updated_grads_zeroed(self):
        store = ParamStore()
        live = store.add("head.w", np.ones(3))
        live.grad[...] = 0.5
        adam_step(store, AdamState(store), lr=0.1)
        assert live.grad.tolist() == [0.0, 0.0, 0.0]

    def test_hand_computed_first_step(self):
        store = ParamStore()
        p = store.add("w", np.array([2.0]))
        p.grad[...] = 1.0
        adam_step(store, AdamState(store), lr=0.1)
        # bias-corrected m_hat/sqrt(v_hat) = 1 on the first step
        assert p.value[0] == pytest.approx(2.0 - 0.1, rel=1e-6)

    def test_nonfinite_gradient_names_buffer(self):
        store = ParamStore()
        p = store.add("bad.w", np.ones(2))
        p.grad[0] = np.nan
        with pytest.raises(TrainingDivergedError, match="bad.w"):
            adam_step(store, AdamState(store), lr=0.1)

    def test_frozen_buffers_bit_identical_after_many_steps(self):
        store = ParamStore()
        frozen = store.add("enc.w", Rng(1).normal(size=(4, 4)), trainable=False)
        live = store.add("head.w", Rng(2).normal(size=(4,)))
        before = frozen.value.copy()
        state = AdamState(store)
        rng = Rng(3)
        for _ in range(50):
            frozen.grad[...] = rng.normal(size=(4, 4))
            live.grad[...] = rng.normal(size=(4,))
            adam_step(store, state, lr=0.05)
        assert frozen.value.tobytes() == before.tobytes()
        assert not np.allclose(live.value, Rng(2).normal(size=(4,)))


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-2, 1e-4) == pytest.approx(1e-2)
        assert cosine_lr(100, 100, 1e-2, 1e-4) == pytest.approx(1e-4)
        assert cosine_lr(50, 100, 1e-2, 1e-4) == pytest.approx((1e-2 + 1e-4) / 2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 0, 1e-3)
        with pytest.raises(ConfigError):
            cosine_lr(5, 4, 1e-3)


class TestLosses:
    def test_bce_zero_logits_is_ln2(self):
        logits = np.zeros((4, 2))
        targets = (Rng(5).uniform(size=(4, 2)) < 0.5).astype(float)
        loss, _ = bce_with_logits(logits, targets)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bce_saturated_logits_stable(self):
        loss, grad = bce_with_logits(np.full((3, 2), 20.0), np.ones((3, 2)))
        assert loss < 1e-8
        assert np.isfinite(grad).all()
        loss_neg, _ = bce_with_logits(np.full((3, 2), -500.0), np.zeros((3, 2)))
        assert math.isfinite(loss_neg) and loss_neg < 1e-8

    def test_bce_gradient_matches_fd(self):
        z = Rng(6).normal(size=(3, 4))
        y = (Rng(7).uniform(size=(3, 4)) < 0.5).astype(float)
        _, grad = bce_with_logits(z, y)
        num = numeric_gradient(lambda: bce_with_logits(z, y)[0], z)
        assert rel_error(grad, num) < 1e-8

    def test_bce_nonnegative(self):
        z = Rng(8).normal(size=(5, 2)) * 3
        y = (Rng(9).uniform(size=(5, 2)) < 0.5).astype(float)
        assert bce_with_logits(z, y)[0] >= 0.0

    def test_mse_values(self):
        assert mse(np.ones((2, 3)), np.ones((2, 3)))[0] == 0.0
        assert mse(np.full((2, 3), 5.0), np.full((2, 3), 3.0))[0] == pytest.approx(4.0)

    def test_mse_gradient_matches_fd(self):
        p = Rng(10).normal(size=(2, 3, 4))
        t = Rng(11).normal(size=(2, 3, 4))
        _, grad = mse(p, t)
        num = numeric_gradient(lambda: mse(p, t)[0], p)
        assert rel_error(grad, num) < 1e-8

    def test_softmax_ce_uniform_logits(self):
        z = np.zeros((5, 3))
        y = np.eye(3)[[0, 1, 2, 0, 1]]
        loss, _ = softmax_cross_entropy(z, y)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_softmax_ce_gradient_matches_fd(self):
        z = Rng(12).normal(size=(4, 3))
        y = np.eye(3)[[0, 2, 1, 0]]
        _, grad = softmax_cross_entropy(z, y)
        num = numeric_gradient(lambda: softmax_cross_entropy(z, y)[0], z)
        assert rel_error(grad, num) < 1e-8


class TestCheckpoint:
    def build_store(self):
        store = ParamStore()
        store.add("a.w", Rng(1).normal(size=(3, 2)))
        store.add("a.b", Rng(2).normal(size=(2,)))
        store.add("stats", Rng(3).normal(size=(2,)), trainable=False)
        return store

    def test_bit_exact_round_trip(self, tmp_path):
        store = self.build_store()
        arch = {"kind": "fcn", "filters": [16, 32]}
        save_checkpoint(tmp_path / "ck", arch, store, seed=5, step=17)
        ckpt = load_checkpoint(tmp_path / "ck")
        assert ckpt.arch == arch
        assert ckpt.seed == 5 and ckpt.step == 17
        for p in store:
            assert ckpt.buffers[p.name].tobytes() == p.value.tobytes()
            assert ckpt.trainable[p.name] == p.trainable

    def test_restore_into_fresh_store(self, tmp_path):
        store = self.build_store()
        save_checkpoint(tmp_path / "ck", {"kind": "x"}, store)
        other = self.build_store()
        for p in other:
            p.value[...] = 0.0
        restore_into(other, load_checkpoint(tmp_path / "ck"))
        for p, q in zip(store, other):
            assert p.value.tobytes() == q.value.tobytes()
        assert not other["stats"].trainable

    def test_restore_rejects_mismatched_names(self, tmp_path):
        store = self.build_store()
        save_checkpoint(tmp_path / "ck", {"kind": "x"}, store)
        other = ParamStore()
        other.add("a.w", np.zeros((3, 2)))
        with pytest.raises(IntegrityError):
            restore_into(other, load_checkpoint(tmp_path / "ck"))

    def saved_blob(self, tmp_path):
        save_checkpoint(tmp_path / "ck", {"kind": "x"}, self.build_store())
        return tmp_path / "ck.bin"

    def test_saved_bytes_are_pinned(self, tmp_path):
        import hashlib
        save_checkpoint(tmp_path / "ck", {"kind": "fcn", "filters": [16, 32]},
                        self.build_store(), seed=5, step=17)
        digests = {suffix: hashlib.sha256((tmp_path / f"ck{suffix}").read_bytes()).hexdigest()
                   for suffix in (".json", ".bin")}
        assert digests == {
            ".json": "324e6e9ce7417630b0fd56b13aab95ac9cc0edd44462eae429fc9c9683d75d76",
            ".bin": "1ebc73b90fecb1f39dbc5fec6f13aaf97c7712ca0cd33106c293ed1402f254bf",
        }

    def test_manifest_carries_blob_sha256(self, tmp_path):
        import hashlib
        import json
        blob = self.saved_blob(tmp_path)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        assert manifest["blob_sha256"] == hashlib.sha256(blob.read_bytes()).hexdigest()

    @pytest.mark.parametrize("damage", [
        lambda b: b[:len(b) // 2],          # truncated
        lambda b: b[:-3],                   # not a whole number of values
        lambda b: b + b"\x00" * 8,          # padded by one value
    ])
    def test_wrong_blob_length_is_integrity_error(self, tmp_path, damage):
        blob = self.saved_blob(tmp_path)
        blob.write_bytes(damage(blob.read_bytes()))
        with pytest.raises(IntegrityError, match="bytes"):
            load_checkpoint(tmp_path / "ck")

    def test_flipped_byte_is_integrity_error(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        data = bytearray(blob.read_bytes())
        data[7] ^= 0x40  # exponent byte of the first value
        blob.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="blob_sha256"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("edit,key", [
        *((lambda d, k=k: d.pop(k), k) for k in
          ("architecture", "fingerprint", "buffers", "blob_sha256", "seed", "step")),
        *((lambda d, k=k: d["buffers"][1].pop(k), k) for k in ("name", "shape", "trainable")),
        (lambda d: d.update(seed="5"), "seed"),
        (lambda d: d.update(step=True), "step"),
        (lambda d: d.update(step=1.5), "step"),
        (lambda d: d.update(buffers={}), "buffers"),
        (lambda d: d.update(architecture=[]), "architecture"),
        (lambda d: d["buffers"][0].update(name=3), "name"),
        (lambda d: d["buffers"][0].update(shape="3,2"), "shape"),
        (lambda d: d["buffers"][0].update(shape=[3, -2]), "shape"),
        (lambda d: d["buffers"][0].update(trainable=1), "trainable"),
    ])
    def test_missing_or_wrong_typed_manifest_key_is_integrity_error(self, tmp_path, edit, key):
        import json
        self.saved_blob(tmp_path)
        path = tmp_path / "ck.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match=key):
            load_checkpoint(tmp_path / "ck")

    def test_fingerprint_is_canonical(self):
        a = architecture_fingerprint({"kind": "fcn", "filters": [16, 32]})
        b = architecture_fingerprint({"filters": [16, 32], "kind": "fcn"})
        c = architecture_fingerprint({"kind": "fcn", "filters": [32, 16]})
        assert a == b != c
