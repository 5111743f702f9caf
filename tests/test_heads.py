"""Projection heads: erf and GELU, init, backprop, AdamW, and checkpoints."""
import json
import math
import struct
import warnings

import numpy as np
import pytest
from scipy import special

from instasim import heads
from instasim.bundle import make_bundle
from instasim.errors import FormatError, InvalidInput, ShapeError
from instasim.heads import (
    AdamWState,
    DualHead,
    TwoLayerMLP,
    adamw_init,
    adamw_step,
    apply_head,
    clone_head,
    erf,
    gelu,
    gelu_grad,
    head_params,
    identity_dual_head,
    init_dual_head,
    load_head,
    mlp_backward,
    mlp_forward,
    save_head,
)

from oracles import adamw_step_allocating, apply_head_per_item, zero_grads


def _quiet_erf(x):
    """heads.erf with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return erf(np.asarray(x, dtype=np.float64))


class TestErf:
    """scipy.special.erf (Cephes' erf) is the oracle."""

    def test_bit_equal_to_scipy_on_the_unit_interval(self):
        x = np.concatenate(
            [np.linspace(-1.0, 1.0, 1_000_001), np.nextafter([-1.0, 1.0], 0.0),
             [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300]]
        )
        got, want = _quiet_erf(x), special.erf(x)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_bit_equal_to_scipy_where_numpy_exp_matches_libm(self):
        # for 1 < |x| < 8 the two differ only through exp(-x^2)
        t = np.concatenate([np.linspace(1.0, 8.0, 200_001), np.nextafter([1.0, 8.0], 4.0)])[1:]
        t = np.concatenate([t[t < 8.0], -t[t < 8.0]])
        same_exp = np.exp(-t * t) == np.array([math.exp(-v * v) for v in t])
        assert same_exp.mean() > 0.9
        np.testing.assert_array_equal(_quiet_erf(t[same_exp]), special.erf(t[same_exp]))

    def test_within_two_ulp_of_scipy_everywhere(self):
        edges = np.array([1.0, 8.0])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 9.0)])
        x = np.concatenate(
            [np.linspace(-10.0, 10.0, 2_000_001), edges, -edges, np.linspace(26.0, 28.0, 2001),
             [1e300, -1e300, np.inf, -np.inf, np.nan, 0.0, -0.0]]
        )
        got, want = _quiet_erf(x), special.erf(x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        finite = ~np.isnan(want)
        # same-signed doubles: the integer views count the ulps between them
        ulps = np.abs(got[finite].view(np.int64) - want[finite].view(np.int64))
        assert ulps.max() <= 2

    def test_saturates_to_exactly_one_from_eight_on(self):
        x = np.array([8.0, 26.5, 28.0, 1e40, 1e300, np.inf])
        np.testing.assert_array_equal(_quiet_erf(x), np.ones(6))
        np.testing.assert_array_equal(_quiet_erf(-x), -np.ones(6))


class TestGelu:
    def test_exact_gaussian_cdf_form(self, rng):
        x = rng.normal(size=200) * 3
        expected = 0.5 * x * (1.0 + special.erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(gelu(x), expected, atol=0)
        # |x / sqrt(2)| <= 1 is where erf is bit-equal to scipy's
        inner = np.abs(x) <= np.sqrt(2.0)
        assert inner.sum() > 50
        np.testing.assert_array_equal(gelu(x[inner]), expected[inner])

    def test_limits(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert abs(gelu(np.array([10.0]))[0] - 10.0) < 1e-12
        assert abs(gelu(np.array([-10.0]))[0]) < 1e-12

    def test_grad_matches_fd(self, rng):
        x = rng.normal(size=50)
        h = 1e-6
        fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x), fd, atol=1e-9)


class TestInit:
    def test_uniform_fan_in_bounds(self):
        head = init_dual_head(in_dim=64, hidden_dim=32, seed=1)
        k1 = 1.0 / np.sqrt(64)
        k2 = 1.0 / np.sqrt(32)
        for mlp in (head.cls_head, head.patch_head):
            assert np.abs(mlp.W1).max() < k1
            assert np.abs(mlp.b1).max() < k1
            assert np.abs(mlp.W2).max() < k2
            assert np.abs(mlp.b2).max() < k2
        # with 64*32 draws the empirical max should approach the bound
        assert np.abs(head.cls_head.W1).max() > 0.8 * k1

    def test_deterministic_per_seed(self):
        a = init_dual_head(8, hidden_dim=4, seed=7)
        b = init_dual_head(8, hidden_dim=4, seed=7)
        c = init_dual_head(8, hidden_dim=4, seed=8)
        for name, arr in head_params(a).items():
            np.testing.assert_array_equal(arr, head_params(b)[name])
        assert any(
            not np.array_equal(arr, head_params(c)[name])
            for name, arr in head_params(a).items()
        )

    def test_cls_and_patch_heads_are_independent_draws(self):
        head = init_dual_head(16, hidden_dim=8, seed=0)
        assert not np.array_equal(head.cls_head.W1, head.patch_head.W1)

    def test_default_out_dim_matches_input(self):
        head = init_dual_head(24, hidden_dim=6)
        assert head.out_dim == 24
        head2 = init_dual_head(24, hidden_dim=6, out_dim=10)
        assert head2.out_dim == 10

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            init_dual_head(8, activation="relu")
        with pytest.raises(InvalidInput):
            init_dual_head(0)


class TestMlpForwardBackward:
    def test_identity_head_reproduces_input(self, rng):
        head = identity_dual_head(6)
        X = rng.normal(size=(5, 6))
        Y, _ = mlp_forward(head.cls_head, X, head.activation)
        np.testing.assert_array_equal(Y, X)

    def test_single_vector_round_trips_shape(self, rng):
        head = init_dual_head(5, hidden_dim=4, out_dim=3, seed=2)
        y, _ = mlp_forward(head.cls_head, rng.normal(size=5), head.activation)
        assert y.shape == (3,)
        Y, _ = mlp_forward(head.cls_head, rng.normal(size=(7, 5)), head.activation)
        assert Y.shape == (7, 3)

    def test_backward_matches_fd(self, rng):
        head = init_dual_head(4, hidden_dim=5, out_dim=3, seed=3)
        mlp = head.patch_head
        X = rng.normal(size=(4, 4))
        dY = rng.normal(size=(4, 3))
        Y, cache = mlp_forward(mlp, X, head.activation)
        dX, grads = mlp_backward(mlp, cache, dY, head.activation)

        def objective():
            out, _ = mlp_forward(mlp, X, head.activation)
            return float((out * dY).sum())

        h = 1e-7
        for arr, grad in (
            (X, dX),
            (mlp.W1, grads["W1"]),
            (mlp.b1, grads["b1"]),
            (mlp.W2, grads["W2"]),
            (mlp.b2, grads["b2"]),
        ):
            flat = arr.reshape(-1)
            fd = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                fp = objective()
                flat[k] = orig - h
                fm = objective()
                flat[k] = orig
                fd[k] = (fp - fm) / (2 * h)
            np.testing.assert_allclose(grad.reshape(-1), fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 40.0])
    def test_one_erf_pass_gives_the_bits_of_gelu_and_gelu_grad(self, rng, scale, monkeypatch):
        W1, W2 = rng.normal(size=(6, 8)), rng.normal(size=(8, 5))
        mlp = TwoLayerMLP(W1, np.zeros(8), W2, np.zeros(5))
        X = rng.normal(size=(9, 6)) * scale
        dY = rng.normal(size=(9, 5))
        H = X @ mlp.W1 + mlp.b1
        dH = (dY @ mlp.W2.T) * gelu_grad(H)
        calls = []
        monkeypatch.setattr(heads, "erf", lambda x: calls.append(x) or erf(x))
        Y, cache = mlp_forward(mlp, X, "gelu")
        dX, grads = mlp_backward(mlp, cache, dY, "gelu")
        assert len(calls) == 1
        np.testing.assert_array_equal(Y, 0.5 * H * (1.0 + erf(H / np.sqrt(2.0))) @ mlp.W2 + mlp.b2)
        np.testing.assert_array_equal(dX, dH @ mlp.W1.T)
        np.testing.assert_array_equal(grads["W1"], X.T @ dH)
        np.testing.assert_array_equal(grads["b1"], dH.sum(axis=0))

    def test_shape_mismatch_rejected(self, rng):
        head = init_dual_head(4, hidden_dim=3, seed=0)
        with pytest.raises(ShapeError):
            mlp_forward(head.cls_head, rng.normal(size=(2, 5)), head.activation)


class TestAdamW:
    def test_first_step_closed_form(self, rng):
        # bias correction makes m_hat = g and v_hat = g^2 on step one, so
        # the update is exactly -lr * g / (|g| + eps)
        head = init_dual_head(3, hidden_dim=2, seed=4)
        before = {k: v.copy() for k, v in head_params(head).items()}
        grads = {k: rng.normal(size=v.shape) for k, v in before.items()}
        state = adamw_init(head)
        adamw_step(head, grads, state, lr=0.01)
        for name, p in head_params(head).items():
            g = grads[name]
            expected = before[name] - 0.01 * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(p, expected, atol=1e-14)
        assert state.step == 1

    def test_weight_decay_is_decoupled(self, rng):
        head = init_dual_head(3, hidden_dim=2, seed=4)
        before = {k: v.copy() for k, v in head_params(head).items()}
        grads = {k: rng.normal(size=v.shape) for k, v in before.items()}
        twin = clone_head(head)
        adamw_step(head, grads, adamw_init(head), lr=0.01, weight_decay=0.0)
        adamw_step(twin, grads, adamw_init(twin), lr=0.01, weight_decay=0.1)
        for name in before:
            diff = head_params(head)[name] - head_params(twin)[name]
            np.testing.assert_allclose(diff, 0.01 * 0.1 * before[name], atol=1e-14)

    def test_zero_lr_is_noop(self, rng):
        head = init_dual_head(3, hidden_dim=2, seed=5)
        before = {k: v.copy() for k, v in head_params(head).items()}
        grads = {k: rng.normal(size=v.shape) for k, v in before.items()}
        adamw_step(head, grads, adamw_init(head), lr=0.0)
        for name, p in head_params(head).items():
            np.testing.assert_array_equal(p, before[name])

    def test_non_finite_parameters_rejected(self):
        head = init_dual_head(2, hidden_dim=2, seed=0)
        grads = zero_grads(head)
        grads["cls.W1"][:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(InvalidInput):
            adamw_step(head, grads, adamw_init(head), lr=1.0)

    def test_descends_a_quadratic(self):
        # minimizing ||W1||^2 via its gradient should shrink the norm
        head = init_dual_head(4, hidden_dim=4, seed=6)
        state = adamw_init(head)
        start = float(np.abs(head.cls_head.W1).sum())
        for _ in range(50):
            grads = zero_grads(head)
            grads["cls.W1"] = 2.0 * head.cls_head.W1
            adamw_step(head, grads, state, lr=0.01)
        assert float(np.abs(head.cls_head.W1).sum()) < start

    def test_in_place_step_matches_the_allocating_oracle_bit_for_bit(self, rng):
        head = init_dual_head(5, hidden_dim=7, out_dim=3, seed=8)
        twin = clone_head(head)
        state, twin_state = adamw_init(head), adamw_init(twin)
        for step in range(6):
            grads = {k: rng.normal(size=v.shape) for k, v in head_params(head).items()}
            grads["patch.W2"][:] = 0.0
            twin_grads = {k: g.copy() for k, g in grads.items()}
            adamw_step(head, grads, state, lr=0.01, weight_decay=0.05)
            adamw_step_allocating(twin, twin_grads, twin_state, lr=0.01, weight_decay=0.05)
        assert state.step == twin_state.step == 6
        for name, p in head_params(head).items():
            assert p.tobytes() == head_params(twin)[name].tobytes(), name
            assert state.m[name].tobytes() == twin_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == twin_state.v[name].tobytes(), name


class TestCheckpoints:
    def test_round_trip_is_float32_quantized(self, tmp_path, rng):
        head = init_dual_head(6, hidden_dim=5, out_dim=4, seed=9)
        path = tmp_path / "head.ckpt"
        save_head(path, head, seed=9, config_hash="ab" * 32)
        loaded, header = load_head(path)
        assert header["config_hash"] == "ab" * 32
        assert header["seed"] == 9
        assert (loaded.in_dim, loaded.hidden_dim, loaded.out_dim) == (6, 5, 4)
        assert loaded.activation == "gelu"
        for name, arr in head_params(head).items():
            expected = arr.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(head_params(loaded)[name], expected)
            assert head_params(loaded)[name].dtype == np.float64

    def test_save_load_save_is_stable(self, tmp_path):
        head = init_dual_head(4, hidden_dim=3, seed=1)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_head(p1, head)
        loaded, _ = load_head(p1)
        save_head(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_heads_with_different_dims_are_not_saved(self, tmp_path):
        # the header holds one set of dims, which load_head checks every
        # parameter against: a 3-5-4 patch MLP beside a 3-2-4 CLS MLP
        head = DualHead(
            cls_head=init_dual_head(3, hidden_dim=2, out_dim=4, seed=0).cls_head,
            patch_head=init_dual_head(3, hidden_dim=5, out_dim=4, seed=0).patch_head,
        )
        path = tmp_path / "mixed.ckpt"
        with pytest.raises(InvalidInput, match=r"\[3, 2, 4\]"):
            save_head(path, head)
        assert list(tmp_path.iterdir()) == []

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        raw = json.dumps({"kind": "other"}).encode()
        path.write_bytes(struct.pack("<I", len(raw)) + raw)
        with pytest.raises(FormatError):
            load_head(path)

    def test_future_version_rejected(self, tmp_path):
        head = init_dual_head(3, hidden_dim=2, seed=0)
        path = tmp_path / "v2.ckpt"
        save_head(path, head)
        blob = bytearray(path.read_bytes())
        (hlen,) = struct.unpack_from("<I", blob, 0)
        header = json.loads(bytes(blob[4 : 4 + hlen]))
        header["format_version"] = 2
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(struct.pack("<I", len(raw)) + raw + bytes(blob[4 + hlen :]))
        with pytest.raises(FormatError):
            load_head(path)

    def test_truncated_payload_rejected(self, tmp_path):
        head = init_dual_head(3, hidden_dim=2, seed=0)
        path = tmp_path / "trunc.ckpt"
        save_head(path, head)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            load_head(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        head = init_dual_head(3, hidden_dim=2, seed=0)
        path = tmp_path / "extra.ckpt"
        save_head(path, head)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError):
            load_head(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(struct.pack("<I", 8) + b"notjson!")
        with pytest.raises(FormatError):
            load_head(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "tiny.ckpt"
        path.write_bytes(b"\x01")
        with pytest.raises(FormatError):
            load_head(path)


def _saved_head(tmp_path, hidden_dim=2):
    """A small checkpoint on disk plus its parsed header and raw payload."""
    path = tmp_path / f"head{hidden_dim}.ckpt"
    save_head(path, init_dual_head(3, hidden_dim=hidden_dim, out_dim=4, seed=0))
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 0)
    return path, json.loads(blob[4 : 4 + hlen]), blob[4 + hlen :]


def _write_checkpoint(path, header, payload):
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<I", len(raw)) + raw + payload)


class TestCheckpointHeaderValidation:
    def test_header_must_be_an_object(self, tmp_path):
        path, header, payload = _saved_head(tmp_path)
        _write_checkpoint(path, [header], payload)
        with pytest.raises(FormatError):
            load_head(path)

    @pytest.mark.parametrize("key", ["in_dim", "hidden_dim", "out_dim"])
    @pytest.mark.parametrize("bad", [0, -1, 2.0, "3", True, None])
    def test_dims_must_be_positive_ints(self, tmp_path, key, bad):
        path, header, payload = _saved_head(tmp_path)
        header[key] = bad
        _write_checkpoint(path, header, payload)
        with pytest.raises(FormatError):
            load_head(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: h.pop("params"),
            lambda h: h["params"][0].update(shape=["x"]),
            lambda h: h["params"][0].update(shape=[2, 3]),
            lambda h: h["params"].reverse(),
            lambda h: h["params"].pop(),
            lambda h: h.update(params={"cls.W1": [3, 2]}),
        ],
        ids=["missing", "non_int_shape", "W1_disagrees", "reordered", "short", "not_a_list"],
    )
    def test_params_must_be_the_table_the_dims_imply(self, tmp_path, mutate):
        path, header, payload = _saved_head(tmp_path)
        mutate(header)
        _write_checkpoint(path, header, payload)
        with pytest.raises(FormatError):
            load_head(path)

    def test_payload_must_match_the_dims(self, tmp_path):
        # a header consistent in itself, over the payload of other dims
        path, _, payload = _saved_head(tmp_path)
        _, bigger_header, _ = _saved_head(tmp_path, hidden_dim=3)
        _write_checkpoint(path, bigger_header, payload)
        with pytest.raises(FormatError, match="payload"):
            load_head(path)


class TestApplyHead:
    def test_identity_head_preserves_values(self, rng):
        vecs = {f"img{i}": rng.normal(size=(1, 8)).astype(np.float32) for i in range(4)}
        bundle = make_bundle("CLS", 8, vecs)
        out = apply_head(identity_dual_head(8), bundle)
        assert out.token_kind == "CLS"
        for image_id, arr in vecs.items():
            np.testing.assert_array_equal(out.items[image_id], arr)

    def test_patch_bundle_uses_patch_head(self, rng):
        head = init_dual_head(8, hidden_dim=4, out_dim=6, seed=11)
        mats = {f"img{i}": rng.normal(size=(3, 8)).astype(np.float32) for i in range(3)}
        bundle = make_bundle("PATCH", 8, mats)
        out = apply_head(head, bundle)
        assert out.dim == 6
        for image_id, arr in mats.items():
            expected, _ = mlp_forward(head.patch_head, arr.astype(np.float64), "gelu")
            np.testing.assert_array_equal(
                out.items[image_id], expected.astype(np.float32)
            )
            assert out.items[image_id].dtype == np.float32

    @staticmethod
    def _assert_equals_oracle(head, bundle):
        got, want = apply_head(head, bundle), apply_head_per_item(head, bundle)
        assert (got.token_kind, got.dim) == (want.token_kind, want.dim)
        assert list(got.items) == list(want.items)
        for image_id, arr in want.items.items():
            assert got.items[image_id].dtype == np.float32
            assert got.items[image_id].shape == arr.shape
            assert got.items[image_id].tobytes() == arr.tobytes()

    def test_cls_blocks_equal_per_item_oracle(self, rng):
        head = init_dual_head(8, hidden_dim=16, out_dim=6, seed=3)
        n = 2 * heads.APPLY_ROW_BLOCK + 9
        bundle = make_bundle("CLS", 8, {f"c{k:04d}": rng.normal(size=8) for k in range(n)})
        self._assert_equals_oracle(head, bundle)

    def test_patch_blocks_equal_per_item_oracle(self, rng):
        head = init_dual_head(8, hidden_dim=16, out_dim=6, seed=5)
        block = heads.APPLY_ROW_BLOCK
        mats = {f"p{k:03d}": rng.normal(size=(int(rng.integers(1, block // 4)), 8)) for k in range(30)}
        # one item larger than a block, between smaller ones
        mats["p015x"] = rng.normal(size=(block + 7, 8))
        assert sum(len(m) for m in mats.values()) > 3 * block
        self._assert_equals_oracle(head, make_bundle("PATCH", 8, mats))

    def test_one_forward_pass_per_row_block(self, rng, monkeypatch):
        calls = []

        def counted(mlp, X, activation):
            calls.append(len(X))
            return mlp_forward(mlp, X, activation)

        monkeypatch.setattr(heads, "mlp_forward", counted)
        head = init_dual_head(8, hidden_dim=4, seed=0)
        block = heads.APPLY_ROW_BLOCK
        for kind, rows, n_items in (("CLS", 1, 2 * block + 1), ("PATCH", 4, block // 2 + 3)):
            calls.clear()
            bundle = make_bundle(
                kind, 8, {f"i{k:04d}": rng.normal(size=(rows, 8)) for k in range(n_items)}
            )
            apply_head(head, bundle)
            assert len(calls) == -(-rows * n_items // block)
            assert max(calls) == block

    def test_dim_mismatch_rejected(self, rng):
        head = init_dual_head(4, hidden_dim=2, seed=0)
        bundle = make_bundle("CLS", 8, {"a": rng.normal(size=(1, 8)).astype(np.float32)})
        with pytest.raises(ShapeError):
            apply_head(head, bundle)
