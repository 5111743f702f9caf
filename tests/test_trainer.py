"""End-to-end training loop behaviour and gradient assembly."""
import dataclasses

import numpy as np
import pytest

from instasim import trainer
from instasim.bundle import make_bundle
from instasim.errors import InvalidInput, MissingItem
from instasim.heads import adamw_init, head_params, identity_dual_head, init_dual_head
from instasim.losses import LossConfig
from instasim.records import ImageManifest, Triplet
from instasim.sinkhorn import SinkhornConfig
from instasim.trainer import (
    TrainConfig,
    _micro_batch_pass,
    _TrainData,
    _validation_accuracy,
    train,
    train_step,
)

from oracles import micro_batch_pass_per_image, validation_accuracy_per_triplet, zero_grads


def _manifest(image_id, instance_id, split):
    return ImageManifest(
        image_id=image_id,
        instance_id=instance_id,
        dataset_id="MET",
        subset="S1",
        split=split,
    )


def _separable_problem(rng, n_train_inst=3, n_val_inst=1, images_per=3, dim=16, scale=8.0):
    """Instances are well-separated Gaussian clusters in CLS space, so a
    trained head only has to not destroy the raw geometry."""
    manifests = []
    vecs = {}
    triplets = []
    n_inst = n_train_inst + n_val_inst
    means = rng.normal(size=(n_inst, dim)) * scale
    image_ids = {}
    for i in range(n_inst):
        split = "train" if i < n_train_inst else "val"
        ids = []
        for j in range(images_per):
            image_id = f"inst{i}_img{j}"
            manifests.append(_manifest(image_id, f"inst{i}", split))
            vecs[image_id] = (means[i] + rng.normal(size=dim) * 0.1).astype(np.float32).reshape(1, -1)
            ids.append(image_id)
        image_ids[i] = ids
    for i in range(n_inst):
        other = image_ids[(i + 1) % n_inst][0]
        for a in image_ids[i]:
            for p in image_ids[i]:
                if a != p:
                    triplets.append(Triplet(a, p, other, "MINED_REAL"))
    bundle = make_bundle("CLS", dim, vecs)
    return manifests, bundle, triplets


def _small_cfg(**kw):
    base = dict(
        lr=3e-4,
        batch_size=8,
        grad_accum=2,
        epochs=2,
        seed=0,
        hidden_dim=16,
        loss=LossConfig(lam=0.0),
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTraining:
    def test_separable_problem_reaches_perfect_validation(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        res = train(manifests, bundle, triplets, _small_cfg())
        assert res.history[-1]["val_accuracy"] == 1.0
        assert len(res.history) == 2
        assert res.history[1]["train_loss"] <= res.history[0]["train_loss"]

    def test_rerun_is_bit_identical(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        r1 = train(manifests, bundle, triplets, _small_cfg())
        r2 = train(manifests, bundle, triplets, _small_cfg())
        for name, arr in head_params(r1.final_head).items():
            np.testing.assert_array_equal(arr, head_params(r2.final_head)[name])
        assert r1.history == r2.history
        assert r1.best_epoch == r2.best_epoch

    def test_triplet_file_order_is_irrelevant(self, rng):
        # triplets are canonically sorted before the seeded shuffle, so
        # the order they arrived in changes nothing
        manifests, bundle, triplets = _separable_problem(rng)
        shuffled = list(triplets)
        np.random.default_rng(5).shuffle(shuffled)
        r1 = train(manifests, bundle, triplets, _small_cfg())
        r2 = train(manifests, bundle, shuffled, _small_cfg())
        for name, arr in head_params(r1.final_head).items():
            np.testing.assert_array_equal(arr, head_params(r2.final_head)[name])
        assert r1.history == r2.history

    def test_seed_changes_the_run(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        r1 = train(manifests, bundle, triplets, _small_cfg(seed=0))
        r2 = train(manifests, bundle, triplets, _small_cfg(seed=1))
        assert any(
            not np.array_equal(arr, head_params(r2.final_head)[name])
            for name, arr in head_params(r1.final_head).items()
        )

    def test_zero_epochs_returns_untouched_init(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        cfg = _small_cfg(epochs=0)
        res = train(manifests, bundle, triplets, cfg)
        ref = init_dual_head(
            in_dim=bundle.dim, hidden_dim=cfg.hidden_dim, activation=cfg.activation, seed=cfg.seed
        )
        assert res.history == []
        assert res.best_epoch == 0
        for name, arr in head_params(res.final_head).items():
            np.testing.assert_array_equal(arr, head_params(ref)[name])

    def test_lambda_zero_leaves_the_patch_head_at_its_init(self, rng):
        # the unused patch head gets no gradient, so weight decay does
        # not shrink it either
        manifests, bundle, triplets = _separable_problem(rng)
        cfg = _small_cfg(weight_decay=0.1)
        res = train(manifests, bundle, triplets, cfg)
        ref = init_dual_head(
            in_dim=bundle.dim, hidden_dim=cfg.hidden_dim, activation=cfg.activation, seed=cfg.seed
        )
        got, want = head_params(res.final_head), head_params(ref)
        for name in want:
            if name.startswith("patch."):
                assert got[name].tobytes() == want[name].tobytes(), name
        assert not np.array_equal(got["cls.W1"], want["cls.W1"])

    def test_best_epoch_is_earliest_peak(self, rng):
        # validation saturates immediately on this problem, so later
        # equal epochs must not displace the first best checkpoint
        manifests, bundle, triplets = _separable_problem(rng)
        res = train(manifests, bundle, triplets, _small_cfg(epochs=3))
        accs = [h["val_accuracy"] for h in res.history]
        first_peak = 1 + int(np.argmax(accs))
        assert res.best_epoch == first_peak
        assert accs[first_peak - 1] == max(accs)

    def test_initial_head_is_not_mutated(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        head = init_dual_head(in_dim=bundle.dim, hidden_dim=16, seed=3)
        before = {k: v.copy() for k, v in head_params(head).items()}
        train(manifests, bundle, triplets, _small_cfg(epochs=1), initial_head=head)
        for name, arr in head_params(head).items():
            np.testing.assert_array_equal(arr, before[name])


class TestTrainingValidation:
    def test_missing_manifest_entry(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        bad = triplets + [Triplet("ghost", triplets[0].positive, triplets[0].hard_negative, "MINED_REAL")]
        with pytest.raises(MissingItem):
            train(manifests, bundle, bad, _small_cfg())

    def test_missing_embedding(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        manifests = manifests + [_manifest("ghost", "inst0", "train")]
        bad = triplets + [Triplet("ghost", triplets[0].positive, triplets[0].hard_negative, "MINED_REAL")]
        with pytest.raises(MissingItem):
            train(manifests, bundle, bad, _small_cfg())

    def test_empty_val_split_rejected(self, rng):
        manifests, bundle, triplets = _separable_problem(rng, n_train_inst=4, n_val_inst=0)
        with pytest.raises(InvalidInput, match="val"):
            train(manifests, bundle, triplets, _small_cfg())

    def test_shared_instances_across_splits_rejected(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        # relabel one val image as a train anchor's twin
        leaky = [
            ImageManifest(m.image_id, m.instance_id, m.dataset_id, m.subset, "train")
            if m.image_id == "inst3_img0"
            else m
            for m in manifests
        ]
        with pytest.raises(InvalidInput, match="share"):
            train(leaky, bundle, triplets, _small_cfg())

    def test_lambda_without_patch_bundle_rejected(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        cfg = _small_cfg(loss=LossConfig(lam=1.0))
        with pytest.raises(InvalidInput, match="patch"):
            train(manifests, bundle, triplets, cfg)

    def test_wrong_bundle_kind_rejected(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        patchy = make_bundle(
            "PATCH", bundle.dim, {k: v for k, v in bundle.items.items()}
        )
        with pytest.raises(InvalidInput, match="CLS"):
            train(manifests, patchy, triplets, _small_cfg())

    def test_bad_config_rejected(self, rng):
        manifests, bundle, triplets = _separable_problem(rng)
        with pytest.raises(InvalidInput):
            train(manifests, bundle, triplets, _small_cfg(lr=-1.0))


class TestValidationAccuracy:
    def test_equals_the_per_triplet_loop_with_duplicate_embeddings(self, rng):
        # "twin" duplicates "p", so (a, p, twin) is an exact tie, which
        # counts as incorrect, and the anchor "twin" scores like "p"
        dim = 6
        a = rng.normal(size=dim)
        vecs = {"a": a, "p": a + 0.05 * rng.normal(size=dim), "n": rng.normal(size=dim)}
        vecs["twin"] = vecs["p"].copy()
        data = _TrainData(make_bundle("CLS", dim, vecs), None, _small_cfg())
        val = [
            Triplet("a", "p", "n", "MINED_REAL"),
            Triplet("a", "p", "twin", "MINED_REAL"),
            Triplet("a", "n", "p", "MINED_REAL"),
            Triplet("twin", "p", "n", "MINED_REAL"),
        ]
        ties = val[1:2]
        for head in (identity_dual_head(dim), init_dual_head(dim, hidden_dim=5, seed=3)):
            assert _validation_accuracy(head, val, data) == validation_accuracy_per_triplet(
                head, val, data
            )
            assert _validation_accuracy(head, ties, data) == 0.0
        assert _validation_accuracy(identity_dual_head(dim), val, data) == 0.5


class TestMicroBatchPass:
    """One stacked pass per head against the per-image oracle. In the
    micro-batch, a1 and b1 each appear in two triplets, and b2 is the
    positive of two instance-B triplets, so the instance-A triplet sees
    it twice among its in-batch negatives."""

    MICRO = [
        Triplet("a1", "a2", "b1", "MINED_REAL"),
        Triplet("b1", "b2", "a1", "MINED_REAL"),
        Triplet("b3", "b2", "c1", "MINED_REAL"),
        Triplet("c1", "c2", "a3", "MINED_REAL"),
    ]

    def _setup(self, rng, lam, metric="SINKHORN"):
        dim = 6
        images = ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2"]
        cls = make_bundle("CLS", dim, {i: rng.normal(size=dim) for i in images})
        patch = make_bundle(
            "PATCH", dim, {i: rng.normal(size=(int(rng.integers(2, 6)), dim)) for i in images}
        )
        cfg = TrainConfig(
            hidden_dim=5,
            loss=LossConfig(lam=lam, patch_metric=metric),
            sinkhorn=SinkhornConfig(epsilon=0.1),
        )
        head = init_dual_head(dim, hidden_dim=5, seed=3)
        inst_of = {i: i[0] for i in images}
        return head, _TrainData(cls, patch, cfg), inst_of, cfg

    @pytest.mark.parametrize(
        "lam, metric", [(0.0, "SINKHORN"), (0.5, "SINKHORN"), (0.5, "COSINE_MEANPOOL")]
    )
    def test_matches_the_per_image_oracle(self, rng, lam, metric):
        head, data, inst_of, _ = self._setup(rng, lam, metric)
        got, want = zero_grads(head), zero_grads(head)
        loss = _micro_batch_pass(head, self.MICRO, data, inst_of, got)
        want_loss = micro_batch_pass_per_image(head, self.MICRO, data, inst_of, want)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.any(want["patch.W1"]) == (lam > 0)
        for name, w in want.items():
            assert np.max(np.abs(got[name] - w)) <= 1e-12 * np.max(np.abs(w)), name

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_one_mlp_pass_per_head(self, rng, monkeypatch, lam):
        head, data, inst_of, cfg = self._setup(rng, lam)
        calls = {"mlp_forward": 0, "mlp_backward": 0}
        for name in calls:
            def counted(*args, _fn=getattr(trainer, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(trainer, name, counted)
        assert len(self.MICRO) <= cfg.batch_size
        train_step(head, adamw_init(head), self.MICRO, data, inst_of)
        heads_used = 2 if lam > 0 else 1
        assert calls == {"mlp_forward": heads_used, "mlp_backward": heads_used}
        calls.update(mlp_forward=0, mlp_backward=0)
        _validation_accuracy(head, self.MICRO, data)
        assert calls == {"mlp_forward": 1, "mlp_backward": 0}

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_one_loss_call_per_head_per_micro_batch(self, rng, monkeypatch, lam):
        head, data, inst_of, cfg = self._setup(rng, lam)
        calls = {"cosine_losses": 0, "patch_losses": 0}
        for name in calls:
            def counted(*args, _fn=getattr(trainer, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(trainer, name, counted)
        data = _TrainData(data.cls_bundle, data.patch_bundle, dataclasses.replace(cfg, batch_size=2))
        train_step(head, adamw_init(head), self.MICRO, data, inst_of)
        assert calls == {"cosine_losses": 2, "patch_losses": 2 if lam > 0 else 0}

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_gradient_sums_have_the_bits_of_sums_from_zeros(self, rng, monkeypatch, lam):
        # every micro-batch's cls.b2[0] is -0.0: a sum started from zeros
        # makes it +0.0, and so must the step's sum, which starts from the
        # first micro-batch's own array
        head, data, inst_of, cfg = self._setup(rng, lam)
        data = _TrainData(data.cls_bundle, data.patch_bundle, dataclasses.replace(cfg, batch_size=2))
        backward = trainer.mlp_backward

        def signed_zero(mlp, *args):
            grads = backward(mlp, *args)
            if mlp is head.cls_head:
                grads["b2"][0] = -0.0
            return grads

        stepped = []
        monkeypatch.setattr(trainer, "mlp_backward", signed_zero)
        monkeypatch.setattr(trainer, "adamw_step", lambda _head, grads, *_: stepped.append(grads))
        train_step(head, adamw_init(head), self.MICRO, data, inst_of)
        want = zero_grads(head)
        for start in range(0, len(self.MICRO), 2):
            _micro_batch_pass(head, self.MICRO[start : start + 2], data, inst_of, want)
        (got,) = stepped
        assert list(got) == [name for name in want if lam > 0 or name.startswith("cls.")]
        for name, g in got.items():
            w = want[name] / len(self.MICRO)
            assert np.array_equal(g, w), name
            assert np.array_equal(np.signbit(g), np.signbit(w)), name
        assert got["cls.b2"][0] == 0.0 and not np.signbit(got["cls.b2"][0])


class TestGradientAssembly:
    def test_one_step_gradient_matches_fd(self, rng):
        # Recover the averaged chunk gradient from a single AdamW step
        # (step one from zero state moves each parameter by exactly
        # -lr * g / (|g| + 1e-8), which is invertible) and compare it
        # against central differences of the mean chunk loss, evaluated
        # through lr=0 runs that leave parameters untouched. This pins
        # the whole assembly: both heads, in-batch negatives, micro-batch
        # accumulation, and the per-triplet average.
        dim, hidden = 6, 5
        manifests = [
            _manifest("a1", "A", "train"),
            _manifest("a2", "A", "train"),
            _manifest("b1", "B", "train"),
            _manifest("b2", "B", "train"),
            _manifest("c1", "C", "val"),
            _manifest("c2", "C", "val"),
        ]
        cls_vecs = {
            m.image_id: rng.normal(size=(1, dim)).astype(np.float32) for m in manifests
        }
        patch_mats = {
            m.image_id: rng.normal(size=(int(rng.integers(2, 5)), dim)).astype(np.float32)
            for m in manifests
        }
        cls_bundle = make_bundle("CLS", dim, cls_vecs)
        patch_bundle = make_bundle("PATCH", dim, patch_mats)
        triplets = [
            Triplet("a1", "a2", "b1", "MINED_REAL"),
            Triplet("b1", "b2", "a1", "MINED_REAL"),
            Triplet("c1", "c2", "a1", "MINED_REAL"),
        ]
        loss_cfg = LossConfig(lam=0.5, patch_metric="COSINE_MEANPOOL")

        def cfg(lr):
            return TrainConfig(
                lr=lr,
                batch_size=8,
                grad_accum=1,
                epochs=1,
                seed=0,
                hidden_dim=hidden,
                loss=loss_cfg,
            )

        base = init_dual_head(in_dim=dim, hidden_dim=hidden, seed=7)

        def mean_loss():
            res = train(
                manifests, cls_bundle, triplets, cfg(0.0),
                patch_bundle=patch_bundle, initial_head=base,
            )
            return res.history[0]["train_loss"]

        stepped = train(
            manifests, cls_bundle, triplets, cfg(1.0),
            patch_bundle=patch_bundle, initial_head=base,
        )
        recovered = {}
        for name, after in head_params(stepped.final_head).items():
            delta = after - head_params(base)[name]
            mag = 1e-8 * np.abs(delta) / (1.0 - np.abs(delta))
            recovered[name] = -np.sign(delta) * mag

        h = 1e-6
        for name, arr in head_params(base).items():
            flat = arr.reshape(-1)
            fd = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                fp = mean_loss()
                flat[k] = orig - h
                fm = mean_loss()
                flat[k] = orig
                fd[k] = (fp - fm) / (2 * h)
            np.testing.assert_allclose(
                recovered[name].reshape(-1), fd, rtol=1e-4, atol=1e-6, err_msg=name
            )
