"""Contrastive objectives and the two-level loss with analytic gradients."""
import numpy as np
import pytest

from instasim.errors import InvalidInput
from instasim.losses import (
    BatchScores,
    LossConfig,
    bce_loss,
    cls_loss,
    cosine_losses,
    hinge_loss,
    infonce_loss,
    patch_loss,
    patch_losses,
    total_loss,
)
from instasim.sinkhorn import SinkhornConfig

from oracles import cls_loss_per_negative, patch_loss_per_comparison

SINK = SinkhornConfig(epsilon=0.2, max_iters=20000, tol=1e-6)


def _fd_scores(loss_fn, scores, cfg, h=1e-7):
    """FD gradient of a (BatchScores, cfg) -> float objective."""
    d_pos = (
        loss_fn(BatchScores(scores.s_pos + h, scores.s_neg), cfg)
        - loss_fn(BatchScores(scores.s_pos - h, scores.s_neg), cfg)
    ) / (2 * h)
    d_neg = np.zeros_like(scores.s_neg)
    for k in range(scores.s_neg.size):
        up = scores.s_neg.copy()
        up[k] += h
        dn = scores.s_neg.copy()
        dn[k] -= h
        d_neg[k] = (loss_fn(BatchScores(scores.s_pos, up), cfg) - loss_fn(BatchScores(scores.s_pos, dn), cfg)) / (2 * h)
    return d_pos, d_neg


class TestInfoNCE:
    def test_perfect_separation_is_near_zero(self):
        # one positive at similarity 1, one negative at 0: at temperature
        # 0.07 the positive logit dominates by 1/0.07, so the softmax
        # cross-entropy is log(1 + exp(-1/0.07))
        cfg = LossConfig(tau=0.07, margin=0.0)
        loss = infonce_loss(BatchScores(1.0, np.array([0.0])), cfg)[0]
        assert abs(loss - np.log1p(np.exp(-1.0 / 0.07))) < 1e-12
        assert loss < 1e-6

    def test_uniform_scores_give_log_n_plus_one(self):
        # margin 0 and equal scores: softmax is uniform over 1 + N logits
        cfg = LossConfig(margin=0.0)
        for n in (1, 3, 9):
            loss = infonce_loss(BatchScores(0.3, np.full(n, 0.3)), cfg)[0]
            assert abs(loss - np.log(n + 1)) < 1e-12

    def test_margin_penalizes_positive_logit(self):
        base = LossConfig(margin=0.0)
        with_margin = LossConfig(margin=0.1)
        scores = BatchScores(0.6, np.array([0.1, 0.4]))
        assert infonce_loss(scores, with_margin)[0] > infonce_loss(scores, base)[0]

    def test_gradient_matches_fd(self, rng):
        cfg = LossConfig()
        for _ in range(100):
            s = BatchScores(float(rng.normal()), rng.normal(size=int(rng.integers(1, 8))))
            _, d_pos, d_neg = infonce_loss(s, cfg)
            fd_pos, fd_neg = _fd_scores(lambda s, c: infonce_loss(s, c)[0], s, cfg)
            assert abs(d_pos - fd_pos) < 1e-6 * max(1.0, abs(fd_pos))
            np.testing.assert_allclose(d_neg, fd_neg, rtol=1e-5, atol=1e-7)

    def test_gradient_sums_to_zero(self, rng):
        # softmax gradients are a probability difference, so the positive
        # and negative parts cancel exactly
        cfg = LossConfig()
        for _ in range(20):
            s = BatchScores(float(rng.normal()), rng.normal(size=5))
            _, d_pos, d_neg = infonce_loss(s, cfg)
            assert abs(d_pos + d_neg.sum()) < 1e-12 / cfg.tau

    def test_extreme_scores_stay_finite(self):
        cfg = LossConfig()
        for s_pos, s_neg in ((50.0, -50.0), (-50.0, 50.0)):
            loss, d_pos, d_neg = infonce_loss(BatchScores(s_pos, np.array([s_neg])), cfg)
            assert np.isfinite(loss)
            assert np.isfinite(d_pos) and np.isfinite(d_neg).all()


class TestHinge:
    def test_literal_definition(self):
        cfg = LossConfig(margin=0.25)
        s = BatchScores(0.5, np.array([0.1, 0.4, 0.45]))
        expected = sum(max(0.0, 0.25 - (0.5 - sn)) for sn in (0.1, 0.4, 0.45))
        loss, _, _ = hinge_loss(s, cfg)
        assert abs(loss - expected) < 1e-15

    def test_zero_when_margin_satisfied(self):
        cfg = LossConfig(margin=0.1)
        loss, d_pos, d_neg = hinge_loss(BatchScores(0.9, np.array([0.1, 0.2])), cfg)
        assert loss == 0.0
        assert d_pos == 0.0
        assert (d_neg == 0.0).all()

    def test_active_set_gradient(self):
        # only the violating negative contributes a unit of slope
        cfg = LossConfig(margin=0.2)
        _, d_pos, d_neg = hinge_loss(BatchScores(0.5, np.array([0.1, 0.45])), cfg)
        assert d_pos == -1.0
        np.testing.assert_array_equal(d_neg, [0.0, 1.0])

    def test_independent_of_temperature(self):
        s = BatchScores(0.4, np.array([0.35]))
        a = hinge_loss(s, LossConfig(tau=0.07, margin=0.1))[0]
        b = hinge_loss(s, LossConfig(tau=1.0, margin=0.1))[0]
        assert a == b


class TestBCE:
    def test_softplus_form(self):
        cfg = LossConfig()
        s = BatchScores(0.8, np.array([-0.3, 0.2]))
        # softplus(-s_pos) + sum softplus(s_neg)
        expected = np.logaddexp(0.0, -0.8) + np.logaddexp(0.0, -0.3) + np.logaddexp(0.0, 0.2)
        loss, _, _ = bce_loss(s, cfg)
        assert abs(loss - expected) < 1e-12

    def test_gradient_is_sigmoid_residual(self, rng):
        cfg = LossConfig()
        s = BatchScores(0.8, rng.normal(size=4))
        _, d_pos, d_neg = bce_loss(s, cfg)
        sig = lambda x: 1.0 / (1.0 + np.exp(-x))
        assert abs(d_pos - (sig(0.8) - 1.0)) < 1e-12
        np.testing.assert_allclose(d_neg, sig(s.s_neg), atol=1e-12)

    def test_saturated_scores_stay_finite(self):
        cfg = LossConfig()
        loss, _, _ = bce_loss(BatchScores(30.0, np.array([-30.0])), cfg)
        assert np.isfinite(loss)
        assert loss < 1e-12
        loss_bad, _, _ = bce_loss(BatchScores(-30.0, np.array([30.0])), cfg)
        assert abs(loss_bad - 60.0) < 1e-6


class TestBatchScores:
    def test_requires_at_least_one_negative(self):
        with pytest.raises(InvalidInput):
            BatchScores(0.5, np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            BatchScores(np.nan, np.array([0.0]))


class TestClsLoss:
    def test_gradients_match_fd(self, rng):
        h = 1e-7
        for objective in ("INFONCE", "HINGE", "BCE"):
            cfg = LossConfig(objective=objective, margin=0.2)
            a = rng.normal(size=6)
            p = rng.normal(size=6)
            negs = rng.normal(size=(3, 6))
            _, ga, gp, gn = cls_loss(a, p, negs, cfg)
            for arr, grad in ((a, ga), (p, gp), (negs, gn)):
                flat = arr.reshape(-1)
                fd = np.zeros_like(flat)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    fp_ = cls_loss(a, p, negs, cfg)[0]
                    flat[k] = orig - h
                    fm = cls_loss(a, p, negs, cfg)[0]
                    flat[k] = orig
                    fd[k] = (fp_ - fm) / (2 * h)
                np.testing.assert_allclose(
                    grad.reshape(-1), fd, rtol=1e-4, atol=1e-6, err_msg=objective
                )

    def test_scale_invariance_of_scores(self, rng):
        # cosine ignores vector norms, so rescaling any input changes the
        # loss value not at all
        cfg = LossConfig()
        a = rng.normal(size=5)
        p = rng.normal(size=5)
        negs = rng.normal(size=(2, 5))
        base = cls_loss(a, p, negs, cfg)[0]
        scaled = cls_loss(3.0 * a, 0.5 * p, negs * 7.0, cfg)[0]
        assert abs(base - scaled) < 1e-12

    def test_zero_vector_rejected(self, rng):
        cfg = LossConfig()
        with pytest.raises(InvalidInput):
            cls_loss(np.zeros(4), rng.normal(size=4), rng.normal(size=(1, 4)), cfg)


class TestPatchLoss:
    def test_sinkhorn_gradients_match_fd(self, rng):
        cfg = LossConfig(patch_metric="SINKHORN")
        h = 1e-6
        A = rng.normal(size=(3, 3))
        P = rng.normal(size=(4, 3))
        Ns = [rng.normal(size=(2, 3)), rng.normal(size=(3, 3))]
        _, gA, gP, gNs = patch_loss(A, P, Ns, cfg, SINK)
        for arr, grad in ((A, gA), (P, gP), (Ns[0], gNs[0]), (Ns[1], gNs[1])):
            flat = arr.reshape(-1)
            fd = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                fp_ = patch_loss(A, P, Ns, cfg, SINK)[0]
                flat[k] = orig - h
                fm = patch_loss(A, P, Ns, cfg, SINK)[0]
                flat[k] = orig
                fd[k] = (fp_ - fm) / (2 * h)
            np.testing.assert_allclose(grad.reshape(-1), fd, rtol=1e-3, atol=1e-6)

    def test_zero_norm_row_rejected(self, rng):
        A = rng.normal(size=(3, 3))
        A[1] = 0.0
        with pytest.raises(InvalidInput, match="zero-norm patch row"):
            patch_loss(A, rng.normal(size=(2, 3)), [rng.normal(size=(2, 3))], LossConfig(), SINK)

    def test_meanpool_equals_cls_loss_on_pooled_vectors(self, rng):
        cfg = LossConfig(patch_metric="COSINE_MEANPOOL")
        A = rng.normal(size=(4, 5))
        P = rng.normal(size=(3, 5))
        Ns = [rng.normal(size=(2, 5))]
        loss_patch = patch_loss(A, P, Ns, cfg, SINK)[0]
        loss_cls = cls_loss(A.mean(axis=0), P.mean(axis=0), Ns[0].mean(axis=0)[None, :], cfg)[0]
        assert abs(loss_patch - loss_cls) < 1e-12

    def test_meanpool_gradients_match_fd(self, rng):
        cfg = LossConfig(patch_metric="COSINE_MEANPOOL")
        h = 1e-7
        A = rng.normal(size=(3, 4))
        P = rng.normal(size=(2, 4))
        Ns = [rng.normal(size=(2, 4)), rng.normal(size=(4, 4))]
        _, gA, gP, gNs = patch_loss(A, P, Ns, cfg, SINK)
        for arr, grad in ((A, gA), (P, gP), (Ns[1], gNs[1])):
            flat = arr.reshape(-1)
            fd = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                fp_ = patch_loss(A, P, Ns, cfg, SINK)[0]
                flat[k] = orig - h
                fm = patch_loss(A, P, Ns, cfg, SINK)[0]
                flat[k] = orig
                fd[k] = (fp_ - fm) / (2 * h)
            np.testing.assert_allclose(grad.reshape(-1), fd, rtol=1e-4, atol=1e-6)

    def test_identical_anchor_and_positive_is_favourable(self, rng):
        # a positive identical to the anchor has divergence 0, the best
        # possible patch similarity, so the loss beats any shifted one
        cfg = LossConfig(patch_metric="SINKHORN")
        A = rng.normal(size=(4, 3))
        N = [rng.normal(size=(4, 3)) + 3.0]
        good = patch_loss(A, A.copy(), N, cfg, SINK)[0]
        worse = patch_loss(A, A + 1.0, N, cfg, SINK)[0]
        assert good < worse


class TestMicroBatchLosses:
    """One loss call over a micro-batch against per-triplet oracles. Row
    2 is a negative of entry 0 and the anchor of entry 1, row 0 is the
    anchor of entry 0 and a negative of entry 1, and row 3 appears twice
    among entry 1's negatives."""

    ROWS = [(0, [1, 2, 3]), (2, [4, 0, 3, 3]), (5, [1, 3])]

    @staticmethod
    def _summed(oracle, mats):
        """Per-entry oracle losses and the oracle gradients summed per row."""
        losses, grads = [], [np.zeros_like(M) for M in mats]
        for a, others in TestMicroBatchLosses.ROWS:
            loss, g_a, g_p, g_ns = oracle(mats[a], mats[others[0]], [mats[j] for j in others[1:]])
            losses.append(loss)
            for j, g in zip([a, *others], [g_a, g_p, *g_ns]):
                grads[j] += g
        return np.array(losses), grads

    @staticmethod
    def _assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("objective", ["INFONCE", "HINGE", "BCE"])
    def test_cosine_losses_match_per_negative_oracle(self, rng, objective):
        cfg = LossConfig(objective=objective, margin=0.2)
        V = rng.normal(size=(6, 5))
        losses, dV = cosine_losses(V, self.ROWS, cfg)
        want_losses, want_grads = self._summed(
            lambda a, p, ns: cls_loss_per_negative(a, p, ns, cfg), list(V)
        )
        self._assert_close(losses, want_losses)
        assert np.all(np.any(np.stack(want_grads), axis=1))
        self._assert_close(dV, np.stack(want_grads))

    def test_patch_losses_match_per_comparison_oracle(self, rng):
        cfg = LossConfig(patch_metric="SINKHORN")
        mats = [rng.normal(size=(int(rng.integers(2, 5)), 3)) for _ in range(6)]
        losses, grads = patch_losses(mats, self.ROWS, cfg, SINK)
        want_losses, want_grads = self._summed(
            lambda a, p, ns: patch_loss_per_comparison(a, p, ns, cfg, SINK), mats
        )
        self._assert_close(losses, want_losses)
        for g, w in zip(grads, want_grads):
            self._assert_close(g, w)

    def test_meanpool_spreads_the_pooled_gradient(self, rng):
        cfg = LossConfig(patch_metric="COSINE_MEANPOOL")
        mats = [rng.normal(size=(int(rng.integers(2, 5)), 3)) for _ in range(6)]
        losses, grads = patch_losses(mats, self.ROWS, cfg, SINK)
        want_losses, dV = cosine_losses(np.stack([M.mean(axis=0) for M in mats]), self.ROWS, cfg)
        assert np.array_equal(losses, want_losses)
        for g, M, d in zip(grads, mats, dV):
            assert g.shape == M.shape
            assert np.array_equal(g, np.tile(d / len(M), (len(M), 1)))


class TestTotalLoss:
    def test_weighted_sum(self):
        cfg = LossConfig(lam=0.5)
        assert total_loss(1.0, 2.0, cfg) == 2.0

    def test_lambda_zero_drops_patch_term(self):
        cfg = LossConfig(lam=0.0)
        assert total_loss(1.25, 99.0, cfg) == 1.25


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            LossConfig(tau=0.0).validate()
        with pytest.raises(InvalidInput):
            LossConfig(objective="SOFTMAX").validate()
        with pytest.raises(InvalidInput):
            LossConfig(patch_metric="CHAMFER").validate()
        with pytest.raises(InvalidInput):
            LossConfig(lam=-0.5).validate()
        LossConfig().validate()
