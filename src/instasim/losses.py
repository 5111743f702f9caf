"""Contrastive objectives over one positive and N negatives, with
analytic gradients.

Scores passed in BatchScores are raw similarities (cosine for the
global head, negated transport divergence for the patch head). The
InfoNCE objective converts them to logits by dividing by the
temperature and subtracts margin/tau from the positive logit; the
hinge and BCE variants consume the scores as given, so their margins
live directly in score space.

The trainer makes one loss call per head per micro-batch:
``cosine_losses`` scores every entry (an anchor with its positive and
negatives, as row indices) from one normalized k x k score matrix over
the micro-batch's k distinct images, and ``patch_losses`` does the same
for token matrices. ``cls_loss`` and ``patch_loss`` are their one-entry
forms.

Gradient conventions: every objective returns (loss, d_pos, d_neg) and
every loss returns its derivatives with respect to its actual inputs
(raw scores or raw vectors/matrices), so central finite differences on
the loss itself reproduce them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ShapeError
from .sinkhorn import SinkhornConfig, divergence_grad, patch_set

OBJECTIVES = ("INFONCE", "HINGE", "BCE")
PATCH_METRICS = ("SINKHORN", "COSINE_MEANPOOL")


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.07
    lam: float = 1.0
    margin: float = 0.1
    objective: str = "INFONCE"
    patch_metric: str = "SINKHORN"

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise InvalidInput(f"tau must be positive and finite, got {self.tau}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidInput(f"lambda must be non-negative and finite, got {self.lam}")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise InvalidInput(f"margin must be non-negative and finite, got {self.margin}")
        if self.objective not in OBJECTIVES:
            raise InvalidInput(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.patch_metric not in PATCH_METRICS:
            raise InvalidInput(
                f"patch_metric must be one of {PATCH_METRICS}, got {self.patch_metric!r}"
            )


@dataclass
class BatchScores:
    """One positive score and at least one negative score, all finite."""

    s_pos: float
    s_neg: np.ndarray

    def __post_init__(self):
        self.s_neg = np.asarray(self.s_neg, dtype=np.float64).ravel()
        if self.s_neg.size < 1:
            raise InvalidInput("need at least one negative score")
        if not np.isfinite(self.s_pos) or not np.all(np.isfinite(self.s_neg)):
            raise InvalidInput("scores must be finite")


def infonce_loss(scores: BatchScores, cfg: LossConfig):
    """L = -log( e^{s+ - m'} / (e^{s+ - m'} + sum_i e^{s_i-}) ) on logits s/tau.

    m' = margin/tau is subtracted from the positive logit only. Computed
    with the max-shift log-sum-exp trick. Returns (loss, d_pos, d_neg);
    the gradient components sum to 0.
    """
    z = np.concatenate(([scores.s_pos - cfg.margin], scores.s_neg)) / cfg.tau
    m = z.max()
    log_denom = m + np.log(np.exp(z - m).sum())
    loss = float(log_denom - z[0])
    p = np.exp(z - log_denom)
    d_pos = (p[0] - 1.0) / cfg.tau
    d_neg = p[1:] / cfg.tau
    return loss, float(d_pos), d_neg


def hinge_loss(scores: BatchScores, cfg: LossConfig):
    """sum_i max(0, margin - (s+ - s_i-)) with margin in raw score space.

    Returns (loss, d_pos, d_neg).
    """
    gaps = cfg.margin - (scores.s_pos - scores.s_neg)
    active = gaps > 0
    loss = float(gaps[active].sum())
    d_pos = -float(active.sum())
    d_neg = active.astype(np.float64)
    return loss, d_pos, d_neg


def bce_loss(scores: BatchScores, cfg: LossConfig):
    """-log sigmoid(s+) - sum_i log(1 - sigmoid(s_i-)), stable softplus form.

    Returns (loss, d_pos, d_neg).
    """
    # -log sigmoid(x) = softplus(-x); -log(1 - sigmoid(x)) = softplus(x)
    loss = float(np.logaddexp(0.0, -scores.s_pos) + np.logaddexp(0.0, scores.s_neg).sum())
    d_pos = float(_sigmoid(scores.s_pos) - 1.0)
    d_neg = _sigmoid(scores.s_neg)
    return loss, d_pos, d_neg


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


_OBJECTIVE = {"INFONCE": infonce_loss, "HINGE": hinge_loss, "BCE": bce_loss}


def cosine_losses(V: np.ndarray, rows, cfg: LossConfig):
    """The configured objective on cosine scores, for many entries that
    share one set of vectors.

    Each entry of ``rows`` is ``(anchor, [positive, negative, ...])``,
    given as row indices of V; indices may repeat within and across
    entries. The unit rows U and the score matrix S = U U^T are formed
    once. Each entry's score gradients are scattered into one matrix G
    (with ``np.add.at``, so a repeated index adds up), and
    dS -> dU = (G + G^T) U is chained through the row normalization.

    Returns (per-entry losses, dV) with dV shaped like V.
    """
    V = np.asarray(V, dtype=np.float64)
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise InvalidInput("zero-norm vector in cosine similarity")
    U = V / norms
    S = U @ U.T
    G = np.zeros_like(S)
    losses = np.zeros(len(rows))
    for e, (a, others) in enumerate(rows):
        s = S[a, others]
        losses[e], d_pos, d_neg = _OBJECTIVE[cfg.objective](BatchScores(s[0], s[1:]), cfg)
        np.add.at(G, (a, others), np.concatenate(([d_pos], d_neg)))
    return losses, _backprop_row_normalization((G + G.T) @ U, U, norms)


def cls_loss(anchor: np.ndarray, positive: np.ndarray, negatives, cfg: LossConfig):
    """Global contrastive loss on projected CLS vectors: one entry of
    ``cosine_losses``.

    Returns (loss, grad_anchor, grad_positive, grad_negatives) where
    grad_negatives is an (N, D) array aligned with the input list.
    """
    anchor = np.asarray(anchor, dtype=np.float64).ravel()
    positive = np.asarray(positive, dtype=np.float64).ravel()
    negatives = [np.asarray(n, dtype=np.float64).ravel() for n in negatives]
    if not negatives:
        raise InvalidInput("need at least one negative")
    for v in [anchor, positive, *negatives]:
        if v.shape != anchor.shape:
            raise ShapeError("all vectors must share one dimension")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("non-finite vector")
    V = np.stack([anchor, positive, *negatives])
    losses, dV = cosine_losses(V, [(0, list(range(1, len(V))))], cfg)
    return float(losses[0]), dV[0], dV[1], dV[2:]


def _backprop_row_normalization(G_hat: np.ndarray, M_hat: np.ndarray, norms: np.ndarray):
    """Chain a gradient on unit rows back to the raw rows."""
    inner = (G_hat * M_hat).sum(axis=1, keepdims=True)
    return (G_hat - inner * M_hat) / norms


def patch_losses(mats, rows, cfg: LossConfig, sink_cfg: SinkhornConfig = SinkhornConfig()):
    """``cosine_losses`` for token matrices: entries index into ``mats``.

    With COSINE_MEANPOOL the scores are cosines of mean-pooled raw rows,
    and each pooled gradient g is spread as g / n over its matrix's n
    rows. With SINKHORN each matrix is prepared once by ``patch_set``
    (unit rows and self term); a score is the negated debiased
    divergence, and gradients flow through the converged transport plans
    (envelope theorem) and the row-normalization Jacobian. For each
    entry, the anchor's gradient is added first, then each other
    matrix's in order.

    Returns (per-entry losses, [gradient for each matrix in mats]).
    """
    if cfg.patch_metric == "COSINE_MEANPOOL":
        losses, dV = cosine_losses(np.stack([M.mean(axis=0) for M in mats]), rows, cfg)
        return losses, [np.full(M.shape, g / len(M)) for g, M in zip(dV, mats)]

    sets = [patch_set(M, sink_cfg, True) for M in mats]
    grads = [np.zeros_like(p.unit) for p in sets]
    losses = np.zeros(len(rows))
    for e, (a, others) in enumerate(rows):
        A = sets[a]
        # (value, dA, dB, converged) of each comparison; a score is -value
        comps = [
            divergence_grad(A.unit, sets[j].unit, sink_cfg, A.self_ot, sets[j].self_ot)
            for j in others
        ]
        scores = BatchScores(-comps[0][0], -np.array([c[0] for c in comps[1:]]))
        losses[e], d_pos, d_neg = _OBJECTIVE[cfg.objective](scores, cfg)
        weights = np.concatenate(([d_pos], d_neg))
        G_anchor_hat = sum(w * -c[1] for w, c in zip(weights, comps))
        grads[a] += _backprop_row_normalization(G_anchor_hat, A.unit, A.norms)
        for w, j, c in zip(weights, others, comps):
            grads[j] += _backprop_row_normalization(w * -c[2], sets[j].unit, sets[j].norms)
    return losses, grads


def patch_loss(
    anchor_Z,
    pos_Z,
    neg_Zs,
    cfg: LossConfig,
    sink_cfg: SinkhornConfig = SinkhornConfig(),
):
    """Patch-level contrastive loss on projected token matrices: one
    entry of ``patch_losses``. With COSINE_MEANPOOL the result is
    cls_loss on the pooled vectors.

    Returns (loss, grad_anchor_Z, grad_pos_Z, [grad_neg_Z ...]).
    """
    mats = [np.asarray(M, dtype=np.float64) for M in [anchor_Z, pos_Z, *neg_Zs]]
    if len(mats) < 3:
        raise InvalidInput("need at least one negative")
    for M in mats:
        if M.ndim != 2 or M.shape[0] < 1:
            raise InvalidInput(f"patch matrices must be non-empty 2-D, got shape {M.shape}")
        if M.shape[1] != mats[0].shape[1]:
            raise ShapeError("patch matrices must share one embedding dim")
        if not np.all(np.isfinite(M)):
            raise InvalidInput("non-finite patch matrix")
    losses, grads = patch_losses(mats, [(0, list(range(1, len(mats))))], cfg, sink_cfg)
    return float(losses[0]), grads[0], grads[1], grads[2:]


def total_loss(cls_part: float, patch_part: float, cfg: LossConfig) -> float:
    """Joint objective: cls_part + lambda * patch_part."""
    if not np.isfinite(cls_part) or not np.isfinite(patch_part):
        raise InvalidInput("loss parts must be finite")
    return float(cls_part + cfg.lam * patch_part)
