"""Contrastive objectives over one positive and N negatives, with
analytic gradients.

Scores passed in BatchScores are raw similarities (cosine for the
global head, negated transport divergence for the patch head). The
InfoNCE objective converts them to logits by dividing by the
temperature and subtracts margin/tau from the positive logit; the
hinge and BCE variants consume the scores as given, so their margins
live directly in score space.

Gradient conventions: every objective returns (loss, d_pos, d_neg) and
every loss returns its derivatives with respect to its actual inputs
(raw scores or raw vectors/matrices), so central finite differences on
the loss itself reproduce them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ShapeError
from .sinkhorn import PatchSet, SinkhornConfig, divergence_grad, patch_set

OBJECTIVES = ("INFONCE", "HINGE", "BCE")
PATCH_METRICS = ("SINKHORN", "COSINE_MEANPOOL")


@dataclass
class LossConfig:
    tau: float = 0.07
    lam: float = 1.0
    margin: float = 0.1
    objective: str = "INFONCE"
    patch_metric: str = "SINKHORN"

    def validate(self) -> None:
        if not self.tau > 0:
            raise InvalidInput(f"tau must be positive, got {self.tau}")
        if self.lam < 0:
            raise InvalidInput(f"lambda must be non-negative, got {self.lam}")
        if self.margin < 0:
            raise InvalidInput(f"margin must be non-negative, got {self.margin}")
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
    cfg.validate()
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
    cfg.validate()
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
    cfg.validate()
    # -log sigmoid(x) = softplus(-x); -log(1 - sigmoid(x)) = softplus(x)
    loss = float(np.logaddexp(0.0, -scores.s_pos) + np.logaddexp(0.0, scores.s_neg).sum())
    d_pos = float(_sigmoid(scores.s_pos) - 1.0)
    d_neg = _sigmoid(scores.s_neg)
    return loss, d_pos, d_neg


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


_OBJECTIVE = {"INFONCE": infonce_loss, "HINGE": hinge_loss, "BCE": bce_loss}


def _cosine_and_jacobians(a: np.ndarray, b: np.ndarray):
    """cos(a, b) plus its gradients w.r.t. a and b."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise InvalidInput("zero-norm vector in cosine similarity")
    cos = float(a @ b / (na * nb))
    grad_a = b / (na * nb) - cos * a / (na * na)
    grad_b = a / (na * nb) - cos * b / (nb * nb)
    return cos, grad_a, grad_b


def cls_loss(anchor: np.ndarray, positive: np.ndarray, negatives, cfg: LossConfig):
    """Global contrastive loss on projected CLS vectors.

    Cosine similarities feed the configured objective; returned
    gradients chain through the cosine normalization Jacobian.

    Returns (loss, grad_anchor, grad_positive, grad_negatives) where
    grad_negatives is an (N, D) array aligned with the input list.
    """
    cfg.validate()
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

    s_pos, ja_pos, jp = _cosine_and_jacobians(anchor, positive)
    neg_sims = []
    neg_jacs = []
    for n in negatives:
        s, ja, jn = _cosine_and_jacobians(anchor, n)
        neg_sims.append(s)
        neg_jacs.append((ja, jn))

    loss, d_pos, d_neg = _OBJECTIVE[cfg.objective](BatchScores(s_pos, np.array(neg_sims)), cfg)

    grad_anchor = d_pos * ja_pos
    grad_positive = d_pos * jp
    grad_negatives = np.zeros((len(negatives), anchor.size))
    for i, (ja, jn) in enumerate(neg_jacs):
        grad_anchor = grad_anchor + d_neg[i] * ja
        grad_negatives[i] = d_neg[i] * jn
    return loss, grad_anchor, grad_positive, grad_negatives


def _backprop_row_normalization(G_hat: np.ndarray, M_hat: np.ndarray, norms: np.ndarray):
    """Chain a gradient on unit rows back to the raw rows."""
    inner = (G_hat * M_hat).sum(axis=1, keepdims=True)
    return (G_hat - inner * M_hat) / norms


def patch_loss(
    anchor_Z,
    pos_Z,
    neg_Zs,
    cfg: LossConfig,
    sink_cfg: SinkhornConfig | None = None,
):
    """Patch-level contrastive loss on projected token matrices.

    With the SINKHORN metric, rows are L2-normalized internally, patch
    similarity is the negated debiased divergence, and gradients flow
    through the converged transport plans (envelope theorem) and the
    row-normalization Jacobian. With COSINE_MEANPOOL, similarities are
    cosines of mean-pooled raw rows, which makes the result identical
    to cls_loss on the pooled vectors.

    Returns (loss, grad_anchor_Z, grad_pos_Z, [grad_neg_Z ...]).
    """
    cfg.validate()
    sink_cfg = sink_cfg if sink_cfg is not None else SinkhornConfig()
    anchor_Z = np.asarray(anchor_Z, dtype=np.float64)
    pos_Z = np.asarray(pos_Z, dtype=np.float64)
    neg_Zs = [np.asarray(n, dtype=np.float64) for n in neg_Zs]
    if not neg_Zs:
        raise InvalidInput("need at least one negative")
    for M in [anchor_Z, pos_Z, *neg_Zs]:
        if M.ndim != 2 or M.shape[0] < 1:
            raise InvalidInput(f"patch matrices must be non-empty 2-D, got shape {M.shape}")
        if M.shape[1] != anchor_Z.shape[1]:
            raise ShapeError("patch matrices must share one embedding dim")
        if not np.all(np.isfinite(M)):
            raise InvalidInput("non-finite patch matrix")

    if cfg.patch_metric == "COSINE_MEANPOOL":
        pooled = [M.mean(axis=0) for M in [anchor_Z, pos_Z, *neg_Zs]]
        loss, g_a, g_p, g_ns = cls_loss(pooled[0], pooled[1], pooled[2:], cfg)
        grad_anchor = np.tile(g_a / anchor_Z.shape[0], (anchor_Z.shape[0], 1))
        grad_pos = np.tile(g_p / pos_Z.shape[0], (pos_Z.shape[0], 1))
        grad_negs = [
            np.tile(g_ns[i] / neg_Zs[i].shape[0], (neg_Zs[i].shape[0], 1))
            for i in range(len(neg_Zs))
        ]
        return loss, grad_anchor, grad_pos, grad_negs

    sets = [patch_set(M, sink_cfg, True) for M in [anchor_Z, pos_Z, *neg_Zs]]
    return sinkhorn_patch_loss(sets[0], sets[1], sets[2:], cfg, sink_cfg)


def sinkhorn_patch_loss(
    anchor: PatchSet,
    pos: PatchSet,
    negs: list[PatchSet],
    cfg: LossConfig,
    sink_cfg: SinkhornConfig,
):
    """The SINKHORN branch of patch_loss on prepared sets: each
    comparison solves only its cross term.

    Returns (loss, grad_anchor_Z, grad_pos_Z, [grad_neg_Z ...]).
    """
    sims = []
    grads = []  # (d sim / d anchor unit rows, d sim / d other unit rows, other)
    for other in [pos, *negs]:
        val, dA, dM, _ = divergence_grad(
            anchor.unit, other.unit, sink_cfg, anchor.self_ot, other.self_ot
        )
        sims.append(-val)
        grads.append((-dA, -dM, other))

    loss, d_pos, d_neg = _OBJECTIVE[cfg.objective](BatchScores(sims[0], np.array(sims[1:])), cfg)
    weights = np.concatenate(([d_pos], d_neg))

    G_anchor_hat = np.zeros_like(anchor.unit)
    out_grads = []
    for w, (dA, dM, other) in zip(weights, grads):
        G_anchor_hat += w * dA
        out_grads.append(_backprop_row_normalization(w * dM, other.unit, other.norms))
    grad_anchor = _backprop_row_normalization(G_anchor_hat, anchor.unit, anchor.norms)
    return loss, grad_anchor, out_grads[0], out_grads[1:]


def total_loss(cls_part: float, patch_part: float, cfg: LossConfig) -> float:
    """Joint objective: cls_part + lambda * patch_part."""
    cfg.validate()
    if not np.isfinite(cls_part) or not np.isfinite(patch_part):
        raise InvalidInput("loss parts must be finite")
    return float(cls_part + cfg.lam * patch_part)
