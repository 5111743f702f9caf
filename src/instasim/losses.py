"""Contrastive objectives over one positive and N negatives, with
analytic gradients.

An objective takes one score row s: the positive's score at index 0,
then at least one negative's. Scores are raw similarities (cosine for
the global head, negated transport divergence for the patch head). The
InfoNCE objective converts them to logits by dividing by the
temperature and subtracts margin/tau from the positive logit; the
hinge and BCE variants consume the scores as given, so their margins
live directly in score space.

The trainer makes one loss call per head per micro-batch:
``cosine_losses`` scores every entry (an anchor with its positive and
negatives, as row indices) from one normalized k x k score matrix over
the micro-batch's k distinct images, and ``patch_losses`` does the same
for token matrices. One triplet is a one-entry call.

Gradient conventions: every objective returns (loss, d), where d is the
derivative with respect to s and has its shape, and every loss returns
its derivatives with respect to its actual inputs (raw scores or raw
vectors/matrices), so central finite differences on the loss itself
reproduce them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ShapeError
from .sinkhorn import SinkhornConfig, _divergences, patch_sets

OBJECTIVES = ("INFONCE", "HINGE", "BCE")
PATCH_METRICS = ("SINKHORN", "COSINE_MEANPOOL")
# position-gradient floats that one batched SINKHORN solve in
# ``patch_losses`` may hold (8 MiB). Every comparison's gradients stay
# alive until its entry is scored: at --max-tokens 1024 with 768-dim
# tokens one comparison holds 1.6M floats (12 MiB), and an 8-triplet
# micro-batch (72 comparisons) would hold 0.9 GB at once. So a larger
# micro-batch is solved a run of entries at a time, and an entry that
# large is a run of its own.
GRAD_ELEMENTS = 1 << 20


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


def infonce_loss(s: np.ndarray, cfg: LossConfig):
    """L = -log( e^{s+ - m'} / (e^{s+ - m'} + sum_i e^{s_i-}) ) on logits s/tau.

    m' = margin/tau is subtracted from the positive logit only. Computed
    with the max-shift log-sum-exp trick. Returns (loss, d); the
    components of d sum to 0.
    """
    z = s.copy()
    z[0] -= cfg.margin
    z /= cfg.tau
    m = z.max()
    log_denom = m + np.log(np.exp(z - m).sum())
    loss = float(log_denom - z[0])
    d = np.exp(z - log_denom)
    d[0] -= 1.0
    return loss, d / cfg.tau


def hinge_loss(s: np.ndarray, cfg: LossConfig):
    """sum_i max(0, margin - (s+ - s_i-)) with margin in raw score space.

    Returns (loss, d).
    """
    gaps = cfg.margin - (s[0] - s[1:])
    active = gaps > 0
    d = np.concatenate(([-float(active.sum())], active.astype(np.float64)))
    return float(gaps[active].sum()), d


def bce_loss(s: np.ndarray, cfg: LossConfig):
    """-log sigmoid(s+) - sum_i log(1 - sigmoid(s_i-)), stable softplus form.

    Returns (loss, d).
    """
    # -log sigmoid(x) = softplus(-x); -log(1 - sigmoid(x)) = softplus(x)
    loss = float(np.logaddexp(0.0, -s[0]) + np.logaddexp(0.0, s[1:]).sum())
    d = 0.5 * (1.0 + np.tanh(0.5 * s))  # sigmoid(s)
    d[0] -= 1.0
    return loss, d


_OBJECTIVE = {"INFONCE": infonce_loss, "HINGE": hinge_loss, "BCE": bce_loss}


def _check_inputs(mats, rows) -> None:
    """Non-empty finite 2-D inputs of one width; a negative in every entry."""
    for M in mats:
        if M.ndim != 2 or M.shape[0] < 1:
            raise InvalidInput(f"loss inputs must be non-empty 2-D, got shape {M.shape}")
        if M.shape[1] != mats[0].shape[1]:
            raise ShapeError("loss inputs must share one embedding dim")
        if not np.all(np.isfinite(M)):
            raise InvalidInput("non-finite loss input")
    if any(len(others) < 2 for _, others in rows):
        raise InvalidInput("every entry needs a positive and at least one negative")


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
    _check_inputs([V], rows)
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise InvalidInput("zero-norm vector in cosine similarity")
    U = V / norms
    S = U @ U.T
    G = np.zeros_like(S)
    losses = np.zeros(len(rows))
    for e, (a, others) in enumerate(rows):
        losses[e], d = _OBJECTIVE[cfg.objective](S[a, others], cfg)
        np.add.at(G, (a, others), d)
    return losses, _backprop_row_normalization((G + G.T) @ U, U, norms)


def _backprop_row_normalization(G_hat: np.ndarray, M_hat: np.ndarray, norms: np.ndarray):
    """Chain a gradient on unit rows back to the raw rows."""
    inner = (G_hat * M_hat).sum(axis=1, keepdims=True)
    return (G_hat - inner * M_hat) / norms


def patch_losses(mats, rows, cfg: LossConfig, sink_cfg: SinkhornConfig = SinkhornConfig()):
    """``cosine_losses`` for token matrices: entries index into ``mats``,
    which must be non-empty, finite and of one width.

    With COSINE_MEANPOOL the scores are cosines of mean-pooled raw rows,
    and each pooled gradient g is spread as g / n over its matrix's n
    rows. With SINKHORN the matrices are prepared by ``patch_sets``,
    whose one ``self_terms`` call solves every self term with its
    gradient, and every distinct (anchor, other) comparison is solved
    once, in one ``cross_terms`` call with plans while their gradients
    fit in GRAD_ELEMENTS floats (else one call per run of entries that
    fits), then debiased by ``divergence_grad``. A score is the negated
    debiased divergence, and gradients
    flow through the converged transport plans (envelope theorem) and
    the row-normalization Jacobian. For each entry, the anchor's
    gradient is added first, then each other matrix's in order.

    Returns (per-entry losses, [gradient for each matrix in mats]).
    """
    mats = [np.asarray(M, dtype=np.float64) for M in mats]
    _check_inputs(mats, rows)
    if cfg.patch_metric == "COSINE_MEANPOOL":
        losses, dV = cosine_losses(np.stack([M.mean(axis=0) for M in mats]), rows, cfg)
        return losses, [np.full(M.shape, g / len(M)) for g, M in zip(dV, mats)]

    sets = patch_sets(mats, sink_cfg, grad=True)
    grads = [np.zeros_like(p.unit) for p in sets]
    losses = np.zeros(len(rows))
    for run in _entry_runs(rows, sets):
        keys = list(dict.fromkeys((rows[e][0], j) for e in run for j in rows[e][1]))
        solved = _divergences(
            [(sets[a].unit, sets[j].unit, sets[a].self_ot, sets[j].self_ot) for a, j in keys],
            sink_cfg,
            grad=True,
        )
        # (value, dA, dB, converged) of each comparison; a score is -value
        comparison = dict(zip(keys, solved))
        for e in run:
            a, others = rows[e]
            A = sets[a]
            comps = [comparison[a, j] for j in others]
            losses[e], weights = _OBJECTIVE[cfg.objective](-np.array([c[0] for c in comps]), cfg)
            G_anchor_hat = sum(w * -c[1] for w, c in zip(weights, comps))
            grads[a] += _backprop_row_normalization(G_anchor_hat, A.unit, A.norms)
            for w, j, c in zip(weights, others, comps):
                grads[j] += _backprop_row_normalization(w * -c[2], sets[j].unit, sets[j].norms)
    return losses, grads


def _entry_runs(rows, sets):
    """Consecutive runs of entry indices whose comparisons' position
    gradients hold at most GRAD_ELEMENTS floats; an entry over that
    bound is a run of its own."""
    run, size = [], 0
    for e, (a, others) in enumerate(rows):
        n = sum(sets[a].unit.size + sets[j].unit.size for j in others)
        if run and size + n > GRAD_ELEMENTS:
            yield run
            run, size = [], 0
        run.append(e)
        size += n
    if run:
        yield run


def total_loss(cls_part: float, patch_part: float, cfg: LossConfig) -> float:
    """Joint objective: cls_part + lambda * patch_part."""
    if not np.isfinite(cls_part) or not np.isfinite(patch_part):
        raise InvalidInput("loss parts must be finite")
    return float(cls_part + cfg.lam * patch_part)
