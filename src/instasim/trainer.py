"""Training loop for the dual projection heads.

Frozen ingested embeddings are the constants; the only trainable
parameters are the two MLPs. Each optimizer step consumes
batch_size * grad_accum triplets (grad_accum micro-batches), averages
the per-triplet gradient over the whole chunk, and applies one AdamW
update. Within a micro-batch every triplet sees its own hard negative
plus the positives of the other triplets whose instance differs
(in-batch negatives); the loss functions themselves stay agnostic to
where negatives came from. Each head used runs one forward pass, one
loss call and one backward pass per micro-batch, over the stacked rows
of its distinct images: ``losses.cosine_losses`` scores all triplets
from one normalized k x k matrix over the k distinct CLS rows, and
``losses.patch_losses`` compares their token matrices. At lambda = 0
only the CLS head is used.

Everything is sequential and seed-derived: file order of the triplet
list never matters because triplets are canonically sorted before the
per-epoch shuffle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import EmbeddingBundle
from .errors import InvalidInput, MissingItem
from .heads import (
    ACTIVATIONS,
    AdamWState,
    DualHead,
    adamw_init,
    adamw_step,
    clone_head,
    head_params,
    init_dual_head,
    mlp_backward,
    mlp_forward,
)
from .losses import LossConfig, cosine_losses, patch_losses, total_loss
from .metrics import triplet_correct
from .protocols import score_pairs
from .records import ImageManifest, Triplet, _is_count, manifest_index, validate_triplets
from .rng import derived_rng
from .sinkhorn import SinkhornConfig, subsample_tokens

@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    weight_decay: float = 0.0
    batch_size: int = 8
    grad_accum: int = 4
    epochs: int = 3
    seed: int = 0
    hidden_dim: int = 512
    activation: str = "gelu"
    loss: LossConfig = LossConfig()
    sinkhorn: SinkhornConfig = SinkhornConfig()

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in (self.lr, self.weight_decay)):
            raise InvalidInput("lr and weight_decay must be finite and non-negative")
        if not (_is_count(self.batch_size, 1) and _is_count(self.grad_accum, 1)):
            raise InvalidInput("batch_size and grad_accum must be >= 1")
        if not _is_count(self.epochs, 0):
            raise InvalidInput("epochs must be >= 0")
        if not _is_count(self.hidden_dim, 1):
            raise InvalidInput("hidden_dim must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise InvalidInput(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


@dataclass
class TrainResult:
    final_head: DualHead
    best_head: DualHead
    best_epoch: int
    history: list[dict]


class _TrainData:
    """Per-image access to the frozen embeddings a run trains on."""

    def __init__(
        self, cls_bundle: EmbeddingBundle, patch_bundle: EmbeddingBundle | None, cfg: TrainConfig
    ):
        if cls_bundle.token_kind != "CLS":
            raise InvalidInput("training expects a CLS-kind bundle for global vectors")
        if cfg.loss.lam > 0 and patch_bundle is None:
            raise InvalidInput("lambda > 0 requires a patch bundle")
        if patch_bundle is not None and patch_bundle.token_kind != "PATCH":
            raise InvalidInput("patch bundle must be PATCH kind")
        self.cls_bundle = cls_bundle
        self.patch_bundle = patch_bundle
        self.cfg = cfg
        self.use_patch = cfg.loss.lam > 0
        self._patch_cache: dict[str, np.ndarray] = {}

    def require(self, image_id: str) -> None:
        if image_id not in self.cls_bundle.index:
            raise MissingItem(f"image {image_id!r} missing from CLS bundle")
        if self.use_patch and image_id not in self.patch_bundle.index:
            raise MissingItem(f"image {image_id!r} missing from patch bundle")

    def cls_vec(self, image_id: str) -> np.ndarray:
        return self.cls_bundle.rows([image_id])[0]

    def patch_mat(self, image_id: str) -> np.ndarray:
        if image_id not in self._patch_cache:
            Z = self.patch_bundle.get(image_id).astype(np.float64)
            Z = subsample_tokens(
                Z, self.cfg.sinkhorn.max_tokens, derived_rng(self.cfg.seed, "tokens", image_id).integers(2**31)
            )
            self._patch_cache[image_id] = Z
        return self._patch_cache[image_id]


def _batch_negative_ids(t: Triplet, micro: list[Triplet], inst_of: dict[str, str]) -> list[str]:
    """The triplet's hard negative plus other same-micro-batch positives
    from different instances. Duplicates are kept."""
    negs = [t.hard_negative]
    for u in micro:
        if u is t:
            continue
        if inst_of[u.anchor] != inst_of[t.anchor]:
            negs.append(u.positive)
    return negs


def _micro_batch_pass(
    head: DualHead,
    micro: list[Triplet],
    data: _TrainData,
    inst_of: dict[str, str],
    param_grads: dict[str, np.ndarray],
) -> float:
    """Forward+backward one micro-batch; accumulates parameter gradients
    in place and returns the summed per-triplet loss.

    The distinct images are stacked in sorted id order: one row each for
    the CLS head, all token rows for the patch head, whose per-image
    outputs are views of those rows. Each head used makes one loss call
    over every triplet of the micro-batch."""
    cfg = data.cfg
    negs = [_batch_negative_ids(t, micro, inst_of) for t in micro]
    image_ids = sorted({i for t, n in zip(micro, negs) for i in (t.anchor, t.positive, *n)})
    row = {image_id: k for k, image_id in enumerate(image_ids)}
    rows = [(row[t.anchor], [row[i] for i in (t.positive, *n)]) for t, n in zip(micro, negs)]
    X = data.cls_bundle.rows(image_ids)
    Y, cls_cache = mlp_forward(head.cls_head, X, head.activation)
    c_losses, dY = cosine_losses(Y, rows, cfg.loss)
    passes = [("cls", head.cls_head, cls_cache, dY)]
    p_sum = 0.0
    if data.use_patch:
        mats = [data.patch_mat(i) for i in image_ids]
        Z, patch_cache = mlp_forward(head.patch_head, np.concatenate(mats), head.activation)
        Zs = np.split(Z, np.cumsum([len(M) for M in mats[:-1]]))
        p_losses, dZs = patch_losses(Zs, rows, cfg.loss, cfg.sinkhorn)
        p_sum = p_losses.sum()
        passes.append(("patch", head.patch_head, patch_cache, cfg.loss.lam * np.concatenate(dZs)))

    for name, mlp, cache, d_out in passes:
        _, grads = mlp_backward(mlp, cache, d_out, head.activation)
        for pname, g in grads.items():
            param_grads[f"{name}.{pname}"] += g
    return total_loss(c_losses.sum(), p_sum, cfg.loss)


def train_step(
    head: DualHead,
    opt_state: AdamWState,
    chunk: list[Triplet],
    data: _TrainData,
    inst_of: dict[str, str],
) -> float:
    """One optimizer step over up to batch_size * grad_accum triplets.

    Gradients are accumulated across micro-batches, averaged per
    triplet, then applied with AdamW. At lambda = 0 the unused patch
    head gets no gradient and is not stepped. Every setting comes from
    ``data.cfg``. Returns the mean triplet loss.
    """
    if not chunk:
        raise InvalidInput("empty triplet chunk")
    param_grads = {
        name: np.zeros_like(p)
        for name, p in head_params(head).items()
        if data.use_patch or name.startswith("cls.")
    }
    loss_sum = 0.0
    for start in range(0, len(chunk), data.cfg.batch_size):
        micro = chunk[start : start + data.cfg.batch_size]
        loss_sum += _micro_batch_pass(head, micro, data, inst_of, param_grads)
    n = len(chunk)
    for name in param_grads:
        param_grads[name] /= n
    adamw_step(head, param_grads, opt_state, data.cfg.lr, data.cfg.weight_decay)
    return loss_sum / n


def _validation_accuracy(head: DualHead, val: list[Triplet], data: _TrainData) -> float:
    """Share of triplets whose anchor scores strictly higher with the
    positive than with the hard negative. One forward pass projects
    every distinct image once; the float64 projections are scored by
    ``score_pairs`` (not through ``make_bundle``, whose float32 cast
    would move the scores)."""
    image_ids = sorted({i for t in val for i in (t.anchor, t.positive, t.hard_negative)})
    Y, _ = mlp_forward(head.cls_head, data.cls_bundle.rows(image_ids), head.activation)
    bundle = EmbeddingBundle.from_matrix("CLS", image_ids, Y)
    pairs = [pair for t in val for pair in ((t.anchor, t.positive), (t.anchor, t.hard_negative))]
    sims = score_pairs(bundle, pairs).reshape(-1, 2)
    correct = sum(1 for s_pos, s_neg in sims if triplet_correct(s_pos, s_neg))
    return correct / len(val)


def train(
    manifests: list[ImageManifest],
    cls_bundle: EmbeddingBundle,
    triplets: list[Triplet],
    cfg: TrainConfig,
    patch_bundle: EmbeddingBundle | None = None,
    initial_head: DualHead | None = None,
) -> TrainResult:
    """Full training run with per-epoch validation and best-checkpoint
    selection on validation triplet accuracy.

    Validation scores pairs with ``score_pairs`` and the strict
    comparison of the evaluation suite. An epoch is one pass over the
    training triplets; best checkpoint is the earliest epoch achieving
    the highest validation accuracy.
    """
    data = _TrainData(cls_bundle, patch_bundle, cfg)
    index = manifest_index(manifests)
    for t in triplets:
        for image_id in (t.anchor, t.positive, t.hard_negative):
            if image_id not in index:
                raise MissingItem(f"triplet references image {image_id!r} not in manifests")
            data.require(image_id)
    validate_triplets(triplets, index)
    inst_of = {image_id: rec.instance_id for image_id, rec in index.items()}

    if initial_head is None:
        head = init_dual_head(
            in_dim=cls_bundle.dim,
            hidden_dim=cfg.hidden_dim,
            activation=cfg.activation,
            seed=cfg.seed,
        )
    else:
        head = clone_head(initial_head)

    if cfg.epochs == 0:
        return TrainResult(final_head=head, best_head=clone_head(head), best_epoch=0, history=[])

    ordered = sorted(triplets, key=lambda t: (t.anchor, t.positive, t.hard_negative, t.hard_negative_kind))
    train_set = [t for t in ordered if index[t.anchor].split == "train"]
    val_set = [t for t in ordered if index[t.anchor].split == "val"]
    if not train_set:
        raise InvalidInput("train split has no triplets")
    if not val_set:
        raise InvalidInput("val split has no triplets")
    train_inst = {inst_of[t.anchor] for t in train_set}
    val_inst = {inst_of[t.anchor] for t in val_set}
    if train_inst & val_inst:
        raise InvalidInput(
            f"train/val splits share instances: {sorted(train_inst & val_inst)[:5]}"
        )

    opt_state = adamw_init(head)
    chunk_len = cfg.batch_size * cfg.grad_accum
    history: list[dict] = []
    best_head = clone_head(head)
    best_epoch = 0
    best_acc = -1.0
    for epoch in range(1, cfg.epochs + 1):
        perm = derived_rng(cfg.seed, "epoch", epoch).permutation(len(train_set))
        shuffled = [train_set[i] for i in perm]
        loss_total = 0.0
        for start in range(0, len(shuffled), chunk_len):
            chunk = shuffled[start : start + chunk_len]
            loss_total += train_step(head, opt_state, chunk, data, inst_of) * len(chunk)
        train_loss = loss_total / len(shuffled)
        val_acc = _validation_accuracy(head, val_set, data)
        history.append({"epoch": epoch, "train_loss": train_loss, "val_accuracy": val_acc})
        if val_acc > best_acc:
            best_acc = val_acc
            best_head = clone_head(head)
            best_epoch = epoch
    return TrainResult(final_head=head, best_head=best_head, best_epoch=best_epoch, history=history)
