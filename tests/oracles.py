"""Independent brute-force oracles used across the test suite.

Everything here is deliberately slow and simple: permutation
enumeration, O(n^2) pair counting, dense LP solves. The library must
agree with these within stated tolerances; the oracles never import
library internals beyond public entry points under test.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog


def exact_ot_cost(X: np.ndarray, Y: np.ndarray) -> float:
    """Unregularized OT cost between uniform point clouds, cost 0.5*||x-y||^2.

    For equal sizes the optimum is a permutation (Birkhoff), found by
    enumeration; otherwise the transport LP is solved exactly with HiGHS.
    Only intended for tiny inputs (<= 7 points a side).
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n, m = X.shape[0], Y.shape[0]
    C = 0.5 * ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=-1)
    if n == m:
        best = np.inf
        for perm in itertools.permutations(range(n)):
            cost = C[np.arange(n), perm].mean()
            if cost < best:
                best = cost
        return float(best)
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    res = linprog(
        C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs"
    )
    assert res.status == 0, f"LP solver failed: {res.message}"
    return float(res.fun)


def _half_sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """C_ij = 0.5 * ||X_i - Y_j||^2, clipped at zero against rounding."""
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    return 0.5 * np.maximum(sq, 0.0)


def _lse(M: np.ndarray, axis: int) -> np.ndarray:
    mx = M.max(axis=axis, keepdims=True)
    out = mx + np.log(np.exp(M - mx).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def ot_entropic_alternating(X: np.ndarray, Y: np.ndarray, cfg):
    """Log-domain Sinkhorn for uniform marginals (the library's earlier
    solver for every term, self terms included: three log-sum-exp passes
    per iteration, the third only for the stopping test).

    Returns (value, plan, converged, iterations). The value is the dual
    objective <a, f> + <b, g>, evaluated right after a column update so
    the plan's column marginals are exact; convergence is declared when
    the worst row-marginal violation drops to cfg.tol.
    """
    n, m = X.shape[0], Y.shape[0]
    eps = cfg.epsilon
    C = _half_sqdist(X, Y)
    log_a = np.full(n, -np.log(n))
    log_b = np.full(m, -np.log(m))
    a = np.exp(log_a)
    b = np.exp(log_b)

    f = np.zeros(n)
    g = np.zeros(m)
    converged = False
    iterations = 0
    log_T = log_a[:, None] + log_b[None, :] - C / eps
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        f = -eps * _lse(log_b[None, :] + (g[None, :] - C) / eps, axis=1)
        g = -eps * _lse(log_a[:, None] + (f[:, None] - C) / eps, axis=0)
        log_T = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - C) / eps
        row_err = np.abs(np.exp(_lse(log_T, axis=1)) - a).max()
        if row_err <= cfg.tol:
            converged = True
            break
    value = float(a @ f + b @ g)
    return value, np.exp(log_T), converged, iterations


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for k in range(xf.size):
        orig = xf[k]
        xf[k] = orig + h
        fp = f(x)
        xf[k] = orig - h
        fm = f(x)
        xf[k] = orig
        flat[k] = (fp - fm) / (2.0 * h)
    return g


def one_entry(batched, mats, *args):
    """One anchor-first entry through a batched loss (``cosine_losses``
    with stacked vectors, ``patch_losses`` with a list of matrices).
    Returns (loss, grad_anchor, grad_positive, grad_negatives)."""
    losses, grads = batched(mats, [(0, list(range(1, len(mats))))], *args)
    return float(losses[0]), grads[0], grads[1], grads[2:]


def rel_err(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-8) -> float:
    """Max relative error with an absolute floor so zeros do not blow up."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if approx.size == 0:
        return 0.0
    denom = np.maximum(np.abs(exact), floor)
    return float(np.max(np.abs(approx - exact) / denom))


def ap_oracle(scores, labels, tie_key) -> float:
    """Average precision by literal rank walking on the sorted order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], tie_key[i]))
    hits = 0
    precisions = []
    for rank, i in enumerate(order, start=1):
        if labels[i] > 0:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def auc_oracle(scores, labels) -> float:
    """Mann-Whitney AUC by O(n^2) pair counting with half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l > 0]
    neg = [s for s, l in zip(scores, labels) if l <= 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ndcg_oracle(scores, labels, tie_key) -> float:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], tie_key[i]))
    dcg = sum(labels[i] / np.log2(rank + 1) for rank, i in enumerate(order, start=1))
    ideal_order = sorted(labels, reverse=True)
    idcg = sum(rel / np.log2(rank + 1) for rank, rel in enumerate(ideal_order, start=1))
    return dcg / idcg


def midranks_oracle(values) -> list[float]:
    """1-based ranks with ties sharing the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman_oracle(x, y) -> float:
    rx = np.array(midranks_oracle(list(x)))
    ry = np.array(midranks_oracle(list(y)))
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def kendall_oracle(x, y) -> float:
    """Tau-b by explicit pair classification."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / np.sqrt((n0 - ties_x) * (n0 - ties_y))


def rank_average_loop(x) -> np.ndarray:
    """Mid-ranks by walking each run of ties in a Python loop (the
    library's earlier implementation of ``rank_average``)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def kendall_tau_b_dense(x, y) -> float:
    """Tau-b from two dense n x n sign matrices (the library's earlier
    implementation of ``kendall_tau_b``)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.size
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    concordant_minus_discordant = float((sx[iu] * sy[iu]).sum())
    n0 = n * (n - 1) / 2.0
    n1 = sum(c * (c - 1) / 2.0 for c in np.unique(x, return_counts=True)[1])
    n2 = sum(c * (c - 1) / 2.0 for c in np.unique(y, return_counts=True)[1])
    return concordant_minus_discordant / float(np.sqrt((n0 - n1) * (n0 - n2)))


def kendall_tau_b_rowwise(x, y) -> float:
    """Tau-b with concordant minus discordant counted one row at a time,
    O(n^2) (the library's earlier implementation of ``kendall_tau_b``)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.size
    concordant_minus_discordant = 0.0  # a sum of small integers, so exact
    for i in range(n - 1):
        signs = np.sign(x[i + 1 :] - x[i]) * np.sign(y[i + 1 :] - y[i])
        concordant_minus_discordant += float(signs.sum())

    def tie_pairs(v):
        counts = np.unique(v, return_counts=True)[1]
        return float((counts * (counts - 1) / 2.0).sum())

    n0 = n * (n - 1) / 2.0
    n1, n2 = tie_pairs(x), tie_pairs(y)
    return concordant_minus_discordant / float(np.sqrt((n0 - n1) * (n0 - n2)))


def zero_grads(head) -> dict[str, np.ndarray]:
    """Zero gradients for every parameter of ``head``, keyed as
    ``heads.head_params`` names them."""
    from instasim.heads import head_params

    return {name: np.zeros_like(arr) for name, arr in head_params(head).items()}


def adamw_step_allocating(
    head,
    grads: dict[str, np.ndarray],
    state,
    lr: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """AdamW as one expression per moment and per update, allocating
    fresh arrays; the in-place ``heads.adamw_step`` must match its bits."""
    from instasim.errors import InvalidInput
    from instasim.heads import head_params

    state.step += 1
    t = state.step
    params = head_params(head)
    for name, p in params.items():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        m_hat = state.m[name] / (1.0 - beta1**t)
        v_hat = state.v[name] / (1.0 - beta2**t)
        p -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)
        if not np.all(np.isfinite(p)):
            raise InvalidInput(f"parameter {name} became non-finite after step {t}")


def infonce_loss_split(s_pos, s_neg, cfg):
    """InfoNCE on a positive score and an array of negative scores,
    returning (loss, d_pos, d_neg): the form ``losses.infonce_loss`` had
    before it took one score row. The row form must match its bits."""
    z = np.concatenate(([s_pos - cfg.margin], s_neg)) / cfg.tau
    m = z.max()
    log_denom = m + np.log(np.exp(z - m).sum())
    loss = float(log_denom - z[0])
    p = np.exp(z - log_denom)
    d_pos = (p[0] - 1.0) / cfg.tau
    d_neg = p[1:] / cfg.tau
    return loss, float(d_pos), d_neg


def hinge_loss_split(s_pos, s_neg, cfg):
    """``losses.hinge_loss`` in the same (s_pos, s_neg) form."""
    gaps = cfg.margin - (s_pos - s_neg)
    active = gaps > 0
    loss = float(gaps[active].sum())
    d_pos = -float(active.sum())
    d_neg = active.astype(np.float64)
    return loss, d_pos, d_neg


def bce_loss_split(s_pos, s_neg, cfg):
    """``losses.bce_loss`` in the same (s_pos, s_neg) form, with the
    positive's sigmoid taken on a scalar."""

    def sigmoid(x):
        return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))

    loss = float(np.logaddexp(0.0, -s_pos) + np.logaddexp(0.0, s_neg).sum())
    d_pos = float(sigmoid(s_pos) - 1.0)
    d_neg = sigmoid(s_neg)
    return loss, d_pos, d_neg


OBJECTIVE_SPLIT = {"INFONCE": infonce_loss_split, "HINGE": hinge_loss_split, "BCE": bce_loss_split}


def _cosine_and_jacobians(a: np.ndarray, b: np.ndarray):
    """cos(a, b) plus its gradients w.r.t. a and b."""
    from instasim.errors import InvalidInput

    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise InvalidInput("zero-norm vector in cosine similarity")
    cos = float(a @ b / (na * nb))
    grad_a = b / (na * nb) - cos * a / (na * na)
    grad_b = a / (na * nb) - cos * b / (nb * nb)
    return cos, grad_a, grad_b


def cls_loss_per_negative(anchor: np.ndarray, positive: np.ndarray, negatives, cfg: LossConfig):
    """The global contrastive loss with one cosine and one pair of
    Jacobians per comparison (the trainer's earlier per-triplet CLS
    loss, before ``losses.cosine_losses`` scored a whole micro-batch).

    Returns (loss, grad_anchor, grad_positive, grad_negatives) where
    grad_negatives is an (N, D) array aligned with the input list.
    """
    from instasim.errors import InvalidInput, ShapeError

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

    loss, d_pos, d_neg = OBJECTIVE_SPLIT[cfg.objective](s_pos, np.array(neg_sims), cfg)

    grad_anchor = d_pos * ja_pos
    grad_positive = d_pos * jp
    grad_negatives = np.zeros((len(negatives), anchor.size))
    for i, (ja, jn) in enumerate(neg_jacs):
        grad_anchor = grad_anchor + d_neg[i] * ja
        grad_negatives[i] = d_neg[i] * jn
    return loss, grad_anchor, grad_positive, grad_negatives


def patch_loss_per_comparison(anchor_Z, pos_Z, neg_Zs, cfg, sink_cfg):
    """The InfoNCE Sinkhorn patch loss with one ``divergence_grad`` call
    per comparison, so every comparison solves both self terms again.
    Returns (loss, grad_anchor_Z, grad_pos_Z, [grad_neg_Z ...])."""
    from instasim.sinkhorn import divergence_grad

    def unit(M):
        norms = np.linalg.norm(M, axis=1, keepdims=True)
        return M / norms, norms

    def to_raw_rows(G, M_hat, norms):
        inner = (G * M_hat).sum(axis=1, keepdims=True)
        return (G - inner * M_hat) / norms

    A_hat, a_norms = unit(anchor_Z)
    sims, grads = [], []
    for M in [pos_Z, *neg_Zs]:
        M_hat, m_norms = unit(M)
        value, dA, dM, _ = divergence_grad(A_hat, M_hat, sink_cfg)
        sims.append(-value)
        grads.append((-dA, -dM, M_hat, m_norms))
    loss, d_pos, d_neg = infonce_loss_split(sims[0], np.array(sims[1:]), cfg)
    G_anchor = np.zeros_like(A_hat)
    out = []
    for w, (dA, dM, M_hat, m_norms) in zip(np.concatenate(([d_pos], d_neg)), grads):
        G_anchor += w * dA
        out.append(to_raw_rows(w * dM, M_hat, m_norms))
    return loss, to_raw_rows(G_anchor, A_hat, a_norms), out[0], out[1:]


def validation_accuracy_per_triplet(head, val, data) -> float:
    """Trainer validation accuracy one triplet at a time: project the
    anchor, positive and hard negative with the CLS head and compare
    their cosines strictly (the trainer's earlier implementation of
    ``_validation_accuracy``)."""
    from instasim.heads import mlp_forward
    from instasim.metrics import cosine_similarity, triplet_correct

    def project(image_id):
        return mlp_forward(head.cls_head, data.cls_bundle.rows([image_id])[0], head.activation)[0]

    correct = 0
    for t in val:
        a, p, n = (project(i) for i in (t.anchor, t.positive, t.hard_negative))
        if triplet_correct(cosine_similarity(a, p), cosine_similarity(a, n)):
            correct += 1
    return correct / len(val)


def micro_batch_pass_per_image(head, micro, data, inst_of, param_grads) -> float:
    """Forward+backward one micro-batch with one single-row
    ``mlp_forward`` and ``mlp_backward`` per head and distinct image (the
    trainer's earlier implementation of ``_micro_batch_pass``);
    accumulates parameter gradients in place and returns the summed
    per-triplet loss."""
    from instasim.heads import mlp_backward, mlp_forward
    from instasim.losses import patch_losses, total_loss
    from instasim.trainer import _batch_negative_ids

    cfg = data.cfg
    image_ids = sorted(
        {t.anchor for t in micro}
        | {t.positive for t in micro}
        | {n for t in micro for n in _batch_negative_ids(t, micro, inst_of)}
    )

    cls_out: dict[str, np.ndarray] = {}
    cls_cache: dict[str, tuple] = {}
    cls_out_grad: dict[str, np.ndarray] = {}
    patch_out: dict[str, np.ndarray] = {}
    patch_cache: dict[str, tuple] = {}
    patch_out_grad: dict[str, np.ndarray] = {}
    for image_id in image_ids:
        y, cache = mlp_forward(head.cls_head, data.cls_bundle.rows([image_id])[0], head.activation)
        cls_out[image_id] = y
        cls_cache[image_id] = cache
        cls_out_grad[image_id] = np.zeros_like(y)
        if data.use_patch:
            Z, zcache = mlp_forward(head.patch_head, data.patch_mat(image_id), head.activation)
            patch_out[image_id] = Z
            patch_cache[image_id] = zcache
            patch_out_grad[image_id] = np.zeros_like(Z)

    loss_sum = 0.0
    for t in micro:
        neg_ids = _batch_negative_ids(t, micro, inst_of)
        c_loss, g_a, g_p, g_ns = cls_loss_per_negative(
            cls_out[t.anchor], cls_out[t.positive], [cls_out[n] for n in neg_ids], cfg.loss
        )
        cls_out_grad[t.anchor] += g_a
        cls_out_grad[t.positive] += g_p
        for i, n in enumerate(neg_ids):
            cls_out_grad[n] += g_ns[i]

        p_loss = 0.0
        if data.use_patch:
            p_loss, gz_a, gz_p, gz_ns = one_entry(
                patch_losses,
                [patch_out[t.anchor], patch_out[t.positive], *[patch_out[n] for n in neg_ids]],
                cfg.loss,
                cfg.sinkhorn,
            )
            patch_out_grad[t.anchor] += cfg.loss.lam * gz_a
            patch_out_grad[t.positive] += cfg.loss.lam * gz_p
            for i, n in enumerate(neg_ids):
                patch_out_grad[n] += cfg.loss.lam * gz_ns[i]
        loss_sum += total_loss(c_loss, p_loss, cfg.loss)

    for image_id in image_ids:
        grads = mlp_backward(
            head.cls_head, cls_cache[image_id], cls_out_grad[image_id], head.activation
        )
        for pname, g in grads.items():
            param_grads[f"cls.{pname}"] += g
        if data.use_patch:
            grads = mlp_backward(
                head.patch_head, patch_cache[image_id], patch_out_grad[image_id], head.activation
            )
            for pname, g in grads.items():
                param_grads[f"patch.{pname}"] += g
    return loss_sum


def mine_hard_negatives_full_sort(query_bundle, pool_bundle, manifests, k=1):
    """Hard-negative mining with a full stable argsort over each query's
    eligible pool (the earlier implementation of
    ``curation.mine_hard_negatives``)."""
    from instasim.curation import manifest_index
    from instasim.errors import InvalidInput, MissingItem, NoCandidates

    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if query_bundle.dim != pool_bundle.dim:
        raise InvalidInput(
            f"bundle dims differ: {query_bundle.dim} vs {pool_bundle.dim}"
        )
    index = manifest_index(manifests)

    def instance_of(image_id: str) -> str:
        if image_id not in index:
            raise MissingItem(f"image {image_id!r} not in manifests")
        return index[image_id].instance_id

    pool_ids = sorted(pool_bundle.items)
    pool_mat = np.stack([pool_bundle.items[i].ravel() for i in pool_ids]).astype(np.float64)
    norms = np.linalg.norm(pool_mat, axis=1)
    if np.any(norms == 0.0):
        raise InvalidInput("zero-norm vector in pool bundle")
    pool_unit = pool_mat / norms[:, None]
    # instances as integer codes; a pool item with the query's own id
    # has the query's instance, so one code comparison excludes it too
    inst_code: dict[str, int] = {}
    pool_code = np.array([inst_code.setdefault(instance_of(i), len(inst_code)) for i in pool_ids])

    out: dict[str, list[str]] = {}
    for query_id in sorted(query_bundle.items):
        q = query_bundle.items[query_id].astype(np.float64).ravel()
        qn = np.linalg.norm(q)
        if qn == 0.0:
            raise InvalidInput(f"zero-norm query vector {query_id!r}")
        sims = pool_unit @ (q / qn)
        eligible = pool_code != inst_code.get(instance_of(query_id), -1)
        if not eligible.any():
            raise NoCandidates(f"no different-instance pool items for {query_id!r}")
        idx = np.flatnonzero(eligible)
        # pool_ids is sorted, so a stable sort on -sims keeps id order on ties
        order = idx[np.argsort(-sims[idx], kind="stable")]
        out[query_id] = [pool_ids[i] for i in order[:k]]
    return out


def apply_head_per_item(head, bundle):
    """Project a bundle with one ``mlp_forward`` call per item (the
    earlier implementation of ``heads.apply_head``)."""
    from instasim.bundle import EmbeddingBundle
    from instasim.errors import ShapeError
    from instasim.heads import mlp_forward

    mlp = head.cls_head if bundle.token_kind == "CLS" else head.patch_head
    if bundle.dim != head.in_dim:
        raise ShapeError(f"bundle dim {bundle.dim} does not match head input {head.in_dim}")
    items: dict[str, np.ndarray] = {}
    for image_id in sorted(bundle.items):
        Y, _ = mlp_forward(mlp, bundle.items[image_id].astype(np.float64), head.activation)
        items[image_id] = np.asarray(Y, dtype=np.float32).reshape(-1, head.out_dim)
    return EmbeddingBundle(token_kind=bundle.token_kind, dim=head.out_dim, items=items)


def iter_jsonl_per_line(path):
    """``reporting.iter_jsonl`` as a binary line reader with one
    ``json.loads`` per line (the earlier implementation)."""
    import json

    from instasim.errors import FormatError, IoError

    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise FormatError(f"{path}:{lineno}: expected a JSON object")
                yield lineno, obj
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
