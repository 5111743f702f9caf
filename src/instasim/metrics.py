"""Rank-based evaluation metrics, hand-computed.

Tie policy, fixed across the suite: AP and nDCG break ranking ties by
ascending item id (or input position when no ids exist); ROC-AUC gives
ties half credit (Mann-Whitney); triplet comparisons count exact ties
as incorrect; Spearman uses average ranks; Kendall is the tau-b tie
corrected variant. Every function raises UndefinedMetric where the
quantity has no mathematical value, rather than returning 0, and
InvalidInput on a NaN or infinite score.

Kendall's tau-b counts its pairs by Knight's method (W. R. Knight, "A
Computer Method for Calculating Kendall's Tau with Ungrouped Data",
JASA 1966): one sort by (x, y), the joint ties from its runs, and the
discordant pairs as the inversions of y, counted by a bottom-up merge
with one searchsorted per level. O(n log n) time and O(n) memory, with
the bits of the O(n^2) pair count.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInput, UndefinedMetric


def cosine_similarity(u, v) -> float:
    """Cosine of two vectors; the similarity both heads are scored with."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise InvalidInput(f"vector shapes differ: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InvalidInput("zero-norm vector in cosine similarity")
    return float(u @ v / (nu * nv))


def triplet_correct(sim_pos: float, sim_neg: float) -> bool:
    """Strict comparison; an exact tie counts as incorrect."""
    return sim_pos > sim_neg


def _ranked_order(scores: np.ndarray, tie_key) -> np.ndarray:
    """Indices sorting by descending score, ties by ascending tie_key."""
    if tie_key is None:
        tie_key = np.arange(scores.size)
    else:
        tie_key = np.asarray(tie_key)
    # lexsort's last key is primary
    return np.lexsort((tie_key, -scores))


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.size != labels.size:
        raise InvalidInput("scores and labels must have equal length")
    if scores.size == 0:
        raise InvalidInput("empty input")
    if not np.all(np.isfinite(scores)):
        raise InvalidInput("scores must be finite")
    if not np.all(np.isin(labels, (0, 1))):
        raise InvalidInput("labels must be binary 0/1")
    return scores, labels.astype(np.int64)


def average_precision(scores, labels, tie_key=None) -> float:
    """Mean of precision at each positive's rank, descending-score order."""
    scores, labels = _check_scores_labels(scores, labels)
    if labels.sum() == 0:
        raise UndefinedMetric("average precision needs at least one positive")
    return _average_precision(labels[_ranked_order(scores, tie_key)])


def _average_precision(ranked: np.ndarray) -> float:
    """AP of int64 0/1 labels in rank order, at least one of them 1."""
    hits = np.cumsum(ranked)
    ranks = np.arange(1, ranked.size + 1)
    precisions = hits[ranked == 1] / ranks[ranked == 1]
    return float(precisions.mean())


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 P(equal)."""
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise UndefinedMetric("ROC-AUC needs both classes")
    return _roc_auc(scores, labels, n_pos, np.argsort(scores, kind="stable"))


def _roc_auc(scores: np.ndarray, labels: np.ndarray, n_pos: int, ascending: np.ndarray) -> float:
    """AUC of finite scores and int64 0/1 labels with both classes;
    ``n_pos`` counts the 1s and ``ascending`` sorts the scores."""
    n_neg = labels.size - n_pos
    ranks = _mid_ranks(scores, ascending)
    rank_sum_pos = ranks[labels == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def ndcg_from_ranking(labels_in_rank_order) -> float:
    """Binary-gain nDCG with 1/log2(rank+1) discounts over a full ranking."""
    ranked = np.asarray(labels_in_rank_order).ravel()
    if ranked.size == 0:
        raise InvalidInput("empty ranking")
    if not np.all(np.isin(ranked, (0, 1))):
        raise InvalidInput("relevance must be binary 0/1")
    n_pos = int(ranked.sum())
    if n_pos == 0:
        raise UndefinedMetric("nDCG needs at least one relevant item")
    return _ndcg(ranked, n_pos)


def _ndcg(ranked: np.ndarray, n_pos: int) -> float:
    """nDCG of 0/1 labels in rank order; ``n_pos`` (>= 1) counts the 1s."""
    discounts = 1.0 / np.log2(np.arange(2, ranked.size + 2))
    dcg = float((ranked * discounts).sum())
    idcg = float(discounts[:n_pos].sum())
    return dcg / idcg


def ndcg_score(scores, labels, tie_key=None) -> float:
    scores, labels = _check_scores_labels(scores, labels)
    return ndcg_from_ranking(labels[_ranked_order(scores, tie_key)])


def rank_average(x) -> np.ndarray:
    """1-based average (mid) ranks, ties sharing their mean rank."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return _mid_ranks(x, np.argsort(x, kind="stable"))


def _mid_ranks(x: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``rank_average`` of ``x`` from any order that sorts it ascending:
    every run of equal values gets one rank, however the run is
    ordered."""
    xs = x[order]
    # sorted positions start..end (0-based, inclusive) hold one run of equal values
    start = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    end = np.append(start[1:], x.size) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((start + end) / 2.0 + 1.0, end - start + 1)
    return ranks


def _check_paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as flat float64 arrays of one length, at least 2,
    with every value finite."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise InvalidInput("length mismatch")
    if x.size < 2:
        raise InvalidInput("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInput("correlation inputs must be finite")
    return x, y


def spearman_rho(x, y) -> float:
    """Spearman correlation: Pearson on average ranks."""
    x, y = _check_paired(x, y)
    rx = rank_average(x)
    ry = rank_average(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = np.sqrt((dx * dx).sum())
    sy = np.sqrt((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        raise UndefinedMetric("zero variance in ranks")
    return float((dx * dy).sum() / (sx * sy))


def kendall_tau_b(x, y) -> float:
    """Kendall tau-b with tie correction, by Knight's method (W. R.
    Knight, "A Computer Method for Calculating Kendall's Tau with
    Ungrouped Data", JASA 1966).

    Sorted by x and then y, a pair is discordant exactly when its y
    values are strictly inverted: a pair tied on x is in ascending y
    order. So with n0 pairs, n1 tied on x, n2 tied on y and n3 tied on
    both, concordant minus discordant is n0 - n1 - n2 + n3 - 2 * swaps,
    where swaps counts the strict inversions of y in that order. It is
    an exact integer, as the sum of pair signs was, so the result has
    the bits of the pair-by-pair count. O(n log n) time, O(n) memory.
    """
    x, y = _check_paired(x, y)
    n = x.size
    n0 = n * (n - 1) / 2.0
    n1 = _tie_pair_count(x)
    n2 = _tie_pair_count(y)
    denom = np.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        raise UndefinedMetric("zero variance on one side")
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    del order
    # sorted positions start..end-1 hold one run tied on both x and y
    start = np.flatnonzero(np.concatenate(([True], (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]))))
    runs = np.diff(np.append(start, n))
    n3 = int((runs * (runs - 1) // 2).sum())
    del xs, start, runs
    swaps = _strict_inversions(np.unique(ys, return_inverse=True)[1].astype(np.int64, copy=False))
    # every count is an exact integer below 2**53, so int() loses nothing
    concordant_minus_discordant = int(n0) - int(n1) - int(n2) + n3 - 2 * swaps
    return float(concordant_minus_discordant) / float(denom)


def _strict_inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for int64 ranks in [0, r.size).

    A bottom-up merge sort. At width w the array is sorted within
    blocks of w; blocks 2p and 2p + 1 form pair p. Offsetting each rank
    by p * (n + 1) sorts all left blocks as one array, so one
    searchsorted counts, for every right-block rank, the left-block
    ranks above it in its own pair. A stable sort of the offset keys
    then merges each pair's two sorted runs.
    """
    n = r.size
    stride = n + 1
    idx = np.arange(n, dtype=np.int64)
    swaps = 0
    level = 0
    while (1 << level) < n:
        w = 1 << level
        pair = idx >> (level + 1)
        keys = pair * stride + r
        right = (idx & w) != 0
        # pair p's left block is keys[~right][p * w : (p + 1) * w]: every
        # left block with a right block beside it is full
        above = (pair[right] + 1) * w - np.searchsorted(keys[~right], keys[right], side="right")
        swaps += int(above.sum())
        keys.sort(kind="stable")
        r = keys - pair * stride
        level += 1
    return swaps


def _tie_pair_count(x) -> float:
    _, counts = np.unique(x, return_counts=True)
    return float((counts * (counts - 1) / 2.0).sum())
