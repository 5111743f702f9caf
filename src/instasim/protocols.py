"""Evaluation protocols: retrieval, verification, triplet and rating
correlation, reported as deterministic canonical JSON.

One engine, ``score_pairs``, scores bundle item pairs: CLS bundles use
cosine, PATCH bundles the negated transport divergence on
L2-normalized rows. Distance is 1 - similarity either way. Every
protocol, the sensitivity analysis, the trainer's validation accuracy
and the one-pair ``similarity`` go through it, so no two reports can
score a pair differently.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .bundle import EmbeddingBundle
from .errors import DuplicateId, FormatError, InvalidInput, UndefinedMetric
from .metrics import (
    average_precision,
    kendall_tau_b,
    ndcg_score,
    roc_auc,
    spearman_rho,
    triplet_correct,
)
from .records import PairLabel, require_str
from .reporting import iter_jsonl, report_envelope
from .sinkhorn import PatchSet, SinkhornConfig, patch_set, sinkhorn_divergence

PROTOCOLS = ("RETRIEVAL", "VERIFICATION", "TRIPLET", "CORRELATION")
TRIPLET_MODES = ("EASY", "HARD")


class SimilarityResult(NamedTuple):
    similarity: float
    distance: float


def similarity(
    x_id: str,
    y_id: str,
    bundle: EmbeddingBundle,
    sink_cfg: SinkhornConfig | None = None,
) -> SimilarityResult:
    """Pairwise similarity and distance D = 1 - similarity.

    CLS bundles: cosine, in [-1, 1]. PATCH bundles: negated debiased
    divergence on row-normalized token matrices (0 for identical sets,
    negative otherwise).
    """
    sim = float(score_pairs(bundle, [(x_id, y_id)], sink_cfg)[0])
    return SimilarityResult(similarity=sim, distance=1.0 - sim)


# pairs per vectorized block in the CLS branch of ``score_pairs``; bounds
# its two gathered (block, dim) float64 temporaries
CLS_PAIR_BLOCK = 1024


def score_pairs(
    bundle: EmbeddingBundle,
    pairs,
    sink_cfg: SinkhornConfig | None = None,
) -> np.ndarray:
    """Similarity of every (x_id, y_id) pair, in input order.

    Scores equal a one-pair computation bit for bit. CLS: each distinct
    item is stacked once as a float64 row of ``U`` with norm
    ``sqrt(vecdot(U, U))``, and the pairs are scored in blocks of
    ``CLS_PAIR_BLOCK`` as ``vecdot(U[x], U[y]) / (n[x] * n[y])``.
    ``np.vecdot`` runs one ``ddot`` per row, the kernel of ``u @ v``
    and of ``np.linalg.norm(u)``, so every score equals
    ``metrics.cosine_similarity`` and equal embeddings under two ids
    stay an exact tie; ``np.linalg.norm(U, axis=1)`` sums in another
    order and would move last bits. PATCH: each item is prepared once
    by ``patch_set`` (unit rows and, when debiased, its self term
    OT(X, X)) and each distinct ordered pair is compared once, as
    0.0 - ``sinkhorn_divergence`` on the unit rows, so that identical
    sets score +0.0, not -0.0; OT(A, B) and OT(B, A) differ in the last
    bits, so (x, y) and (y, x) are not merged. The caches live for this
    call only.
    """
    if bundle.token_kind == "CLS":
        return _score_cls_pairs(bundle, pairs)
    cfg = sink_cfg if sink_cfg is not None else SinkhornConfig()
    items: dict[str, PatchSet] = {}
    memo: dict[tuple[str, str], float] = {}
    out = np.empty(len(pairs))
    for k, (x_id, y_id) in enumerate(pairs):
        key = (x_id, y_id)
        if key not in memo:
            for item_id in key:
                if item_id not in items:
                    items[item_id] = patch_set(bundle.get(item_id), cfg)
            a, b = items[x_id], items[y_id]
            memo[key] = 0.0 - sinkhorn_divergence(a.unit, b.unit, cfg, a.self_ot, b.self_ot).value
        out[k] = memo[key]
    return out


def _score_cls_pairs(bundle: EmbeddingBundle, pairs) -> np.ndarray:
    row: dict[str, int] = {}
    xy = np.array(
        [row.setdefault(item_id, len(row)) for pair in pairs for item_id in pair], dtype=np.intp
    ).reshape(-1, 2)
    out = np.empty(len(xy))
    if not row:
        return out
    rows = [np.asarray(bundle.get(item_id), dtype=np.float64).ravel() for item_id in row]
    if len({u.shape for u in rows}) > 1:
        raise InvalidInput("vector shapes differ within the bundle")
    U = np.stack(rows)
    norms = np.sqrt(np.vecdot(U, U))
    if np.any(norms == 0.0):
        raise InvalidInput("zero-norm vector in cosine similarity")
    for lo in range(0, len(xy), CLS_PAIR_BLOCK):
        x, y = xy[lo : lo + CLS_PAIR_BLOCK].T
        out[lo : lo + CLS_PAIR_BLOCK] = np.vecdot(U[x], U[y]) / (norms[x] * norms[y])
    return out


# ---------------------------------------------------------------------------
# task containers


@dataclass
class RetrievalTask:
    queries: list[str]
    gallery: list[str]
    relevance: dict[str, set[str]]

    def validate(self) -> None:
        if not self.queries or not self.gallery:
            raise InvalidInput("retrieval task needs queries and a gallery")
        if len(set(self.queries)) != len(self.queries):
            raise DuplicateId("duplicate query ids")
        if len(set(self.gallery)) != len(self.gallery):
            raise DuplicateId("duplicate gallery ids")
        gallery = set(self.gallery)
        for q in self.queries:
            rel = self.relevance.get(q, set())
            if not rel:
                raise InvalidInput(f"query {q!r} has no relevant gallery items")
            if not rel <= gallery:
                raise InvalidInput(f"query {q!r} lists relevant ids outside the gallery")


@dataclass
class TripletTask:
    triplets: list[tuple[str, str, str, str]] = field(default_factory=list)  # (a, p, n, mode)

    def validate(self) -> None:
        if not self.triplets:
            raise InvalidInput("triplet task is empty")
        for a, p, n, mode in self.triplets:
            if mode not in TRIPLET_MODES:
                raise InvalidInput(f"unknown triplet mode {mode!r}")


def load_retrieval_task(path) -> RetrievalTask:
    """Task JSONL: one {"gallery": [...]} line plus one
    {"query": id, "relevant": [...]} line per query."""
    gallery: list[str] | None = None
    queries: list[str] = []
    relevance: dict[str, set[str]] = {}
    for lineno, obj in iter_jsonl(path):
        if "gallery" in obj:
            if gallery is not None:
                raise FormatError(f"{path}:{lineno}: repeated gallery record")
            gallery = _str_list(obj["gallery"], path, lineno, "gallery")
        elif "query" in obj:
            q = require_str(obj, "query", path, lineno)
            if q in relevance:
                raise DuplicateId(f"{path}:{lineno}: duplicate query {q!r}")
            queries.append(q)
            relevance[q] = set(_str_list(obj.get("relevant"), path, lineno, "relevant"))
        else:
            raise FormatError(f"{path}:{lineno}: expected a gallery or query record")
    if gallery is None:
        raise FormatError(f"{path}: missing gallery record")
    task = RetrievalTask(queries=queries, gallery=gallery, relevance=relevance)
    task.validate()
    return task


def load_triplet_task(path) -> TripletTask:
    """Task JSONL: {"anchor", "positive", "negative", "mode"} per line."""
    rows = []
    for lineno, obj in iter_jsonl(path):
        row = tuple(
            require_str(obj, key, path, lineno) for key in ("anchor", "positive", "negative", "mode")
        )
        if row[3] not in TRIPLET_MODES:
            raise FormatError(f"{path}:{lineno}: unknown mode {row[3]!r}")
        rows.append(row)
    task = TripletTask(triplets=rows)
    task.validate()
    return task


def _str_list(val, path, lineno, name) -> list[str]:
    if not isinstance(val, list) or not val or not all(isinstance(x, str) for x in val):
        raise FormatError(f"{path}:{lineno}: {name} must be a non-empty string array")
    return val


# ---------------------------------------------------------------------------
# protocol drivers


def _retrieval_per_query(task: RetrievalTask, bundle, sink_cfg) -> dict[str, dict]:
    task.validate()
    queries = sorted(task.queries)
    gallery = sorted(task.gallery)
    tie_key = np.array(gallery)
    scores = score_pairs(bundle, [(q, g) for q in queries for g in gallery], sink_cfg)
    out: dict[str, dict] = {}
    for query, row in zip(queries, scores.reshape(len(queries), len(gallery))):
        labels = np.array([1 if g in task.relevance[query] else 0 for g in gallery])
        try:
            auc = roc_auc(row, labels)
        except UndefinedMetric:
            auc = None
        out[query] = {
            "ap": average_precision(row, labels, tie_key=tie_key),
            "ndcg": ndcg_score(row, labels, tie_key=tie_key),
            "auc": auc,
        }
    return out


def triplet_accuracy(task: TripletTask, bundle, sink_cfg=None) -> dict[str, float]:
    """Accuracy per mode (strict ties-incorrect comparison)."""
    task.validate()
    pairs = [pair for a, p, n, _ in task.triplets for pair in ((a, p), (a, n))]
    sims = score_pairs(bundle, pairs, sink_cfg).reshape(-1, 2)
    correct: dict[str, int] = {}
    totals: dict[str, int] = {}
    for (_, _, _, mode), (sim_p, sim_n) in zip(task.triplets, sims):
        totals[mode] = totals.get(mode, 0) + 1
        correct[mode] = correct.get(mode, 0) + (1 if triplet_correct(sim_p, sim_n) else 0)
    return {mode: correct[mode] / totals[mode] for mode in sorted(totals)}


def _verification_rows(pairs: list[PairLabel], bundle, sink_cfg, binary: bool):
    rows = sorted(pairs, key=lambda p: (p.ref_id, p.cand_id))
    if not rows:
        raise InvalidInput("no labeled pairs")
    scores = score_pairs(bundle, [(p.ref_id, p.cand_id) for p in rows], sink_cfg)
    labels = np.array([p.label for p in rows])
    if binary and not np.all(np.isin(labels, (0.0, 1.0))):
        raise InvalidInput("verification labels must be binary 0/1")
    return rows, scores, labels


def run_protocol(
    protocol: str,
    bundle: EmbeddingBundle,
    task: RetrievalTask | TripletTask | None = None,
    pairs: list[PairLabel] | None = None,
    seed: int = 0,
    sink_cfg: SinkhornConfig | None = None,
) -> dict:
    """Run one evaluation protocol and assemble the EvalReport dict.

    The report is a plain dict meant for canonical JSON serialization:
    byte-identical across reruns on the same inputs and independent of
    input record order.
    """
    if protocol not in PROTOCOLS:
        raise InvalidInput(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    metrics: dict = {}
    detail: dict = {}

    if protocol == "RETRIEVAL":
        if not isinstance(task, RetrievalTask):
            raise InvalidInput("RETRIEVAL needs a RetrievalTask")
        per_query = _retrieval_per_query(task, bundle, sink_cfg)
        aucs = [d["auc"] for d in per_query.values() if d["auc"] is not None]
        metrics = {
            "map": float(np.mean([d["ap"] for d in per_query.values()])),
            "mean_ndcg": float(np.mean([d["ndcg"] for d in per_query.values()])),
            "mean_auc": float(np.mean(aucs)) if aucs else None,
            "n_queries": len(per_query),
            "n_auc_undefined": sum(1 for d in per_query.values() if d["auc"] is None),
        }
        detail = {"per_query": per_query}
    elif protocol == "VERIFICATION":
        if pairs is None:
            raise InvalidInput("VERIFICATION needs labeled pairs")
        rows, scores, labels = _verification_rows(pairs, bundle, sink_cfg, binary=True)
        metrics = {
            "ap": average_precision(scores, labels.astype(int)),
            "auc": roc_auc(scores, labels.astype(int)),
        }
        detail = {
            "pairs": [
                {
                    "ref_id": p.ref_id,
                    "cand_id": p.cand_id,
                    "label": int(p.label),
                    "score": float(s),
                }
                for p, s in zip(rows, scores)
            ]
        }
    elif protocol == "TRIPLET":
        if not isinstance(task, TripletTask):
            raise InvalidInput("TRIPLET needs a TripletTask")
        per_mode = triplet_accuracy(task, bundle, sink_cfg)
        mode_counts: dict[str, int] = {}
        for _, _, _, mode in task.triplets:
            mode_counts[mode] = mode_counts.get(mode, 0) + 1
        overall_correct = sum(per_mode[m] * mode_counts[m] for m in per_mode)
        metrics = {
            "accuracy": {m: float(per_mode[m]) for m in per_mode},
            "overall_accuracy": float(overall_correct / len(task.triplets)),
            "n_triplets": len(task.triplets),
        }
        detail = {"per_mode_counts": mode_counts}
    else:  # CORRELATION
        if pairs is None:
            raise InvalidInput("CORRELATION needs labeled pairs")
        rows, scores, labels = _verification_rows(pairs, bundle, sink_cfg, binary=False)
        metrics = {
            "spearman": spearman_rho(scores, labels),
            "kendall_tau_b": kendall_tau_b(scores, labels),
            "n_pairs": len(rows),
        }
        detail = {
            "pairs": [
                {
                    "ref_id": p.ref_id,
                    "cand_id": p.cand_id,
                    "label": float(p.label),
                    "score": float(s),
                }
                for p, s in zip(rows, scores)
            ]
        }

    params = {
        "protocol": protocol,
        "seed": int(seed),
        "token_kind": bundle.token_kind,
        "sinkhorn": asdict(sink_cfg if sink_cfg is not None else SinkhornConfig()),
    }
    return {
        **report_envelope(seed, params),
        "protocol": protocol,
        "metrics": metrics,
        "detail": detail,
    }
