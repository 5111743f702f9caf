"""Evaluation protocols: retrieval, verification, triplet and rating
correlation, reported as deterministic canonical JSON.

One engine, ``score_pairs``, scores bundle item pairs: CLS bundles use
cosine, PATCH bundles the negated transport divergence on
L2-normalized rows. Distance is 1 - similarity either way. Every
protocol, the sensitivity analysis, the trainer's validation accuracy
and ``instasim score`` go through it, except CLS retrieval.
That scores blocks of query rows against the whole gallery by the same
per-pair ``ddot``, with no pair list, and holds one block of scores
beside the stacked rows: ``CLS_PAIR_BLOCK`` scores, or one gallery row
when that is longer. Every score still equals the one-pair path bit for
bit, so no two reports can score a pair differently.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .bundle import EmbeddingBundle
from .errors import DuplicateId, FormatError, InvalidInput
from .metrics import (
    _average_precision,
    _ndcg,
    _ranked_order,
    _roc_auc,
    average_precision,
    kendall_tau_b,
    roc_auc,
    spearman_rho,
    triplet_correct,
)
from .records import PairLabel, _require_str
from .reporting import iter_jsonl, report_envelope
from .sinkhorn import SinkhornConfig, _divergences, patch_sets

PROTOCOLS = ("RETRIEVAL", "VERIFICATION", "TRIPLET", "CORRELATION")
TRIPLET_MODES = ("EASY", "HARD")


# pairs per vectorized block in the CLS branch of ``score_pairs``; bounds
# its two gathered (block, dim) float64 temporaries, and the scores of
# one block of CLS retrieval
CLS_PAIR_BLOCK = 1024


def score_pairs(
    bundle: EmbeddingBundle,
    pairs,
    sink_cfg: SinkhornConfig = SinkhornConfig(),
) -> np.ndarray:
    """Similarity of every (x_id, y_id) pair, in input order.

    Every protocol but CLS retrieval scores through here; that one runs
    the same per-pair ``ddot`` on blocks of query rows against the
    gallery (``_retrieval_scores``), with the same bits.

    Scores equal a one-pair computation bit for bit. CLS: each distinct
    item is stacked once as a float64 row of ``U`` with norm
    ``sqrt(vecdot(U, U))``, and the pairs are scored in blocks of
    ``CLS_PAIR_BLOCK`` as ``vecdot(U[x], U[y]) / (n[x] * n[y])``.
    ``np.vecdot`` runs one ``ddot`` per row, the kernel of ``u @ v``
    and of ``np.linalg.norm(u)``, so every score equals
    ``metrics.cosine_similarity`` and equal embeddings under two ids
    stay an exact tie; ``np.linalg.norm(U, axis=1)`` sums in another
    order and would move last bits. PATCH plans first: every distinct
    item is checked against ``max_tokens`` (the error names its id) and
    prepared once by ``patch_sets``, which, when debiased, solves all
    their self terms OT(X, X) in one batched call. The distinct ordered
    pairs then go to ``sinkhorn._divergences``, the plan of every
    divergence: it solves their cross terms in one ``cross_terms`` call
    (a pair of equal sets is solved as one self term instead, the only
    self term a raw, not debiased, divergence solves) and debiases each
    pair by one ``sinkhorn_divergence`` call. A pair scores 0.0 - that
    value, so that identical sets score +0.0, not -0.0. OT(A, B) and
    OT(B, A) differ in the last bits, so (x, y) and (y, x) are not
    merged. The plan lives for this call only.
    """
    if bundle.token_kind == "CLS":
        return _score_cls_pairs(bundle, pairs)
    keys = list(dict.fromkeys((x_id, y_id) for x_id, y_id in pairs))
    ids = list(dict.fromkeys(item_id for key in keys for item_id in key))
    mats = [bundle.get(item_id) for item_id in ids]
    for item_id, Z in zip(ids, mats):
        if len(Z) > sink_cfg.max_tokens:
            raise InvalidInput(
                f"item {item_id!r} has {len(Z)} token rows, over the "
                f"{sink_cfg.max_tokens} cap that --max-tokens sets"
            )
    sets = dict(zip(ids, patch_sets(mats, sink_cfg)))
    results = _divergences(
        [(sets[x].unit, sets[y].unit, sets[x].self_ot, sets[y].self_ot) for x, y in keys],
        sink_cfg,
        grad=False,
    )
    score = {key: 0.0 - result.value for key, result in zip(keys, results)}
    return np.array([score[x_id, y_id] for x_id, y_id in pairs], dtype=np.float64)


def _score_cls_pairs(bundle: EmbeddingBundle, pairs) -> np.ndarray:
    row: dict[str, int] = {}
    xy = np.array(
        [row.setdefault(item_id, len(row)) for pair in pairs for item_id in pair], dtype=np.intp
    ).reshape(-1, 2)
    out = np.empty(len(xy))
    if not row:
        return out
    U, norms = _cls_rows(bundle, row)
    for lo in range(0, len(xy), CLS_PAIR_BLOCK):
        x, y = xy[lo : lo + CLS_PAIR_BLOCK].T
        out[lo : lo + CLS_PAIR_BLOCK] = np.vecdot(U[x], U[y]) / (norms[x] * norms[y])
    return out


def _cls_rows(bundle: EmbeddingBundle, ids) -> tuple[np.ndarray, np.ndarray]:
    """The CLS items ``ids``, in order, as the float64 rows of ``U``, and
    their norms ``sqrt(vecdot(U, U))``."""
    U = bundle.rows(ids)
    norms = np.sqrt(np.vecdot(U, U))
    if np.any(norms == 0.0):
        raise InvalidInput("zero-norm vector in cosine similarity")
    return U, norms


# ---------------------------------------------------------------------------
# task containers: frozen, holding read-only copies, and checked when built


@dataclass(frozen=True)
class RetrievalTask:
    queries: tuple[str, ...]
    gallery: tuple[str, ...]
    relevance: Mapping[str, frozenset[str]]

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "gallery", tuple(self.gallery))
        relevance = {q: frozenset(rel) for q, rel in self.relevance.items()}
        object.__setattr__(self, "relevance", MappingProxyType(relevance))
        if not self.queries or not self.gallery:
            raise InvalidInput("retrieval task needs queries and a gallery")
        if len(set(self.queries)) != len(self.queries):
            raise DuplicateId("duplicate query ids")
        if len(set(self.gallery)) != len(self.gallery):
            raise DuplicateId("duplicate gallery ids")
        gallery = set(self.gallery)
        for q in self.queries:
            rel = self.relevance.get(q, frozenset())
            if not rel:
                raise InvalidInput(f"query {q!r} has no relevant gallery items")
            if not rel <= gallery:
                raise InvalidInput(f"query {q!r} lists relevant ids outside the gallery")


@dataclass(frozen=True)
class TripletTask:
    triplets: tuple[tuple[str, str, str, str], ...] = ()  # (a, p, n, mode)

    def __post_init__(self):
        object.__setattr__(self, "triplets", tuple(map(tuple, self.triplets)))
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
            q = _require_str(obj, "query", path, lineno)
            if q in relevance:
                raise DuplicateId(f"{path}:{lineno}: duplicate query {q!r}")
            queries.append(q)
            relevance[q] = set(_str_list(obj.get("relevant"), path, lineno, "relevant"))
        else:
            raise FormatError(f"{path}:{lineno}: expected a gallery or query record")
    if gallery is None:
        raise FormatError(f"{path}: missing gallery record")
    return RetrievalTask(queries=queries, gallery=gallery, relevance=relevance)


def load_triplet_task(path) -> TripletTask:
    """Task JSONL: {"anchor", "positive", "negative", "mode"} per line."""
    rows = []
    for lineno, obj in iter_jsonl(path):
        row = tuple(
            _require_str(obj, key, path, lineno) for key in ("anchor", "positive", "negative", "mode")
        )
        if row[3] not in TRIPLET_MODES:
            raise FormatError(f"{path}:{lineno}: unknown mode {row[3]!r}")
        rows.append(row)
    return TripletTask(triplets=rows)


def _str_list(val, path, lineno, name) -> list[str]:
    if not isinstance(val, list) or not val or not all(isinstance(x, str) for x in val):
        raise FormatError(f"{path}:{lineno}: {name} must be a non-empty string array")
    return val


# ---------------------------------------------------------------------------
# protocol drivers


def _retrieval_per_query(task: RetrievalTask, bundle, sink_cfg) -> dict[str, dict]:
    """AP, nDCG and AUC of each query's scores over the gallery. Ranking
    ties go to the lower gallery index, which is the lower id since the
    gallery is sorted and unique. AUC is None when the whole gallery is
    relevant."""
    queries = sorted(task.queries)
    gallery = sorted(task.gallery)
    column = {g: j for j, g in enumerate(gallery)}
    out: dict[str, dict] = {}
    for block, scores in _retrieval_scores(queries, gallery, bundle, sink_cfg):
        if not np.all(np.isfinite(scores)):
            raise InvalidInput("scores must be finite")
        for query, row in zip(block, scores):
            relevant = task.relevance[query]
            labels = np.zeros(len(gallery), dtype=np.int64)
            labels[[column[g] for g in relevant]] = 1
            order = _ranked_order(row, None)
            ranked = labels[order]
            n_pos = len(relevant)
            # the descending order reversed sorts the row ascending
            auc = _roc_auc(row, labels, n_pos, order[::-1]) if n_pos < len(gallery) else None
            out[query] = {
                "ap": _average_precision(ranked),
                "ndcg": _ndcg(ranked, n_pos),
                "auc": auc,
            }
    return out


def _retrieval_scores(queries: list[str], gallery: list[str], bundle, sink_cfg):
    """Yield (queries, scores) per block of queries, in order: the
    block's rows scored against the whole gallery.

    CLS: the rows are stacked once by ``_cls_rows``, in the order the
    (query, gallery) pairs first name them, so a missing item is
    reported as ``score_pairs`` reports it. A block is the most query
    rows whose scores fit in ``CLS_PAIR_BLOCK``, and at least one, scored
    as ``vecdot(Q[:, None], G) / (nq[:, None] * ng)``. The broadcast
    runs the same ``ddot`` per pair as ``score_pairs``, so every score
    keeps its bits, and no pair list is built. PATCH: one block, from
    ``score_pairs``."""
    if bundle.token_kind != "CLS":
        scores = score_pairs(bundle, [(q, g) for q in queries for g in gallery], sink_cfg)
        yield queries, scores.reshape(len(queries), len(gallery))
        return
    ids = list(dict.fromkeys([queries[0], *gallery, *queries]))
    U, norms = _cls_rows(bundle, ids)
    at = {item_id: r for r, item_id in enumerate(ids)}
    g = [at[item_id] for item_id in gallery]
    q = np.array([at[item_id] for item_id in queries])
    G, ng = U[g], norms[g]
    step = max(1, CLS_PAIR_BLOCK // len(gallery))
    for lo in range(0, len(queries), step):
        r = q[lo : lo + step]
        yield queries[lo : lo + step], np.vecdot(U[r, None], G) / (norms[r, None] * ng)


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
    sink_cfg: SinkhornConfig = SinkhornConfig(),
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
        scored = [pair for a, p, n, _ in task.triplets for pair in ((a, p), (a, n))]
        sims = score_pairs(bundle, scored, sink_cfg).reshape(-1, 2)
        # correct and total triplets per mode (strict ties-incorrect comparison)
        correct: dict[str, int] = {}
        totals: dict[str, int] = {}
        for (_, _, _, mode), (sim_p, sim_n) in zip(task.triplets, sims):
            totals[mode] = totals.get(mode, 0) + 1
            correct[mode] = correct.get(mode, 0) + (1 if triplet_correct(sim_p, sim_n) else 0)
        metrics = {
            "accuracy": {m: correct[m] / totals[m] for m in sorted(totals)},
            "overall_accuracy": sum(correct.values()) / len(task.triplets),
            "n_triplets": len(task.triplets),
        }
        detail = {"per_mode_counts": totals}
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
        "sinkhorn": asdict(sink_cfg),
    }
    return {
        **report_envelope(seed, params),
        "protocol": protocol,
        "metrics": metrics,
        "detail": detail,
    }
