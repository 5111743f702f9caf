"""Evaluation protocols end to end on small constructed bundles."""
import numpy as np
import pytest

from instasim import losses, protocols, sinkhorn
from instasim.bundle import make_bundle
from instasim.errors import (
    DuplicateId,
    FormatError,
    InvalidInput,
    MissingItem,
    UndefinedMetric,
)
from instasim.heads import init_dual_head, zero_grads
from instasim.losses import LossConfig
from instasim.metrics import average_precision, cosine_similarity, roc_auc
from instasim.records import PairLabel, Triplet
from instasim.protocols import (
    RetrievalTask,
    TripletTask,
    load_retrieval_task,
    load_triplet_task,
    run_protocol,
    score_pairs,
    similarity,
    triplet_accuracy,
)
from instasim.reporting import canonical_json
from instasim.sinkhorn import SinkhornConfig, SolveCounts, sinkhorn_divergence, solve_counts
from instasim.trainer import TrainConfig, _micro_batch_pass, _TrainData


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return (v / np.linalg.norm(v)).astype(np.float32)


@pytest.fixture
def planted_bundle():
    """Four gallery items at known cosines to the query [1, 0, 0]."""
    vecs = {
        "query": _unit([1.0, 0.0, 0.0]),
        "match_exact": _unit([1.0, 0.0, 0.0]),
        "match_close": _unit([0.9, 0.1, 0.0]),
        "off_far": _unit([0.0, 1.0, 0.0]),
        "off_anti": _unit([-1.0, 0.0, 0.0]),
    }
    return make_bundle("CLS", 3, {k: v.reshape(1, -1) for k, v in vecs.items()})


class TestSimilarity:
    def test_cls_is_cosine(self, planted_bundle):
        res = similarity("query", "match_exact", planted_bundle)
        assert abs(res.similarity - 1.0) < 1e-6
        assert abs(res.distance - (1.0 - res.similarity)) < 1e-15
        res_orth = similarity("query", "off_far", planted_bundle)
        assert abs(res_orth.similarity) < 1e-7

    def test_patch_is_negated_divergence_on_unit_rows(self, rng):
        cfg = SinkhornConfig(epsilon=0.1, max_iters=5000, tol=1e-6)
        X = rng.normal(size=(4, 6))
        Y = rng.normal(size=(3, 6))
        bundle = make_bundle(
            "PATCH", 6, {"x": X.astype(np.float32), "y": Y.astype(np.float32)}
        )
        res = similarity("x", "y", bundle, cfg)
        Xu = X.astype(np.float32).astype(np.float64)
        Yu = Y.astype(np.float32).astype(np.float64)
        Xu /= np.linalg.norm(Xu, axis=1, keepdims=True)
        Yu /= np.linalg.norm(Yu, axis=1, keepdims=True)
        want = -sinkhorn_divergence(Xu, Yu, cfg).value
        assert abs(res.similarity - want) < 1e-12

    def test_identical_patch_sets_score_zero(self, rng):
        Z = rng.normal(size=(5, 4)).astype(np.float32)
        bundle = make_bundle("PATCH", 4, {"a": Z, "b": Z.copy()})
        res = similarity("a", "b", bundle)
        assert res.similarity == 0.0
        assert res.distance == 1.0

    def test_missing_item(self, planted_bundle):
        with pytest.raises(MissingItem):
            similarity("query", "ghost", planted_bundle)


def _unit_rows(M):
    M = np.asarray(M, dtype=np.float64)
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def _counting(monkeypatch, counts, *modules):
    """Count the self- and cross-term solves made through ``modules``."""
    for module in modules:
        for name in ("self_term", "cross_term"):
            if not hasattr(module, name):
                continue

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)


class TestScorePairs:
    """The engine against the one-pair reference, bit for bit."""

    SINK = SinkhornConfig(epsilon=0.1, max_iters=2000)

    @staticmethod
    def _pairs(ids):
        # every ordered pair, the diagonal included, plus one pair twice
        pairs = [(x, y) for x in ids for y in ids]
        return pairs + [pairs[1]]

    def test_cls_equals_per_pair_cosine(self, rng):
        items = {f"i{k}": rng.normal(size=8) for k in range(5)}
        items["twin"] = items["i0"].copy()
        bundle = make_bundle("CLS", 8, items)
        pairs = self._pairs(sorted(items))
        got = score_pairs(bundle, pairs)
        want = np.array([cosine_similarity(bundle.get(x), bundle.get(y)) for x, y in pairs])
        assert got.tobytes() == want.tobytes()
        # equal embeddings under two ids stay an exact tie
        by_pair = dict(zip(pairs, got))
        for other in items:
            assert by_pair["i1", "i0"] == by_pair["i1", "twin"]
            assert by_pair[other, "i0"] == by_pair[other, "twin"]

    def test_cls_blocks_equal_per_pair_cosine(self, rng):
        items = {f"i{k}": rng.normal(size=16) for k in range(40)}
        items["twin"] = items["i0"].copy()
        bundle = make_bundle("CLS", 16, items)
        ids = sorted(items)
        block = protocols.CLS_PAIR_BLOCK
        pairs = [(ids[k % len(ids)], ids[(7 * k) % len(ids)]) for k in range(block + 50)]
        # the twin tie straddles the block boundary
        pairs[block - 1], pairs[block] = ("i3", "i0"), ("i3", "twin")
        got = score_pairs(bundle, pairs)
        want = np.array([cosine_similarity(bundle.get(x), bundle.get(y)) for x, y in pairs])
        assert got.tobytes() == want.tobytes()
        assert got[block - 1] == got[block]

    def test_cls_edge_cases(self, rng):
        bundle = make_bundle("CLS", 4, {"a": rng.normal(size=4), "zero": np.zeros(4)})
        empty = score_pairs(bundle, [])
        assert empty.shape == (0,) and empty.dtype == np.float64
        with pytest.raises(MissingItem, match="ghost"):
            score_pairs(bundle, [("a", "a"), ("a", "ghost")])
        with pytest.raises(InvalidInput, match="zero-norm vector"):
            score_pairs(bundle, [("a", "a"), ("zero", "a")])

    def test_patch_equals_per_pair_divergence(self, rng):
        items = {f"p{k}": rng.normal(size=(int(rng.integers(2, 6)), 4)) for k in range(4)}
        items["twin"] = items["p0"].copy()
        bundle = make_bundle("PATCH", 4, items)
        pairs = self._pairs(sorted(items))
        got = score_pairs(bundle, pairs, self.SINK)
        want = np.array([
            0.0 - sinkhorn_divergence(_unit_rows(bundle.get(x)), _unit_rows(bundle.get(y)), self.SINK).value
            for x, y in pairs
        ])
        assert got.tobytes() == want.tobytes()
        by_pair = dict(zip(pairs, got))
        assert by_pair["p0", "p0"] == by_pair["p0", "twin"] == by_pair["twin", "p0"] == 0.0
        for other in items:
            assert by_pair[other, "p0"] == by_pair[other, "twin"]

    def test_raw_patch_equals_per_pair_cost(self, rng):
        raw = SinkhornConfig(epsilon=0.1, max_iters=2000, debiased=False)
        items = {f"p{k}": rng.normal(size=(3, 4)) for k in range(3)}
        bundle = make_bundle("PATCH", 4, items)
        pairs = self._pairs(sorted(items))
        want = np.array([
            -sinkhorn_divergence(_unit_rows(bundle.get(x)), _unit_rows(bundle.get(y)), raw).value
            for x, y in pairs
        ])
        assert score_pairs(bundle, pairs, raw).tobytes() == want.tobytes()

    def test_zero_norm_patch_row_is_rejected(self, rng):
        Z = rng.normal(size=(3, 4))
        Z[2] = 0.0
        bundle = make_bundle("PATCH", 4, {"ok": rng.normal(size=(2, 4)), "zero": Z})
        for sink in (self.SINK, SinkhornConfig(debiased=False)):
            with pytest.raises(InvalidInput, match="zero-norm patch row"):
                score_pairs(bundle, [("ok", "zero")], sink)

    def test_retrieval_solves_each_self_term_once(self, rng, monkeypatch):
        queries = [f"q{k}" for k in range(3)]
        gallery = [f"g{k}" for k in range(5)]
        bundle = make_bundle(
            "PATCH", 4, {i: rng.normal(size=(4, 4)) for i in queries + gallery}
        )
        task = RetrievalTask(
            queries=queries, gallery=gallery, relevance={q: {"g0"} for q in queries}
        )
        counts = {"self_term": 0, "cross_term": 0}
        _counting(monkeypatch, counts, protocols, sinkhorn)
        with solve_counts() as tally:
            run_protocol("RETRIEVAL", bundle, task=task, sink_cfg=self.SINK)
        assert counts == {"cross_term": 3 * 5, "self_term": 3 + 5}
        assert tally == SolveCounts(solves=3 * 5 + 3 + 5, unconverged=0)

    def test_micro_batch_matches_per_comparison_divergence_grad(self, rng, monkeypatch):
        dim = 4
        images = [f"i{k}-{v}" for k in range(3) for v in range(3)]
        cls = make_bundle("CLS", dim, {i: rng.normal(size=dim) for i in images})
        patch = make_bundle(
            "PATCH", dim, {i: rng.normal(size=(int(rng.integers(2, 5)), dim)) for i in images}
        )
        cfg = TrainConfig(
            hidden_dim=5, loss=LossConfig(lam=0.5), sinkhorn=SinkhornConfig(epsilon=0.1)
        )
        micro = [Triplet(f"i{k}-0", f"i{k}-1", f"i{(k + 1) % 3}-2", "MINED_REAL") for k in range(3)]
        inst_of = {i: i.split("-")[0] for i in images}
        head = init_dual_head(dim, hidden_dim=5, seed=3)

        def one_pass():
            grads = zero_grads(head)
            loss = _micro_batch_pass(head, micro, _TrainData(cls, patch, cfg), inst_of, grads)
            return loss, grads

        counts = {"self_term": 0, "cross_term": 0}
        _counting(monkeypatch, counts, losses, sinkhorn)
        with solve_counts() as tally:
            loss, grads = one_pass()
        # 9 images; 3 triplets of 1 positive, 1 hard and 2 in-batch negatives
        assert counts == {"self_term": 9, "cross_term": 12}
        assert tally == SolveCounts(solves=9 + 12, unconverged=0)

        counts.update(self_term=0, cross_term=0)
        monkeypatch.setattr(
            losses,
            "divergence_grad",
            lambda A, B, cfg, self_a, self_b, _fn=losses.divergence_grad: _fn(A, B, cfg),
        )
        want_loss, want_grads = one_pass()
        # the 9 self terms are still solved once each, then ignored
        assert counts == {"self_term": 9 + 24, "cross_term": 12}
        assert loss == want_loss
        assert list(grads) == list(want_grads)
        for name in grads:
            assert grads[name].tobytes() == want_grads[name].tobytes(), name


class TestRetrieval:
    def _task(self):
        return RetrievalTask(
            queries=["query"],
            gallery=["match_exact", "match_close", "off_far", "off_anti"],
            relevance={"query": {"match_exact", "match_close"}},
        )

    def test_planted_ranking_is_perfect(self, planted_bundle):
        metrics = run_protocol("RETRIEVAL", planted_bundle, task=self._task())["metrics"]
        assert metrics["map"] == 1.0
        assert metrics["mean_ndcg"] == 1.0

    def test_map_matches_direct_metric(self, planted_bundle):
        task = self._task()
        gallery = sorted(task.gallery)
        scores = [
            similarity("query", g, planted_bundle).similarity for g in gallery
        ]
        labels = [1 if g in task.relevance["query"] else 0 for g in gallery]
        want = average_precision(scores, labels, tie_key=np.array(gallery))
        got = run_protocol("RETRIEVAL", planted_bundle, task=task)["metrics"]["map"]
        assert abs(got - want) < 1e-15

    def test_validation(self):
        with pytest.raises(InvalidInput):
            RetrievalTask(queries=[], gallery=["a"], relevance={}).validate()
        with pytest.raises(DuplicateId):
            RetrievalTask(
                queries=["q", "q"], gallery=["a"], relevance={"q": {"a"}}
            ).validate()
        with pytest.raises(InvalidInput):
            RetrievalTask(queries=["q"], gallery=["a"], relevance={"q": set()}).validate()
        with pytest.raises(InvalidInput):
            RetrievalTask(
                queries=["q"], gallery=["a"], relevance={"q": {"elsewhere"}}
            ).validate()


class TestTripletProtocol:
    def test_accuracy_per_mode(self, planted_bundle):
        task = TripletTask(
            triplets=[
                ("query", "match_exact", "off_far", "EASY"),
                ("query", "match_close", "off_anti", "EASY"),
                ("query", "off_far", "match_close", "HARD"),  # wrong by design
            ]
        )
        acc = triplet_accuracy(task, planted_bundle)
        assert acc == {"EASY": 1.0, "HARD": 0.0}

    def test_tie_counts_as_incorrect(self, planted_bundle):
        task = TripletTask(triplets=[("query", "match_exact", "match_exact", "HARD")])
        assert triplet_accuracy(task, planted_bundle) == {"HARD": 0.0}

    def test_validation(self):
        with pytest.raises(InvalidInput):
            TripletTask(triplets=[]).validate()
        with pytest.raises(InvalidInput):
            TripletTask(triplets=[("a", "b", "c", "MEDIUM")]).validate()


class TestRunProtocol:
    def test_report_envelope(self, planted_bundle):
        report = run_protocol(
            "RETRIEVAL",
            planted_bundle,
            task=RetrievalTask(
                queries=["query"],
                gallery=["match_exact", "off_far"],
                relevance={"query": {"match_exact"}},
            ),
        )
        assert set(report) == {
            "format_version",
            "tool_version",
            "protocol",
            "seed",
            "config_hash",
            "metrics",
            "detail",
        }
        assert report["protocol"] == "RETRIEVAL"
        assert report["metrics"]["map"] == 1.0
        assert report["metrics"]["n_queries"] == 1
        canonical_json(report)  # must serialize canonically

    def test_verification_metrics_are_ap_and_auc(self, planted_bundle):
        pairs = [
            PairLabel("query", "match_exact", 1.0),
            PairLabel("query", "match_close", 1.0),
            PairLabel("query", "off_far", 0.0),
            PairLabel("query", "off_anti", 0.0),
        ]
        report = run_protocol("VERIFICATION", planted_bundle, pairs=pairs)
        assert set(report["metrics"]) == {"ap", "auc"}
        assert report["metrics"]["ap"] == 1.0
        assert report["metrics"]["auc"] == 1.0
        scores = [row["score"] for row in report["detail"]["pairs"]]
        labels = [row["label"] for row in report["detail"]["pairs"]]
        assert abs(report["metrics"]["auc"] - roc_auc(scores, labels)) < 1e-15

    def test_verification_rejects_graded_labels(self, planted_bundle):
        pairs = [
            PairLabel("query", "match_exact", 3.0),
            PairLabel("query", "off_far", 0.0),
        ]
        with pytest.raises(InvalidInput):
            run_protocol("VERIFICATION", planted_bundle, pairs=pairs)

    def test_correlation_protocol(self, planted_bundle):
        pairs = [
            PairLabel("query", "match_exact", 4.0),
            PairLabel("query", "match_close", 3.0),
            PairLabel("query", "off_far", 1.0),
            PairLabel("query", "off_anti", 0.0),
        ]
        report = run_protocol("CORRELATION", planted_bundle, pairs=pairs)
        assert abs(report["metrics"]["spearman"] - 1.0) < 1e-12
        assert abs(report["metrics"]["kendall_tau_b"] - 1.0) < 1e-12
        assert report["metrics"]["n_pairs"] == 4

    def test_correlation_with_degenerate_ratings_is_undefined(self, planted_bundle):
        pairs = [
            PairLabel("query", "match_exact", 2.0),
            PairLabel("query", "off_far", 2.0),
        ]
        with pytest.raises(UndefinedMetric):
            run_protocol("CORRELATION", planted_bundle, pairs=pairs)

    def test_byte_identical_reruns_and_order_independence(self, planted_bundle):
        pairs = [
            PairLabel("query", "match_exact", 1.0),
            PairLabel("query", "off_far", 0.0),
            PairLabel("query", "off_anti", 0.0),
        ]
        r1 = run_protocol("VERIFICATION", planted_bundle, pairs=pairs)
        r2 = run_protocol("VERIFICATION", planted_bundle, pairs=list(reversed(pairs)))
        assert canonical_json(r1) == canonical_json(r2)

    def test_unknown_protocol_and_missing_inputs(self, planted_bundle):
        with pytest.raises(InvalidInput):
            run_protocol("CLUSTERING", planted_bundle)
        with pytest.raises(InvalidInput):
            run_protocol("RETRIEVAL", planted_bundle, task=None)
        with pytest.raises(InvalidInput):
            run_protocol("VERIFICATION", planted_bundle, pairs=None)
        with pytest.raises(InvalidInput):
            run_protocol("TRIPLET", planted_bundle, task=None)


class TestTaskLoaders:
    def test_retrieval_round_trip(self, tmp_path):
        path = tmp_path / "task.jsonl"
        path.write_text(
            '{"gallery": ["g1", "g2", "g3"]}\n'
            '{"query": "q1", "relevant": ["g1"]}\n'
            '{"query": "q2", "relevant": ["g2", "g3"]}\n'
        )
        task = load_retrieval_task(path)
        assert task.gallery == ["g1", "g2", "g3"]
        assert task.queries == ["q1", "q2"]
        assert task.relevance["q2"] == {"g2", "g3"}

    def test_retrieval_loader_errors(self, tmp_path):
        path = tmp_path / "task.jsonl"
        path.write_text('{"query": "q1", "relevant": ["g1"]}\n')
        with pytest.raises(FormatError, match="gallery"):
            load_retrieval_task(path)
        path.write_text('{"gallery": ["g"]}\n{"gallery": ["g"]}\n')
        with pytest.raises(FormatError, match="repeated"):
            load_retrieval_task(path)
        path.write_text(
            '{"gallery": ["g"]}\n{"query": "q", "relevant": ["g"]}\n'
            '{"query": "q", "relevant": ["g"]}\n'
        )
        with pytest.raises(DuplicateId):
            load_retrieval_task(path)
        path.write_text("not json\n")
        with pytest.raises(FormatError):
            load_retrieval_task(path)

    def test_triplet_round_trip(self, tmp_path):
        path = tmp_path / "trip.jsonl"
        path.write_text(
            '{"anchor": "a", "positive": "p", "negative": "n", "mode": "EASY"}\n'
            '{"anchor": "a", "positive": "p", "negative": "m", "mode": "HARD"}\n'
        )
        task = load_triplet_task(path)
        assert task.triplets == [("a", "p", "n", "EASY"), ("a", "p", "m", "HARD")]

    def test_triplet_loader_errors(self, tmp_path):
        path = tmp_path / "trip.jsonl"
        path.write_text('{"anchor": "a", "positive": "p", "negative": "n"}\n')
        with pytest.raises(FormatError, match="missing"):
            load_triplet_task(path)
        path.write_text('{"anchor": "a", "positive": "p", "negative": "n", "mode": "ODD"}\n')
        with pytest.raises(FormatError, match="mode"):
            load_triplet_task(path)
