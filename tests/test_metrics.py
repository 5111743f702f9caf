"""Ranking metrics against brute-force oracles and hand-worked cases."""
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from instasim.errors import InvalidInput, UndefinedMetric
from instasim.metrics import (
    _strict_inversions,
    average_precision,
    cosine_similarity,
    kendall_tau_b,
    ndcg_from_ranking,
    ndcg_score,
    rank_average,
    roc_auc,
    spearman_rho,
    triplet_correct,
)

from oracles import (
    ap_oracle,
    auc_oracle,
    kendall_oracle,
    kendall_tau_b_dense,
    kendall_tau_b_rowwise,
    midranks_oracle,
    ndcg_oracle,
    rank_average_loop,
    spearman_oracle,
)


def _random_case(rng, n_max=50, tie_prone=False):
    n = int(rng.integers(2, n_max + 1))
    if tie_prone:
        scores = rng.integers(0, 4, size=n).astype(np.float64)
    else:
        scores = rng.normal(size=n)
    labels = rng.integers(0, 2, size=n)
    return scores, labels


class TestCosine:
    def test_known_values(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0
        assert abs(cosine_similarity([1, 1], [1, 1]) - 1.0) < 1e-15
        assert abs(cosine_similarity([1, 0], [-2, 0]) + 1.0) < 1e-15

    def test_scale_invariant(self, rng):
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        assert abs(cosine_similarity(u, v) - cosine_similarity(5 * u, 0.01 * v)) < 1e-15

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidInput):
            cosine_similarity([0, 0], [1, 0])
        with pytest.raises(InvalidInput):
            cosine_similarity([1, 0], [1, 0, 0])


class TestTripletCorrect:
    def test_strict_tie_policy(self):
        assert triplet_correct(0.5, 0.4)
        assert not triplet_correct(0.4, 0.5)
        assert not triplet_correct(0.5, 0.5)


class TestAveragePrecision:
    def test_worked_example(self):
        # ranking [1, 0, 1]: precision 1/1 at rank 1 and 2/3 at rank 3
        ap = average_precision([3.0, 2.0, 1.0], [1, 0, 1])
        assert abs(ap - 5.0 / 6.0) < 1e-15

    def test_perfect_and_worst_ranking(self):
        assert average_precision([3, 2, 1], [1, 1, 0]) == 1.0
        worst = average_precision([3, 2, 1], [0, 0, 1])
        assert abs(worst - 1.0 / 3.0) < 1e-15

    def test_matches_oracle(self, rng):
        for trial in range(100):
            scores, labels = _random_case(rng, tie_prone=trial % 2 == 0)
            if labels.sum() == 0:
                labels[int(rng.integers(labels.size))] = 1
            tie_key = np.arange(scores.size)
            got = average_precision(scores, labels, tie_key=tie_key)
            want = ap_oracle(scores, labels, tie_key)
            assert abs(got - want) < 1e-12

    def test_tie_key_decides_tied_ranks(self):
        scores = [1.0, 1.0]
        labels = [0, 1]
        # positive first when its key is smaller, last otherwise
        assert average_precision(scores, labels, tie_key=[1, 0]) == 1.0
        assert average_precision(scores, labels, tie_key=[0, 1]) == 0.5

    def test_no_positives_is_undefined(self):
        with pytest.raises(UndefinedMetric):
            average_precision([1.0, 2.0], [0, 0])


class TestRocAuc:
    def test_all_ties_is_half(self):
        assert roc_auc([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0]) == 0.5

    def test_perfect_and_inverted(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_matches_pair_counting_oracle(self, rng):
        for trial in range(100):
            scores, labels = _random_case(rng, tie_prone=trial % 2 == 0)
            if labels.sum() in (0, labels.size):
                labels[0] = 1 - labels[0]
            got = roc_auc(scores, labels)
            want = auc_oracle(scores, labels)
            assert abs(got - want) < 1e-12

    def test_single_class_is_undefined(self):
        with pytest.raises(UndefinedMetric):
            roc_auc([1.0, 2.0], [1, 1])


class TestNdcg:
    def test_relevant_at_rank_two_of_two(self):
        # dcg = 1/log2(3), idcg = 1/log2(2) = 1
        got = ndcg_from_ranking([0, 1])
        assert abs(got - 1.0 / np.log2(3.0)) < 1e-15

    def test_perfect_prefix_is_one(self):
        assert ndcg_from_ranking([1, 1, 0, 0]) == 1.0

    def test_score_interface_matches_oracle(self, rng):
        for trial in range(100):
            scores, labels = _random_case(rng, tie_prone=trial % 3 == 0)
            if labels.sum() == 0:
                labels[int(rng.integers(labels.size))] = 1
            tie_key = np.arange(scores.size)
            got = ndcg_score(scores, labels, tie_key=tie_key)
            want = ndcg_oracle(scores, labels, tie_key)
            assert abs(got - want) < 1e-12

    def test_no_relevant_is_undefined(self):
        with pytest.raises(UndefinedMetric):
            ndcg_from_ranking([0, 0, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInput):
            ndcg_from_ranking([0, 2])


class TestRankAverage:
    def test_midranks_on_ties(self):
        np.testing.assert_array_equal(
            rank_average([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0]
        )

    def test_matches_oracle(self, rng):
        for _ in range(50):
            x = rng.integers(0, 5, size=int(rng.integers(1, 30))).astype(np.float64)
            np.testing.assert_allclose(rank_average(x), midranks_oracle(x), atol=1e-12)

    def test_matches_scipy(self, rng):
        x = rng.integers(0, 4, size=40).astype(np.float64)
        np.testing.assert_allclose(rank_average(x), stats.rankdata(x), atol=0)

    def test_equals_the_loop_version_exactly(self, rng):
        for n in (1, 2, 7, 100, 2000):
            for levels in (1, 3, 50):
                x = rng.integers(0, levels, size=n).astype(np.float64)
                np.testing.assert_array_equal(rank_average(x), rank_average_loop(x))
        x = rng.normal(size=500)
        np.testing.assert_array_equal(rank_average(x), rank_average_loop(x))
        assert rank_average([]).size == 0


class TestCorrelations:
    def test_monotone_is_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [10.0, 20.0, 30.0, 40.0]
        assert abs(spearman_rho(x, y) - 1.0) < 1e-15
        assert abs(kendall_tau_b(x, y) - 1.0) < 1e-15

    def test_reversed_is_minus_one(self):
        x = [1.0, 2.0, 3.0]
        assert abs(spearman_rho(x, [3.0, 2.0, 1.0]) + 1.0) < 1e-15
        assert abs(kendall_tau_b(x, [3.0, 2.0, 1.0]) + 1.0) < 1e-15

    def test_matches_oracles_with_ties(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 5, size=n).astype(np.float64)
            y = rng.integers(0, 5, size=n).astype(np.float64)
            if np.unique(x).size < 2:
                x[0] += 1.0
            if np.unique(y).size < 2:
                y[0] += 1.0
            assert abs(spearman_rho(x, y) - spearman_oracle(x, y)) < 1e-12
            assert abs(kendall_tau_b(x, y) - kendall_oracle(x, y)) < 1e-12

    def test_matches_scipy_with_ties(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 4, size=n).astype(np.float64)
            y = rng.integers(0, 4, size=n).astype(np.float64)
            if np.unique(x).size < 2:
                x[0] += 1.0
            if np.unique(y).size < 2:
                y[0] += 1.0
            assert abs(spearman_rho(x, y) - stats.spearmanr(x, y).statistic) < 1e-12
            assert abs(kendall_tau_b(x, y) - stats.kendalltau(x, y).statistic) < 1e-12

    def test_kendall_equals_the_dense_version_exactly(self, rng):
        for n in (2, 3, 40, 700):
            for levels in (2, 4, 30):
                x = rng.integers(0, levels, size=n).astype(np.float64)
                y = rng.integers(0, levels, size=n).astype(np.float64)
                x[0], x[1], y[0], y[1] = 0.0, 1.0, 0.0, 1.0  # neither side constant
                assert kendall_tau_b(x, y) == kendall_tau_b_dense(x, y)

    def test_constant_input_is_undefined(self):
        with pytest.raises(UndefinedMetric):
            spearman_rho([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(UndefinedMetric):
            kendall_tau_b([1.0, 1.0], [1.0, 2.0])

    def test_length_checks(self):
        with pytest.raises(InvalidInput):
            spearman_rho([1.0], [2.0])
        with pytest.raises(InvalidInput):
            kendall_tau_b([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("fn", [spearman_rho, kendall_tau_b])
    def test_non_finite_input_is_invalid(self, fn):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput):
                fn([1.0, bad, 3.0, 2.0], [1.0, 2.0, 3.0, 0.5])
            with pytest.raises(InvalidInput):
                fn([1.0, 2.0, 3.0, 2.0], [1.0, 2.0, bad, 0.5])


def _kendall_case(rng, n, ties):
    """x and y of length n, tied heavily on the named side(s), with
    neither side constant."""
    def side(tied):
        return rng.integers(0, 3, size=n).astype(np.float64) if tied else rng.normal(size=n)

    x, y = side(ties in ("x", "both")), side(ties in ("y", "both"))
    x[0], x[1], y[0], y[1] = 0.0, 1.0, 0.0, 1.0
    return x, y


class TestKendallByMergeCount:
    SIZES = (2, 3, 4, 5, 7, 8, 9, 31, 64, 100, 257, 1000, 5000)

    @pytest.mark.parametrize("ties", ["none", "x", "y", "both"])
    def test_equals_the_rowwise_count_exactly(self, rng, ties):
        for n in self.SIZES:
            x, y = _kendall_case(rng, n, ties)
            assert kendall_tau_b(x, y) == kendall_tau_b_rowwise(x, y)

    @pytest.mark.parametrize("ties", ["none", "x", "y", "both"])
    def test_matches_scipy(self, rng, ties):
        for n in self.SIZES:
            x, y = _kendall_case(rng, n, ties)
            assert abs(kendall_tau_b(x, y) - stats.kendalltau(x, y).statistic) < 1e-12

    def test_signed_zeros_are_ties(self):
        x = [0.0, -0.0, 1.0, 2.0]
        y = [3.0, 1.0, 2.0, 2.0]
        assert kendall_tau_b(x, y) == kendall_tau_b_rowwise(x, y)

    def test_strict_inversions_match_pair_counting(self, rng):
        for n in (1, 2, 3, 6, 16, 17, 50, 129):
            for levels in (1, 2, n):
                r = rng.integers(0, levels, size=n).astype(np.int64)
                want = sum(int(r[i] > r[j]) for i in range(n) for j in range(i + 1, n))
                assert _strict_inversions(r) == want

    def test_memory_is_linear(self, rng):
        n = 100_000
        x = rng.integers(0, 1000, size=n).astype(np.float64)
        y = rng.normal(size=n)
        kendall_tau_b(x[:10], y[:10])
        tracemalloc.start()
        try:
            kendall_tau_b(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * n


class TestInputChecks:
    def test_score_label_contracts(self):
        with pytest.raises(InvalidInput):
            average_precision([], [])
        with pytest.raises(InvalidInput):
            roc_auc([1.0], [1, 0])
        with pytest.raises(InvalidInput):
            roc_auc([np.inf, 1.0], [1, 0])
        with pytest.raises(InvalidInput):
            average_precision([1.0, 2.0], [1, 3])
