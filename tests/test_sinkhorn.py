"""Entropic optimal transport: divergence values, gradients, invariants."""
import math
import tracemalloc

import numpy as np
import pytest

from instasim import sinkhorn
from instasim.bundle import make_bundle
from instasim.errors import InvalidInput, ShapeError
from instasim.losses import LossConfig, patch_losses
from instasim.protocols import score_pairs
from instasim.sinkhorn import (
    STACK_ELEMENTS,
    SinkhornConfig,
    SolveCounts,
    cross_term,
    cross_terms,
    divergence_grad,
    self_term,
    self_terms,
    sinkhorn_divergence,
    solve_counts,
    subsample_tokens,
)

from oracles import exact_ot_cost, ot_entropic_alternating

# Alternating updates on spread-out points crawl through the potentials'
# gauge direction, so the row-marginal stopping metric passes 1e-6
# quickly but can take ~1e6 iterations for much tighter levels. Values
# and plans are gauge-invariant and accurate well before either point.
TIGHT = SinkhornConfig(epsilon=0.1, max_iters=20000, tol=1e-6)


class TestDivergenceValues:
    def test_identical_sets_give_exact_zero(self, rng):
        for _ in range(10):
            X = rng.normal(size=(rng.integers(1, 8), 4))
            res = sinkhorn_divergence(X, X.copy(), TIGHT)
            assert res.value == 0.0

    def test_copy_of_a_unit_row_set_gives_exact_zero(self, rng):
        # at this size numpy forms X @ X.T with a symmetric product whose
        # last bits differ from X @ Y.T for a copy Y, so solving the
        # cross term separately used to leave about -2.8e-17
        X = rng.normal(size=(32, 64))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        assert sinkhorn_divergence(X, X.copy()).value == 0.0

    def test_copy_through_divergence_grad_is_one_self_term(self, rng):
        # debiased: exactly 0 with zero gradients; raw: the self term's
        # value, and its half gradient for both sets
        X = rng.normal(size=(32, 64))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        with solve_counts() as counts:
            value, dA, dB, converged = divergence_grad(X, X.copy())
        assert value == 0.0 and converged and counts.solves == 1
        assert dA.shape == dB.shape == X.shape and not dA.any() and not dB.any()
        raw = SinkhornConfig(debiased=False)
        aa, half = self_term(X, raw, grad=True)
        value, dA, dB, _ = divergence_grad(X, X.copy(), raw)
        assert value == aa.value and np.array_equal(dA, half) and np.array_equal(dB, half)
        assert sinkhorn_divergence(X, X.copy(), raw) == aa

    def test_given_self_terms_change_no_bit(self, rng):
        X = rng.normal(size=(5, 3))
        Y = rng.normal(size=(4, 3))
        for A, B in ((X, Y), (X, X.copy())):
            assert sinkhorn_divergence(
                A, B, TIGHT, self_term(A, TIGHT), self_term(B, TIGHT)
            ) == sinkhorn_divergence(A, B, TIGHT)
            got = divergence_grad(
                A, B, TIGHT, self_term(A, TIGHT, grad=True), self_term(B, TIGHT, grad=True)
            )
            want = divergence_grad(A, B, TIGHT)
            assert got[0] == want[0] and got[3] == want[3]
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        raw = SinkhornConfig(epsilon=0.1, max_iters=2000, debiased=False)
        assert cross_term(X, Y, raw)[0] == sinkhorn_divergence(X, Y, raw)

    def test_symmetry(self, rng):
        for _ in range(10):
            X = rng.normal(size=(rng.integers(2, 8), 3))
            Y = rng.normal(size=(rng.integers(2, 8), 3))
            ab = sinkhorn_divergence(X, Y, TIGHT).value
            ba = sinkhorn_divergence(Y, X, TIGHT).value
            assert abs(ab - ba) <= 1e-6

    def test_nonnegative(self, rng):
        for _ in range(20):
            X = rng.normal(size=(rng.integers(1, 8), 3))
            Y = rng.normal(size=(rng.integers(1, 8), 3))
            assert sinkhorn_divergence(X, Y, TIGHT).value >= -1e-6

    def test_single_atoms_closed_form(self, rng):
        # one point a side: the plan is forced, value is the plain cost
        for _ in range(10):
            a = rng.normal(size=(1, 5))
            b = rng.normal(size=(1, 5))
            expected = 0.5 * float(((a - b) ** 2).sum())
            got = sinkhorn_divergence(a, b, TIGHT).value
            assert abs(got - expected) <= 1e-9

    def test_approaches_exact_ot_at_small_epsilon(self, rng):
        cfg = SinkhornConfig(epsilon=1e-3, max_iters=120000, tol=1e-8)
        for _ in range(8):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            X = rng.random((n, 2))
            Y = rng.random((m, 2))
            approx = sinkhorn_divergence(X, Y, cfg).value
            exact = exact_ot_cost(X, Y)
            assert abs(approx - exact) <= 0.02 * max(abs(exact), 1e-9)

    def test_grows_with_separation(self, rng):
        X = rng.normal(size=(5, 3))
        Y = rng.normal(size=(5, 3))
        near = sinkhorn_divergence(X, Y + 0.5, TIGHT).value
        far = sinkhorn_divergence(X, Y + 5.0, TIGHT).value
        assert far > near

    def test_raw_vs_debiased(self, rng):
        # the raw entropic cost of a set against itself is not zero,
        # which is exactly what debiasing removes
        X = rng.normal(size=(6, 3))
        raw_cfg = SinkhornConfig(epsilon=0.1, max_iters=50000, tol=1e-10, debiased=False)
        raw_self = sinkhorn_divergence(X, X.copy(), raw_cfg).value
        assert raw_self != 0.0
        assert sinkhorn_divergence(X, X.copy(), TIGHT).value == 0.0

    def test_convergence_flag_and_iterations(self, rng):
        X = rng.normal(size=(5, 3))
        Y = rng.normal(size=(5, 3))
        starved = sinkhorn_divergence(X, Y, SinkhornConfig(epsilon=0.05, max_iters=2, tol=1e-9))
        assert not starved.converged
        assert starved.iterations == 2
        ok = sinkhorn_divergence(X, Y, TIGHT)
        assert ok.converged
        assert ok.iterations < TIGHT.max_iters


def _point_sets(rng, count=12):
    for _ in range(count):
        d = int(rng.integers(2, 6))
        yield rng.normal(size=(rng.integers(1, 9), d)), rng.normal(size=(rng.integers(1, 9), d))


class TestSolver:
    """The solver against ``ot_entropic_alternating``, the earlier loop
    that solved every term with alternating updates."""

    def test_cross_terms_match_the_alternating_oracle(self, rng):
        flags = set()
        for eps, max_iters in ((0.05, 500), (0.1, 2000), (0.5, 2000), (0.05, 3)):
            cfg = SinkhornConfig(epsilon=eps, max_iters=max_iters)
            for X, Y in _point_sets(rng):
                res, dX, dY = cross_term(X, Y, cfg, grad=True)
                value, T, converged, iterations = ot_entropic_alternating(X, Y, cfg)
                assert abs(res.value - value) <= 1e-12 * abs(value)
                assert (res.iterations, res.converged) == (iterations, converged)
                row_err = np.abs(T.sum(axis=1) - 1.0 / X.shape[0]).max()
                assert res.marginal_err == pytest.approx(row_err, rel=1e-6, abs=1e-14)
                # the plan is rebuilt after the loop from the tested potentials
                np.testing.assert_allclose(dX, T.sum(axis=1)[:, None] * X - T @ Y, atol=1e-12)
                np.testing.assert_allclose(dY, T.sum(axis=0)[:, None] * Y - T.T @ X, atol=1e-12)
                flags.add(converged)
        assert flags == {True, False}

    def test_underflowing_kernels_match_the_alternating_oracle(self, rng):
        # eps = 1e-3 on clouds spread over [0, 2]^2: exp(-C / eps)
        # underflows, in whole columns for some pairs, and the solver
        # absorbs; values still match the log-domain oracle
        cfg = SinkhornConfig(epsilon=1e-3, max_iters=1500, tol=1e-8)
        flags, zero_columns = set(), 0
        for _ in range(10):
            n, m = rng.integers(2, 7, size=2)
            X, Y = 2.0 * rng.random((int(n), 2)), 2.0 * rng.random((int(m), 2))
            C = 0.5 * ((X[:, None] - Y[None]) ** 2).sum(axis=-1)
            zero_columns += bool((np.exp(-C / cfg.epsilon) == 0.0).all(axis=0).any())
            res, _, _ = cross_term(X, Y, cfg)
            value, _, converged, iterations = ot_entropic_alternating(X, Y, cfg)
            assert np.isfinite(res.value)
            assert abs(res.value - value) <= 1e-9 * abs(value)
            assert (res.iterations, res.converged) == (iterations, converged)
            flags.add(converged)
        assert zero_columns and flags == {True, False}

    def test_self_terms_far_from_the_origin_stay_finite(self, rng):
        # 1e8 from the origin, X @ X.T cancels to about 1 in C's diagonal,
        # 4000 at this eps: left there, it overflowed the stabilized
        # kernel (a RuntimeWarning, an error here)
        cfg = SinkhornConfig(epsilon=1e-3, max_iters=300)
        sets = [1e8 + rng.normal(size=(int(rng.integers(2, 9)), 2)) for _ in range(40)]
        for res, half in self_terms(sets, cfg, grad=True):
            assert np.isfinite(res.value) and np.isfinite(half).all()

    def test_self_terms_match_a_tight_oracle_solve(self, rng):
        # the oracle's own gauge stall leaves some of these sets short of
        # 1e-12 even after 20000 iterations, values off by up to ~1e-8;
        # only its converged solves are a reference
        compared = 0
        for eps in (0.05, 0.1, 0.5):
            cfg = SinkhornConfig(epsilon=eps)
            tight = SinkhornConfig(epsilon=eps, max_iters=2000, tol=1e-12)
            for X, _ in _point_sets(rng, 8):
                res, _ = self_term(X, cfg)
                assert res.converged
                # the dual value is off by the square of the marginal
                # error; 2 <a, f> would be off by ~1e-9 on these sets
                exact, _ = self_term(X, SinkhornConfig(epsilon=eps, max_iters=5000, tol=1e-14))
                assert exact.converged and abs(res.value - exact.value) <= 1e-11
                value, _, converged, _ = ot_entropic_alternating(X, X, tight)
                if converged:
                    assert abs(res.value - value) <= 1e-9
                    compared += 1
        assert compared >= 12

    def test_clustered_self_term_converges(self, rng):
        # two clusters 0.85 apart: moving mass between them costs about
        # 7 eps, so alternating updates crawl along the gauge direction
        X = np.vstack([
            [0.6, 0.0, 0.0] + 0.02 * rng.normal(size=(3, 3)),
            [0.0, 0.6, 0.0] + 0.02 * rng.normal(size=(5, 3)),
        ])
        cfg = SinkhornConfig(epsilon=0.05, max_iters=500)
        assert not ot_entropic_alternating(X, X, cfg)[2]
        res, _ = self_term(X, cfg)
        assert res.converged
        tight, _ = self_term(X, SinkhornConfig(epsilon=0.05, max_iters=5000, tol=1e-13))
        assert abs(res.value - tight.value) <= 1e-9

    def test_marginal_error_decides_convergence(self, rng):
        X, Y = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        for debiased in (True, False):
            for max_iters in (2, 500):
                cfg = SinkhornConfig(epsilon=0.05, max_iters=max_iters, debiased=debiased)
                xx, yy = self_term(X, cfg)[0], self_term(Y, cfg)[0]
                xy = cross_term(X, Y, cfg)[0]
                res = sinkhorn_divergence(X, Y, cfg)
                for r in (xx, yy, xy, res):
                    assert r.converged == (r.marginal_err <= cfg.tol)
                if debiased:
                    assert res.marginal_err == max(xx.marginal_err, yy.marginal_err, xy.marginal_err)
                else:
                    assert res == xy
                assert res.converged == (max_iters == 500)


class TestDivergenceGradients:
    def test_matches_finite_differences(self, rng):
        cfg = SinkhornConfig(epsilon=0.2, max_iters=20000, tol=1e-6)
        h = 1e-6
        for _ in range(5):
            X = rng.normal(size=(rng.integers(2, 6), 3))
            Y = rng.normal(size=(rng.integers(2, 6), 3))
            _, dX, dY, converged = divergence_grad(X, Y, cfg)
            assert converged
            for arr, grad, side in ((X, dX, 0), (Y, dY, 1)):
                flat = arr.reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    fp = sinkhorn_divergence(X, Y, cfg).value
                    flat[k] = orig - h
                    fm = sinkhorn_divergence(X, Y, cfg).value
                    flat[k] = orig
                    fd = (fp - fm) / (2 * h)
                    assert abs(fd - grad.reshape(-1)[k]) <= 1e-6 + 1e-4 * abs(fd)

    def test_gradient_zero_for_identical_sets(self, rng):
        # S(X, X) = 0 is a global minimum over translations of either set,
        # so both gradients must vanish
        X = rng.normal(size=(5, 3))
        _, dX, dY, _ = divergence_grad(X, X.copy(), TIGHT)
        np.testing.assert_allclose(dX, 0.0, atol=1e-8)
        np.testing.assert_allclose(dY, 0.0, atol=1e-8)

    def test_translation_invariance_of_gradient_sum(self, rng):
        # the divergence depends on X - Y offsets only through pairwise
        # distances; shifting both sets together changes nothing, hence
        # total gradient mass balances between the two sets
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(6, 3))
        _, dX, dY, _ = divergence_grad(X, Y, TIGHT)
        np.testing.assert_allclose(dX.sum(axis=0) + dY.sum(axis=0), 0.0, atol=1e-7)


class TestSolveCounts:
    def test_nested_blocks_both_count_the_inner_solves(self, rng):
        A, B = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        with solve_counts() as outer:
            self_term(A)
            with solve_counts() as inner:
                sinkhorn_divergence(A, B)
            self_term(B)
        assert inner == SolveCounts(solves=3, unconverged=0)
        assert outer == SolveCounts(solves=5, unconverged=0)

    def test_block_left_by_an_exception_stops_counting(self, rng):
        X = rng.normal(size=(3, 2))
        with pytest.raises(RuntimeError):
            with solve_counts() as counts:
                self_term(X)
                raise RuntimeError
        self_term(X)
        assert counts.solves == 1

    def test_solves_outside_a_block_are_not_counted(self, rng):
        X = rng.normal(size=(3, 2))
        with solve_counts() as before:
            pass
        self_term(X)
        with solve_counts() as after:
            pass
        assert before.solves == after.solves == 0

    def test_divergence_counts_the_self_terms_it_solves(self, rng):
        A, B = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        starved = SinkhornConfig(epsilon=0.1, max_iters=1)
        self_a, self_b = self_term(A, starved), self_term(B, starved)
        with solve_counts() as counts:
            sinkhorn_divergence(A, B, starved)
        assert counts == SolveCounts(solves=3, unconverged=3)
        with solve_counts() as counts:
            sinkhorn_divergence(A, B, starved, self_a, self_b)
        assert counts == SolveCounts(solves=1, unconverged=1)

        self_a, self_b = self_term(A, TIGHT, grad=True), self_term(B, TIGHT, grad=True)
        with solve_counts() as counts:
            divergence_grad(A, B, TIGHT)
        assert counts == SolveCounts(solves=3, unconverged=0)
        with solve_counts() as counts:
            divergence_grad(A, B, TIGHT, self_a, self_b)
        assert counts == SolveCounts(solves=1, unconverged=0)


class TestDivergencePlan:
    """``_divergences`` plans every comparison: it checks each set once,
    through the ``self_terms`` and ``cross_terms`` calls that solve it,
    and hands each comparison's terms to the one-pair function, called
    by its module-global name once per distinct comparison."""

    CFG = SinkhornConfig(epsilon=0.2, max_iters=200)

    @staticmethod
    def _patch_bundle(rng, n):
        items = {f"i{j}": rng.normal(size=(int(rng.integers(1, 6)), 3)) for j in range(n)}
        return make_bundle("PATCH", 3, items)

    @staticmethod
    def _calls(monkeypatch, *names):
        """Count the calls of each module-global function in ``names``."""
        counts = dict.fromkeys(names, 0)
        for name in names:

            def counted(*args, _fn=getattr(sinkhorn, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(sinkhorn, name, counted)
        return counts

    def test_each_set_is_checked_once_per_solve_call(self, rng, monkeypatch):
        n = 5
        bundle = self._patch_bundle(rng, n)
        unequal = [("i0", "i1"), ("i1", "i0"), ("i2", "i3"), ("i0", "i4")]
        pairs = unequal + [("i2", "i2")] + unequal[::-1]
        counts = self._calls(monkeypatch, "_check_set")
        score_pairs(bundle, pairs, self.CFG)
        # n self terms in one ``self_terms`` call, then each distinct set
        # of the unequal pairs once in one ``cross_terms`` call
        assert counts["_check_set"] == n + len({x for pair in unequal for x in pair})

    def test_each_set_is_measured_once_per_solve_call(self, rng, monkeypatch):
        # a bound of 64 elements splits the repeated sets over many stacks,
        # and each set's squared row norms still come from one call
        n = 5
        bundle = self._patch_bundle(rng, n)
        unequal = [("i0", "i1"), ("i1", "i0"), ("i2", "i3"), ("i0", "i4"), ("i3", "i0")]
        pairs = unequal + [("i2", "i2")] + unequal[::-1]
        monkeypatch.setattr(sinkhorn, "STACK_ELEMENTS", 64)
        counts = self._calls(monkeypatch, "_sqnorms", "_Stack")
        score_pairs(bundle, pairs, self.CFG)
        assert counts["_Stack"] > 2  # more stacks than the two solve calls
        assert counts["_sqnorms"] == n + len({x for pair in unequal for x in pair})

    def test_one_finisher_call_per_distinct_comparison(self, rng, monkeypatch):
        bundle = self._patch_bundle(rng, 5)
        pairs = [("i0", "i1"), ("i1", "i0"), ("i3", "i3"), ("i0", "i1"), ("i2", "i4")]
        counts = self._calls(monkeypatch, "sinkhorn_divergence", "divergence_grad")
        score_pairs(bundle, pairs, self.CFG)
        assert counts == {"sinkhorn_divergence": 4, "divergence_grad": 0}

        mats = [bundle.get(f"i{j}") for j in range(5)]
        rows = [(0, [1, 2, 3]), (1, [0, 2]), (0, [1, 4]), (2, [2, 3])]
        distinct = {(a, j) for a, others in rows for j in others}
        counts.update(sinkhorn_divergence=0, divergence_grad=0)
        patch_losses(mats, rows, LossConfig(patch_metric="SINKHORN"), self.CFG)
        assert counts == {"sinkhorn_divergence": 0, "divergence_grad": len(distinct)}

    def test_a_cross_hand_off_needs_the_self_terms(self, rng):
        A, B = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        cross, cross_g = cross_term(A, B, self.CFG), cross_term(A, B, self.CFG, grad=True)
        self_a = self_term(A, self.CFG)
        for given in ((None, None), (self_a, None), (None, self_term(B, self.CFG))):
            with pytest.raises(InvalidInput):
                sinkhorn_divergence(A, B, self.CFG, *given, cross=cross)
        with pytest.raises(InvalidInput):
            divergence_grad(A, B, self.CFG, self_term(A, self.CFG, grad=True), cross=cross_g)
        raw = SinkhornConfig(epsilon=0.2, max_iters=200, debiased=False)
        assert sinkhorn_divergence(A, B, raw, cross=cross) is cross[0]


def _mixed_sets(rng, count):
    """Unit-row sets of 1 to 40 rows in 6 dims, a few of them clustered,
    which alternating updates solve slowly."""
    sets = []
    for k in range(count):
        X = rng.normal(size=(int(rng.integers(1, 41)), 6))
        if k % 5 == 0:
            X = np.repeat(rng.normal(size=(2, 6)), (len(X) + 1) // 2, axis=0)[: len(X)]
            X += 0.01 * rng.normal(size=X.shape)
        sets.append(X / np.linalg.norm(X, axis=1, keepdims=True))
    return sets


def _spread_sets(rng, count):
    """Sets of 1 to 12 points spread over [0, 2]^2: at eps = 2e-3 their
    kernels exp(-C / eps) underflow, some of them in whole columns."""
    return [2.0 * rng.random((int(rng.integers(1, 13)), 2)) for _ in range(count)]


def _absorptions(monkeypatch):
    """Record each solve stack's problem indices and each absorption, as
    (problem index, iteration) with the iteration counted from 0 in its
    stack, through monkeypatched ``_Stack`` and ``_scale``."""
    stacks, absorbed, steps = [], [], []

    class Recording(sinkhorn._Stack):
        def __init__(self, ks, problems, cfg, cross):
            super().__init__(ks, problems, cfg, cross)
            stacks.append(set(ks))
            steps.append(0)

        def redo(self, b, alpha, beta, row):
            absorbed.append((self.ks[b], steps[-1] // (2 if self.cross else 1)))
            return super().redo(b, alpha, beta, row)

    def scale(*args):
        steps[-1] += 1
        return scale.original(*args)

    scale.original = sinkhorn._scale
    monkeypatch.setattr(sinkhorn, "_Stack", Recording)
    monkeypatch.setattr(sinkhorn, "_scale", scale)
    return stacks, absorbed


def _compactions(monkeypatch):
    """Through monkeypatched ``_Stack`` and ``_scale``, one record per
    solve stack: its entry count B; its compactions, as (entries, closed
    entries dropped); the half-steps it ran with a closed entry in place
    beside an open one; and the absorptions of a closed entry while an
    entry of its stack was open."""
    stacks, live = [], []

    class Recording(sinkhorn._Stack):
        def __init__(self, ks, problems, cfg, cross):
            super().__init__(ks, problems, cfg, cross)
            stacks.append({"B": len(ks), "drops": [], "in_place": 0, "late": 0})
            live.append(self)

        def mixed(self):
            # a closed entry (ns 0) beside an open one
            return np.ndim(self.ns) == 1 and self.ns.any() and not self.ns.all()

        def drop(self, done):
            stacks[-1]["drops"].append((len(self.ks), len(done)))
            super().drop(done)

        def redo(self, b, alpha, beta, row):
            if self.mixed() and self.ns[b] == 0.0:
                stacks[-1]["late"] += 1
            return super().redo(b, alpha, beta, row)

    def scale(*args):
        stacks[-1]["in_place"] += live[-1].mixed()
        return scale.original(*args)

    scale.original = sinkhorn._scale
    monkeypatch.setattr(sinkhorn, "_Stack", Recording)
    monkeypatch.setattr(sinkhorn, "_scale", scale)
    return stacks


class TestBatchedSolves:
    """``cross_terms`` and ``self_terms`` against a loop of one-problem
    calls: the same results and gradients, bit for bit."""

    # 200 iterations: some solves converge at once, some leave their
    # stack later than others and some stop at max_iters
    CFG = SinkhornConfig(epsilon=0.02, max_iters=200, tol=1e-9)

    def _big(self, rng):
        # one set pair over the stack bound, whatever it is: solved alone
        n = math.isqrt(STACK_ELEMENTS) + 2
        A = rng.normal(size=(n, 6))
        B = rng.normal(size=(n + 10, 6))
        assert n * (n + 10) > STACK_ELEMENTS
        return A / np.linalg.norm(A, axis=1, keepdims=True), B / np.linalg.norm(B, axis=1, keepdims=True)

    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0]
            for ga, wa in zip(g[1:], w[1:]):
                assert (ga is None and wa is None) or ga.tobytes() == wa.tobytes()

    @pytest.mark.parametrize("grad", [False, True])
    def test_cross_terms_equal_one_pair_calls(self, rng, grad):
        sets = _mixed_sets(rng, 80)
        pairs = [(sets[k], sets[(7 * k + 3) % len(sets)]) for k in range(len(sets))]
        # one-row sets against long ones: a stack one column wide would be
        # summed pairwise, not row by row
        one = [X for X in sets if len(X) == 1] + [X[:1] for X in sets[:4]]
        pairs += [(X, Y) for Y in one for X in sets[4:9]] + [(Y, X) for Y in one for X in sets[9:14]]
        pairs.insert(17, self._big(rng))
        with solve_counts() as batched:
            got = cross_terms(pairs, self.CFG, grad)
        with solve_counts() as looped:
            want = [cross_term(A, B, self.CFG, grad) for A, B in pairs]
        self._same(got, want)
        assert batched == looped and batched.solves == len(pairs)
        iterations = {r.iterations for r, _, _ in got}
        assert 1 in iterations and self.CFG.max_iters in iterations
        assert any(1 < i < self.CFG.max_iters for i in iterations)
        assert 0 < batched.unconverged < len(pairs)
        for r, _, _ in got:
            assert r.converged == (r.marginal_err <= self.CFG.tol)

    @pytest.mark.parametrize("grad", [False, True])
    def test_self_terms_equal_one_set_calls(self, rng, grad):
        sets = _mixed_sets(rng, 60)
        sets.insert(5, self._big(rng)[0])
        starved = SinkhornConfig(epsilon=0.02, max_iters=3, tol=1e-12)
        # only exact solves (one-row sets) meet this tol: the rest run on
        stalled = SinkhornConfig(epsilon=0.02, max_iters=73, tol=1e-300)
        iterations = []
        for cfg in (self.CFG, starved, stalled):
            with solve_counts() as batched:
                got = self_terms(sets, cfg, grad)
            with solve_counts() as looped:
                want = [self_term(X, cfg, grad) for X in sets]
            self._same(got, want)
            assert batched == looped and batched.solves == len(sets)
            iterations.append({r.iterations for r, _ in got})
        assert iterations[1] == {1, 2, 3} and 73 in iterations[2]

    @pytest.mark.parametrize("grad", [False, True])
    def test_entries_absorb_alone_inside_a_stack(self, rng, monkeypatch, grad):
        # at eps = 2e-3 some cross terms absorb at their first column
        # update, some later and some never, in one stack
        cfg = SinkhornConfig(epsilon=2e-3, max_iters=300, tol=1e-9)
        sets = _spread_sets(rng, 40)
        pairs = [(sets[k], sets[(5 * k + 1) % len(sets)]) for k in range(len(sets))]
        kernels = [np.exp(-0.5 * ((A[:, None] - B[None]) ** 2).sum(axis=-1) / cfg.epsilon) for A, B in pairs]
        assert any((K == 0.0).all(axis=0).any() for K in kernels)
        want = [cross_term(A, B, cfg, grad) for A, B in pairs]
        want_self = [self_term(X, cfg, grad) for X in sets]
        stacks, absorbed = _absorptions(monkeypatch)
        self._same(cross_terms(pairs, cfg, grad), want)
        entries = {k for k, _ in absorbed}
        assert 0 < len(entries) < len(pairs)
        assert any(stack & entries and stack - entries for stack in stacks)
        assert len({it for _, it in absorbed}) > 1
        self._same(self_terms(sets, cfg, grad), want_self)

    @pytest.mark.parametrize("grad", [False, True])
    def test_a_stack_compacts_once_most_of_it_has_closed(self, rng, monkeypatch, grad):
        # these self terms close after 1 to 11 iterations: in the largest
        # stack some close while most run on, and iterate in place, until
        # at least half have closed and the stack compacts
        sets = _mixed_sets(rng, 24)
        want = [self_term(X, self.CFG, grad) for X in sets]
        stacks = _compactions(monkeypatch)
        self._same(self_terms(sets, self.CFG, grad), want)
        assert len({r.iterations for r, _ in want}) > 3
        compacted = [s for s in stacks if s["drops"]]
        assert compacted and all(s["in_place"] for s in compacted)
        for s in compacted:
            size, closed = s["drops"][0]
            assert size == s["B"] and 2 * closed >= size

    @pytest.mark.parametrize("grad", [False, True])
    def test_closed_entries_absorb_beside_open_ones(self, rng, monkeypatch, grad):
        # below every scaling, the bound makes each update absorb, so a
        # closed entry that iterates in place absorbs while its stack's
        # open entries run on; open and closed keep their bits
        sets = _mixed_sets(rng, 24)
        pairs = [(sets[k], sets[(7 * k + 3) % len(sets)]) for k in range(len(sets))]
        monkeypatch.setattr(sinkhorn, "_SCALE_MAX", 1e-3)
        want = [cross_term(A, B, self.CFG, grad) for A, B in pairs]
        stacks = _compactions(monkeypatch)
        self._same(cross_terms(pairs, self.CFG, grad), want)
        assert any(s["late"] for s in stacks)
        assert len({r.iterations for r, _, _ in want}) > 1

    def test_a_stack_of_b_entries_compacts_at_most_log2_b_times(self, rng, monkeypatch):
        # a compaction leaves at most half the entries, and only when at
        # most half of them are open
        sets = _mixed_sets(rng, 80)
        pairs = [(sets[k], sets[(7 * k + 3) % len(sets)]) for k in range(len(sets))]
        stacks = _compactions(monkeypatch)
        for cfg in (self.CFG, SinkhornConfig(epsilon=0.1, max_iters=300, tol=1e-7)):
            self_terms(sets, cfg)
            cross_terms(pairs, cfg)
        assert sum(len(s["drops"]) for s in stacks) > 3
        for s in stacks:
            assert len(s["drops"]) <= math.ceil(math.log2(s["B"]))
            for size, closed in s["drops"]:
                assert 2 * (size - closed) <= size

    def test_scale_equals_the_product_then_sum_half_step(self, rng):
        """``_scale`` against m / np.add.reduce(E * s[..., None], axis=-2),
        bit for bit: on padded stacks whose padded rows have scaling 0 and
        kernel entries 1, with scalings from e^-TAU up to e^TAU, and on
        each entry alone in the 2-D form of a one-entry stack, which like
        every stack is at least 2 x 2 (a width-1 axis would let einsum
        sum over i in its own order). The
        equality relies on numpy's baseline einsum kernel forming each
        product and then adding it, with no fused multiply-add, as
        ``np.multiply`` followed by ``np.add.reduce`` does."""
        for _ in range(100):
            B, N, M = (int(x) for x in rng.integers(2, 24, size=3))
            E = np.exp(rng.uniform(-40.0, 0.0, (B, N, M)))
            s = np.exp(rng.uniform(-sinkhorn.TAU, sinkhorn.TAU, (B, N)))
            s[0, 0] = sinkhorn._SCALE_MAX
            m = rng.random((B, M))
            sizes = [(int(rng.integers(1, N + 1)), int(rng.integers(1, M + 1))) for _ in range(B)]
            for b, (n, mb) in enumerate(sizes):
                E[b, n:], E[b, :, mb:], s[b, n:], m[b, mb:] = 1.0, 1.0, 0.0, 0.0
            want = m / np.add.reduce(E * s[..., None], axis=-2)
            assert sinkhorn._scale(E, s, m).tobytes() == want.tobytes()
            for b, (n, mb) in enumerate(sizes):
                if min(n, mb) < 2:
                    continue
                alone = sinkhorn._scale(np.ascontiguousarray(E[b, :n, :mb]), s[b, :n], m[b, :mb])
                assert alone.tobytes() == want[b, :mb].tobytes()

    def test_self_term_scalings_stay_inside_the_zero_diagonal_bound(self, rng, monkeypatch):
        # K's zero diagonal keeps every self-term scaling within
        # [n^-2.5, n^3.5] (see _run), so no self term needs to absorb,
        # even where exp(-C / eps) underflows almost everywhere
        cfg = SinkhornConfig(epsilon=1e-4, max_iters=200, tol=1e-12)
        bounds = []

        def scale(E, s, m):
            out = original(E, s, m)
            N = E.shape[-1]
            bounds.append((N ** -2.5 <= out[out > 0].min(), out.max() <= N ** 3.5))
            return out

        original = sinkhorn._scale
        monkeypatch.setattr(sinkhorn, "_scale", scale)
        for res, half in self_terms(_spread_sets(rng, 40), cfg, grad=True):
            assert np.isfinite(res.value) and np.isfinite(half).all()
        assert bounds and all(low and high for low, high in bounds)

    def test_a_bound_below_every_scaling_absorbs_each_update(self, rng, monkeypatch):
        # every cross-term update is then redone in the log domain, the
        # absorbing path; the results keep their bits in any stack and
        # match the solves at the derived bound to rounding
        sets = _mixed_sets(rng, 30)
        pairs = [(sets[k], sets[(7 * k + 3) % len(sets)]) for k in range(len(sets))]

        def solve(cfg, batched):
            return cross_terms(pairs, cfg, True) if batched else [cross_term(A, B, cfg, True) for A, B in pairs]

        for cfg in (self.CFG, SinkhornConfig(epsilon=0.02, max_iters=3, tol=1e-9)):
            stable = solve(cfg, True)
            with monkeypatch.context() as patch:
                patch.setattr(sinkhorn, "_SCALE_MAX", 1e-3)
                want = solve(cfg, False)
                _, absorbed = _absorptions(patch)
                got = solve(cfg, True)
            self._same(got, want)
            assert {k for k, _ in absorbed} == set(range(len(got)))
            for g, w in zip(got, stable):
                assert (g[0].iterations, g[0].converged) == (w[0].iterations, w[0].converged)
                assert abs(g[0].value - w[0].value) <= 1e-12
                assert g[0].marginal_err == pytest.approx(w[0].marginal_err, rel=1e-6, abs=1e-14)
                for ga, wa in zip(g[1:], w[1:]):
                    np.testing.assert_allclose(ga, wa, rtol=0, atol=1e-12)

    def test_empty_calls_solve_nothing(self):
        with solve_counts() as counts:
            assert cross_terms([]) == [] and self_terms([]) == []
        assert counts.solves == 0

    def test_stacks_stay_within_the_element_bound(self, rng, monkeypatch):
        built = []

        class Recording(sinkhorn._Stack):
            def __init__(self, ks, problems, cfg, cross):
                super().__init__(ks, problems, cfg, cross)
                built.append((len(ks), self.buf.size, set(self.shapes)))

        monkeypatch.setattr(sinkhorn, "_Stack", Recording)
        sets = _mixed_sets(rng, 80)
        A, B = self._big(rng)
        pairs = [(sets[k], sets[-k - 1]) for k in range(len(sets))] + [(A, B)]
        cross_terms(pairs, self.CFG)
        self_terms(sets + [A], self.CFG)
        assert len(built) > 4
        for count, elements, shapes in built:
            if shapes & {(len(A), len(B)), (len(A), len(A))}:
                assert count == 1  # an over-bound problem runs alone
            else:
                assert elements <= STACK_ELEMENTS

    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("grad", [False, True])
    def test_an_over_bound_problem_holds_no_copy_of_its_kernel(self, rng, cross, grad):
        # 1024 x 1024, the default max_tokens. A cross term holds K, K^T
        # and the scratch space, a self term K^T and the scratch space;
        # the plan is built in the scratch space, so gradients add none
        A, B = rng.normal(size=(1024, 8)), rng.normal(size=(1024, 8))
        cfg = SinkhornConfig(max_iters=2)
        solve = (lambda: cross_term(A, B, cfg, grad)) if cross else (lambda: self_term(A, cfg, grad))
        solve()
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (3 if cross else 2) + 0.1
        assert peak <= arrays * 1024 * 1024 * 8

    def test_an_absorbing_over_bound_problem_holds_no_copy_of_its_kernel(self, rng, monkeypatch):
        # an absorption recomputes K from the points in E's memory: at
        # eps = 1e-3 the cross term absorbs at its first column update
        A, B = rng.normal(size=(1024, 8)), rng.normal(size=(1024, 8))
        cfg = SinkhornConfig(epsilon=1e-3, max_iters=2)
        cross_term(A, B, cfg, True)
        _, absorbed = _absorptions(monkeypatch)
        tracemalloc.start()
        try:
            cross_term(A, B, cfg, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert absorbed
        assert peak <= 3.1 * 1024 * 1024 * 8


class TestSubsampling:
    def test_identity_when_under_cap(self, rng):
        Z = rng.normal(size=(5, 3))
        out = subsample_tokens(Z, 10, seed=0)
        assert out is Z or (out == Z).all()

    def test_deterministic_and_sorted(self, rng):
        Z = rng.normal(size=(50, 3))
        a = subsample_tokens(Z, 8, seed=7)
        b = subsample_tokens(Z, 8, seed=7)
        assert (a == b).all()
        assert a.shape == (8, 3)
        # rows keep their original relative order
        idx = [int(np.flatnonzero((Z == row).all(axis=1))[0]) for row in a]
        assert idx == sorted(idx)

    def test_different_seeds_differ(self, rng):
        Z = rng.normal(size=(50, 3))
        a = subsample_tokens(Z, 8, seed=1)
        b = subsample_tokens(Z, 8, seed=2)
        assert not (a == b).all()


class TestValidation:
    def test_empty_set_rejected(self):
        with pytest.raises(InvalidInput):
            sinkhorn_divergence(np.zeros((0, 3)), np.zeros((2, 3)), TIGHT)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            sinkhorn_divergence(np.zeros((2, 3)), np.zeros((2, 4)), TIGHT)

    def test_non_finite_rejected(self):
        X = np.array([[np.inf, 0.0]])
        with pytest.raises(InvalidInput):
            sinkhorn_divergence(X, np.zeros((1, 2)), TIGHT)

    def test_the_first_bad_set_in_pair_order_names_its_slot(self):
        # a call checks each set once, where it first comes in pair order,
        # so a reused set's error names the slot of its first place
        good, wide, bad = np.zeros((2, 2)), np.zeros((2, 3)), np.array([[np.inf, 0.0]])
        cases = [
            ([(good, bad), (bad, good)], InvalidInput, "B contains non-finite values"),
            ([(good, good), (bad, bad)], InvalidInput, "A contains non-finite values"),
            ([(good, wide), (good, bad)], ShapeError, "dimension mismatch"),
            ([(good, good), (good, bad), (wide, good)], InvalidInput, "B contains"),
        ]
        for pairs, error, message in cases:
            with pytest.raises(error, match=message):
                cross_terms(pairs, TIGHT)
        with pytest.raises(InvalidInput, match="X contains non-finite values"):
            self_terms([good, good, bad], TIGHT)

    def test_over_token_cap_rejected(self):
        cfg = SinkhornConfig(epsilon=0.1, max_tokens=4)
        with pytest.raises(InvalidInput):
            sinkhorn_divergence(np.zeros((5, 2)), np.zeros((2, 2)), cfg)

    def test_bad_config(self):
        with pytest.raises(InvalidInput):
            SinkhornConfig(epsilon=0.0)
        with pytest.raises(InvalidInput):
            SinkhornConfig(max_iters=0)
