"""Entropic optimal transport: divergence values, gradients, invariants."""
import numpy as np
import pytest

from instasim.errors import InvalidInput, ShapeError
from instasim.sinkhorn import (
    SinkhornConfig,
    SolveCounts,
    cross_term,
    divergence_grad,
    self_term,
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

    def test_over_token_cap_rejected(self):
        cfg = SinkhornConfig(epsilon=0.1, max_tokens=4)
        with pytest.raises(InvalidInput):
            sinkhorn_divergence(np.zeros((5, 2)), np.zeros((2, 2)), cfg)

    def test_bad_config(self):
        with pytest.raises(InvalidInput):
            SinkhornConfig(epsilon=0.0)
        with pytest.raises(InvalidInput):
            SinkhornConfig(max_iters=0)
