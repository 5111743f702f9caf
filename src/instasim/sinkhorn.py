"""Debiased entropic optimal transport between patch sets.

The patch-level similarity of two images compares their token matrices
A (P1 x D) and B (P2 x D) as uniform point clouds under the quadratic
cost c(x, y) = 0.5 * ||x - y||^2. We solve the entropy-regularized
problem by log-stabilized Sinkhorn scalings and report the debiased
divergence

    S_eps(A, B) = OT_eps(A, B) - 0.5 * OT_eps(A, A) - 0.5 * OT_eps(B, B)

which is non-negative and vanishes when A equals B, unlike the raw
entropic cost. ``epsilon`` is the single regularization strength
exposed here (0.05 by default); under the quadratic cost a "blur"
radius parameterization would be blur = sqrt(eps), and no second knob
is provided.

Callers that want the normalized-token convention (unit L2 rows)
prepare their sets with ``patch_sets``; the solver takes rows as given.

Gradients use the envelope theorem: at a converged plan T the value is
stationary in the potentials, so d OT / d C_ij = T_ij and the position
gradients follow from the chain rule through the quadratic cost. For
the self terms both argument slots contribute.

The solves are public: ``self_terms`` (OT_eps(X, X), which depends on
one set only) and ``cross_terms`` solve many problems together and
return one result per problem, in input order; ``self_term`` and
``cross_term`` are their one-problem calls. ``_divergences`` plans
every divergence: it solves the missing terms of many comparisons in
one call of each and hands each comparison's terms (``cross`` among
them) to ``sinkhorn_divergence`` or ``divergence_grad``, which then
only debias; called without ``cross``, those two are its one-entry
calls. A caller that compares one set with many others prepares it
once with ``patch_sets`` and passes its self term in. A caller that
reports how many solves stopped at max_iters opens ``with
solve_counts() as counts:``; every solve run inside the block, at any
depth of calls, adds to ``counts``.

One kernel runs every solve (GeomLoss batches point clouds the same
way; Feydy et al., AISTATS 2019). A call checks each distinct set once
and computes the squared norms of its rows once, whatever number of
problems share it. Problems are sorted by shape and stacked in chunks,
zero-padded to (B, N, M) and bounded by STACK_ELEMENTS padded
elements, not by a pair count, so its working memory stays small
whatever the token count; a problem over the bound is solved alone.
The loop runs Schmitzer's log-stabilized scaling algorithm
("Stabilized Sparse Scaling Algorithms for Entropy Regularized
Transport Problems", SIAM J. Sci. Comput. 2019, section 3): each
problem's kernel is kept as E = exp(-C / eps + f + g), built from
absorbed log potentials f and g, and a half-step updates scalings on
it in one einsum pass over the stack, a contraction over a leading
axis, then a division by the marginal. einsum adds that axis one row
at a time: padded rows, whose scalings are 0, add exactly 0.0, and a
problem gives the same bits in any stack. A cross term whose update
returns a scaling above e^TAU, the largest that keeps the kernel's
underflowed mass below rounding, or whose sum underflowed to 0,
absorbs alone (a self term's scalings stay far inside that bound):
that update is redone as a log-sum-exp, its potentials become the new
f and g, and its slice of E is rebuilt from -C / eps, recomputed from
its points and their norms. A problem closes at the iteration it meets
tol: its result is taken then, and it iterates on in place, out of the
stopping test, so that a close copies nothing. Its stack is compacted
to the problems still open only once at most half of them are, so a
stack of B problems compacts at most log2(B) times.

A note on tolerances: every solve stops when the worst row-marginal
violation of its plan drops to tol, and the check reuses the next
half-step's scalings, so it costs no pass over the stack. The result
carries that violation as ``marginal_err``. Cross terms use
alternating updates. Where both sets hold clusters several times
epsilon apart, these approach the fixed point along the potentials'
gauge direction at a rate of roughly 1 - exp(-gap/eps), so a tol far
below 1e-6 can take very many iterations; the value and the plan are
gauge-invariant and settle orders of magnitude sooner. Self terms use
the symmetric averaged update, which has no gauge direction, so
clustered sets do not stall them: a self term that alternating updates
leave unconverged after hundreds of iterations typically meets tol
within ten.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidInput, ShapeError
from .records import _is_count
from .rng import derived_rng


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver settings; checked when built, so an instance is valid."""

    epsilon: float = 0.05
    max_iters: int = 500
    tol: float = 1e-6
    max_tokens: int = 1024
    debiased: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidInput(f"epsilon must be positive and finite, got {self.epsilon}")
        if not _is_count(self.max_iters, 1):
            raise InvalidInput(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidInput(f"tol must be positive and finite, got {self.tol}")
        if not _is_count(self.max_tokens, 1):
            raise InvalidInput(f"max_tokens must be >= 1, got {self.max_tokens!r}")


@dataclass
class SinkhornResult:
    """A solve's value, whether it met tol within max_iters, the
    iterations it ran and its final worst row-marginal violation;
    ``converged`` is ``marginal_err <= tol``."""

    value: float
    converged: bool
    iterations: int
    marginal_err: float


@dataclass
class SolveCounts:
    """How many Sinkhorn solves ran, and how many of them stopped at
    max_iters without meeting tol; ``solve_counts`` yields one."""

    solves: int = 0
    unconverged: int = 0

    def add(self, result: SinkhornResult) -> None:
        self.solves += 1
        self.unconverged += not result.converged


# the tallies of the open ``solve_counts`` blocks, outermost first
_open_tallies: ContextVar[tuple[SolveCounts, ...]] = ContextVar("_open_tallies", default=())


@contextmanager
def solve_counts() -> Iterator[SolveCounts]:
    """Tally every solve that ``self_term`` and ``cross_term`` run inside
    the block, in this thread or task. Nested blocks each count every
    solve run inside them."""
    counts = SolveCounts()
    token = _open_tallies.set(_open_tallies.get() + (counts,))
    try:
        yield counts
    finally:
        _open_tallies.reset(token)


def _tally(result: SinkhornResult) -> None:
    for counts in _open_tallies.get():
        counts.add(result)


def subsample_tokens(Z: np.ndarray, max_tokens: int, seed: int) -> np.ndarray:
    """Cap a token matrix at ``max_tokens`` rows.

    Returns Z unchanged when it already fits. Otherwise draws a uniform
    sample without replacement, deterministic per seed; selected rows
    keep their original relative order.
    """
    if max_tokens < 1:
        raise InvalidInput(f"max_tokens must be >= 1, got {max_tokens}")
    Z = np.asarray(Z)
    if Z.ndim != 2:
        raise InvalidInput(f"expected a 2-D token matrix, got shape {Z.shape}")
    if Z.shape[0] <= max_tokens:
        return Z
    rng = derived_rng(seed, "token-subsample")
    idx = np.sort(rng.choice(Z.shape[0], size=max_tokens, replace=False))
    return Z[idx]


def _check_set(name: str, M, cfg: SinkhornConfig) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise InvalidInput(f"{name} must be a non-empty 2-D matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidInput(f"{name} contains non-finite values")
    if M.shape[0] > cfg.max_tokens:
        raise InvalidInput(
            f"a token set has {M.shape[0]} rows, over the {cfg.max_tokens} cap "
            "that --max-tokens sets"
        )
    return M


def _checker(cfg: SinkhornConfig):
    """check(name, M) for one solve call: M as a checked float64 matrix
    and the squared norms of its rows, both made once per distinct array.
    The table is keyed by id(M), so the call must hold every M it checks
    until it returns; it dies with the call."""
    seen: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def check(name: str, M) -> tuple[np.ndarray, np.ndarray]:
        if id(M) not in seen:
            X = _check_set(name, M, cfg)
            seen[id(M)] = X, _sqnorms(X)
        return seen[id(M)]

    return check


def _sqnorms(X: np.ndarray) -> np.ndarray:
    """The squared norms of X's rows."""
    return np.add.reduce(X * X, axis=1)


def _from_products(P: np.ndarray, xx: np.ndarray, yy: np.ndarray, same: bool, tmp=None):
    """C_ij = 0.5 * max(xx_i + yy_j - 2 P_ij, 0) in P's memory, from the
    products P_ij = X_i . Y_j and the squared row norms xx and yy, for
    one problem (n x m) or a padded stack of them (B x N x M, with
    (B, N) and (B, M) norms); ``tmp`` (P's shape) is the scratch space.
    Every step is elementwise, so a stack gives each entry the bits of
    its one-problem call. For a self term (``same``, Y is X), numpy forms
    X @ X.T with a symmetric product, so C is exactly symmetric, and its
    diagonal is set to exactly 0, which bounds a self term's stabilized
    kernel by 1 (see TAU): rounding leaves up to about |X_i|^2 2^-52
    there, enough to overflow it for clouds far from the origin."""
    np.multiply(P, 2.0, out=P)
    sq = np.add(xx[..., :, None], yy[..., None, :], out=tmp)
    np.subtract(sq, P, out=P)
    np.maximum(P, 0.0, out=P)
    if same:
        P.reshape(*P.shape[:-2], -1)[..., :: P.shape[-1] + 1] = 0.0
    return np.multiply(P, 0.5, out=P)


# padded elements B x N x M of one solve stack, which holds E, E^T and a
# scratch array of that size (256 KiB of float64 each); a problem over
# it is solved alone. A stack iteration costs mostly a fixed dozen ufunc
# calls, so fewer, fuller stacks pay until the arrays outgrow the cache.
# The 16 solve calls of one pass of the bench's patch workload, replayed
# in one process with the bounds interleaved over 40 rounds, took these
# medians (ms; 2-vCPU x86-64 VM, one BLAS thread):
#
#     bound      2^14   2^15   2^16   2^17
#     seed 1     94.9   90.2   91.6   91.4
#     seed 367  101.9   94.3   98.5  100.2
#
# 2^15 is the smallest bound within noise of the fastest; every bound
# gave the same bits.
STACK_ELEMENTS = 1 << 15

# Every scaling a half-step returns is kept at most e^TAU; an entry with
# one above it absorbs. E = exp(K + f + g) is built from the potentials
# of a plan with an exact marginal, or for a self term from (u, u) with
# u <= 0 (its first update, K_ii = 0), so E_ij <= 1, and an entry that
# exp flushed to zero or left subnormal is off by less than 2^-1074. A
# half-step sums n products E_ij s_i with every s_i <= e^TAU and keeps
# its result r_j = b_j / sum only when r_j <= e^TAU, that is when the
# sum is at least e^-TAU / m. The underflowed mass, at most n e^TAU
# 2^-1074, is then a share of the sum of at most n m e^(2 TAU) 2^-1074:
# below rounding, 2^-53, when e^(2 TAU) <= 2^(1021 - 40), for any kernel
# that fits in memory (n m < 2^40 elements, 8 TiB per array). Nothing
# overflows: a sum is at most n e^TAU < 2^40 e^340 and a plan entry at
# most e^(2 TAU), far below 2^1024. Scalings need no lower bound: the
# share does not depend on one, and with E_ij <= 1 each is at least
# e^-TAU / (n m) anyway.
TAU = (1021 - 40) / 2 * math.log(2.0)
_SCALE_MAX = math.exp(TAU)


def _half_step(K: np.ndarray, h: np.ndarray, log_m: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """log_m[b, j] - log sum_i exp(K[b, i, j] + h[b, i]), the log-sum-exp
    over each stack entry's leading axis i, max-shifted; ``buf`` (K's
    shape) is the scratch space. The log-domain half-step: it starts
    every solve and redoes the half-step of an absorbed entry.

    numpy sums a non-innermost axis one row at a time, so each entry's
    sum runs in the same order whatever the stack holds, and a padded
    row with h = -inf adds exactly 0.0. The innermost axis must be at
    least 2 wide: a width-1 stack would be summed pairwise. The ufunc
    reductions skip the Python wrappers of ``max`` and ``sum``, which
    cost more than a small stack's arithmetic."""
    np.add(K, h[..., None], out=buf)
    mx = np.maximum.reduce(buf, axis=-2, keepdims=True)
    np.subtract(buf, mx, out=buf)
    np.exp(buf, out=buf)
    s = np.add.reduce(buf, axis=-2)
    np.add(mx[..., 0, :], np.log(s, out=s), out=s)
    return np.subtract(log_m, s, out=s)


def _scale(E: np.ndarray, s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m[b, j] / sum_i E[b, i, j] s[b, i], the scaling half-step: one
    einsum pass over the stack and a division. einsum (not optimized,
    so never BLAS) runs E's contiguous axis j, at least 2 wide as in
    ``_half_step``, innermost and adds one row of products at a time, as
    ``np.add.reduce`` over i would, so a padded row, with scaling 0 and
    kernel entries 1, adds exactly 0.0. A sum that underflowed to 0
    gives an infinite scaling (numpy's divide warning is off)."""
    t = np.einsum("...ij,...i->...j", E, s)
    return np.divide(m, t, out=t)


class _Stack:
    """A chunk of solves as zero-padded stacks of stabilized kernels
    (Schmitzer, SIAM J. Sci. Comput. 2019, section 3): E (B, N, M) =
    exp(K + f + g) for the column update and, for cross terms only, its
    transpose E^T (B, M, N) for the row update, so that both half-steps
    reduce over a leading axis; K is -C / eps of the (X, Y, xx, yy)
    problems at indices ``ks``, whose xx and yy are the squared row
    norms of X and Y, and f and g are the absorbed log potentials. A
    self term's K is symmetric and its f is its g, so its column update
    is its row update. The potentials are u = f + log alpha and
    v = g + log beta for the scalings the loop carries; padded rows and
    columns have scaling and marginal 0 and kernel entries 1. ``ns``
    holds each entry's row count as a float, the divisor of its error,
    and 0 once the entry is closed. A stack of one entry drops the B
    axis: numpy runs 2-D operations faster, with the same bits; ``real``
    then marks its rows that are not padding (True when none is), and
    ``ns`` is its row count. When that entry needs no padding either,
    its K is built in E's memory, and an absorption recomputes it there
    from the points, so a problem over STACK_ELEMENTS holds three arrays
    of its size (E, E^T and the scratch space of the log-domain steps
    and the plan), a self term two.

    The padded stack is built as a whole where the bits allow. Each
    entry's products X @ Y.T are its own matmul, built contiguously and
    copied into E (a batched or padded product may round differently);
    the rest of K is elementwise and runs over the whole stack, from the
    norms the problems carry, E^T is one copy of E's transpose, and the
    marginals come from masks over the shapes, with -log n computed once
    per distinct size."""

    def __init__(self, ks: list[int], problems, cfg: SinkhornConfig, cross: bool):
        self.ks, self.problems, self.cross, self.eps = ks, problems, cross, cfg.epsilon
        self.shapes = shapes = [(len(problems[k][0]), len(problems[k][1])) for k in ks]
        # -log n of each distinct size in the stack, one scalar call each
        self.logs = {n: -np.log(n) for n in {n for shape in shapes for n in shape}}
        B = len(ks)
        N = max(2, max(n for n, _ in shapes))
        M = max(2, max(m for _, m in shapes))
        self.buf = np.empty(B * N * M)
        if shapes == [(N, M)]:
            E = self._kernel(problems[ks[0]], np.empty((N, M)), self.buf.reshape(N, M))
            Et = np.ascontiguousarray(E.T) if cross else E
            loga = np.full(N, self.logs[N])
            logb = np.full(M, self.logs[M]) if cross else loga
            rows = cols = None
        else:
            rows = np.arange(N) < np.array([n for n, _ in shapes])[:, None]
            cols = np.arange(M) < np.array([m for _, m in shapes])[:, None] if cross else rows
            E = np.zeros((B, N, M))
            for b, k in enumerate(ks):
                X, Y = problems[k][:2]
                E[b, : len(X), : len(Y)] = X @ Y.T
            xx = np.zeros((B, N))
            xx[rows] = np.concatenate([problems[k][2] for k in ks])
            yy = np.zeros((B, M)) if cross else xx
            if cross:
                yy[cols] = np.concatenate([problems[k][3] for k in ks])
            _from_products(E, xx, yy, not cross, self.buf.reshape(B, N, M))
            np.divide(E, -self.eps, out=E)
            Et = np.empty((B, M, N)) if cross else E
            if cross:
                np.copyto(Et, E.swapaxes(-1, -2))
            loga = np.where(rows, np.array([[self.logs[n]] for n, _ in shapes]), -np.inf)
            logb = loga
            if cross:
                logb = np.where(cols, np.array([[self.logs[m]] for _, m in shapes]), -np.inf)
        u0 = _half_step(Et, logb, loga, self.buf.reshape(Et.shape))
        am = np.exp(loga)
        bm = np.exp(logb) if cross else am
        # f = u0 and g = log b (u0 for a self term), 0 at padding, so
        # that E = exp(K + f + g) is 1 there
        if rows is None:
            f, g, alpha = u0, logb.copy() if cross else u0.copy(), np.ones(N)
        else:
            f = np.where(rows, u0, 0.0)
            g = np.where(cols, logb, 0.0) if cross else f.copy()
            alpha = rows.astype(float)
        np.add(E, f[..., None], out=E)
        np.add(E, g[..., None, :], out=E)
        for b, (n, m) in enumerate(shapes):
            if (n, m) != (N, M):
                E[b, n:], E[b, :, m:] = 0.0, 0.0
        np.exp(E, out=E)
        if cross:
            np.copyto(Et, E.swapaxes(-1, -2))
        arrays = [E, Et, am, bm, f, g, alpha, np.zeros_like(alpha), rows]
        if rows is not None and B == 1:
            arrays = [a[0] for a in arrays]
        self.E, self.Et, self.am, self.bm, self.f, self.g, self.alpha, self.d, rows = arrays
        self.ns = shapes[0][0] if B == 1 else np.array([float(n) for n, _ in shapes])
        self.real = True if all(n == N for n, _ in shapes) else rows

    def _kernel(self, problem, out=None, tmp=None) -> np.ndarray:
        """K = -C / eps of one (X, Y, xx, yy) problem, in ``out`` (n x m)
        when given, with ``tmp`` (n x m) as scratch space, in the same
        bits; C_ij = 0.5 * ||X_i - Y_j||^2 is clipped at zero against
        rounding."""
        X, Y, xx, yy = problem
        K = _from_products(np.matmul(X, Y.T, out=out), xx, yy, Y is X, tmp)
        return np.divide(K, -self.eps, out=K)

    def rows(self, a: np.ndarray) -> np.ndarray:
        """``a`` with its B axis, when the stack dropped it."""
        return a.reshape(len(self.ks), -1)

    def over(self, s: np.ndarray) -> list[int]:
        """The entries with a scaling in ``s`` above e^TAU."""
        return np.flatnonzero(np.maximum.reduce(self.rows(s), axis=1) > _SCALE_MAX).tolist()

    def redo(self, b: int, alpha: np.ndarray, beta: np.ndarray, row: bool):
        """Entry b's column update from u = f + log alpha (``row`` False)
        or, for cross terms, its row update from v = g + log beta, in the
        log domain on K recomputed from its points. Returns (K, u, v),
        the updated potential in place of the one it replaced; K is
        entry b's own array, or E's memory in the one-entry stack that
        built its K there."""
        n, m = self.shapes[b]
        problem = self.problems[self.ks[b]]
        if self.E.shape == (n, m):
            K, scratch = self._kernel(problem, self.E, self.buf.reshape(n, m)), self.buf
        else:
            K, scratch = self._kernel(problem), np.empty(n * m)
        if row:
            v = self.rows(self.g)[b, :m] + np.log(self.rows(beta)[b, :m])
            Kt = self.Et if K is self.E else np.empty((m, n))
            np.copyto(Kt, K.T)
            return K, _half_step(Kt, v, np.full(n, self.logs[n]), scratch.reshape(m, n)), v
        u = self.rows(self.f)[b, :n] + np.log(self.rows(alpha)[b, :n])
        return K, u, _half_step(K, u, np.full(m, self.logs[m]), scratch.reshape(n, m))

    def absorb(self, b: int, K: np.ndarray, f: np.ndarray, g: np.ndarray, alpha, beta) -> None:
        """Make f and g entry b's absorbed potentials: its slice of E (and
        E^T) becomes exp(K + f + g), built in place of K when K is E's
        memory, and its scalings 1."""
        n, m = self.shapes[b]
        Eb = K if K is self.E else self.E.reshape(-1, *self.E.shape[-2:])[b, :n, :m]
        np.add(K, f[:, None], out=Eb)
        np.add(Eb, g, out=Eb)
        np.exp(Eb, out=Eb)
        if self.cross:
            np.copyto(self.Et.reshape(-1, *self.Et.shape[-2:])[b, :m, :n], Eb.T)
        self.rows(self.f)[b, :n], self.rows(self.g)[b, :m] = f, g
        self.rows(alpha)[b, :n], self.rows(beta)[b, :m] = 1.0, 1.0

    def plan(self, b: int, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Entry b's plan E_ij alpha_i beta_j, built in the scratch
        space: valid until the next half-step."""
        n, m = len(alpha), len(beta)
        T = self.buf[: n * m].reshape(n, m)
        np.multiply(self.E.reshape(-1, *self.E.shape[-2:])[b, :n, :m], alpha[:, None], out=T)
        return np.multiply(T, beta, out=T)

    def close(self, done: list, errs: list, it: int, tol: float, alpha, beta, grad, out):
        """Put in ``out`` what ``_solve`` returns for the entries at the
        ``done`` indices, closed at iteration ``it`` with errors ``errs``
        and scalings ``alpha`` and ``beta``. Their log potentials
        u = f + log alpha and v = g + log beta are formed together,
        elementwise, so each entry keeps its bits."""
        alphas, betas = self.rows(alpha), self.rows(beta)
        us = self.rows(self.f) + np.log(alphas)
        vs = self.rows(self.g) + np.log(betas)
        for b, err in zip(done, errs):
            (n, m), k = self.shapes[b], self.ks[b]
            # np.add.reduce(x) / n is numpy's own mean, in the same bits
            mean_u, mean_v = np.add.reduce(us[b, :n]) / n, np.add.reduce(vs[b, :m]) / m
            value = self.eps * float((mean_u - self.logs[n]) + (mean_v - self.logs[m]))
            result = SinkhornResult(value, err <= tol, it, err)
            if not grad:
                out[k] = (result, None, None) if self.cross else (result, None)
                continue
            T = self.plan(b, alphas[b, :n], betas[b, :m])
            dX, dY = _ot_position_grads(*self.problems[k][:2], T)
            out[k] = (result, dX, dY) if self.cross else (result, 0.5 * (dX + dY))

    def drop(self, done: np.ndarray) -> None:
        """Compact the stack: take the closed entries at the ``done``
        indices, some but not all, out of every per-entry array. The loop
        calls it only once at most half of the entries are still open, so
        a stack of B entries compacts at most log2(B) times."""
        keep = np.ones(len(self.ks), dtype=bool)
        keep[done] = False
        self.ks = [k for k, kept in zip(self.ks, keep) if kept]
        self.shapes = [shape for shape, kept in zip(self.shapes, keep) if kept]
        names = ("E", "am", "f", "g", "alpha", "alpha2", "d", "ns")
        for name in names + (("Et", "bm", "beta") if self.cross else ()):
            setattr(self, name, getattr(self, name)[keep])
        if not self.cross:
            self.Et, self.bm, self.beta = self.E, self.am, self.alpha2


def _chunks(items: list, shape) -> Iterator[list]:
    """Consecutive runs of ``items`` whose padded stack, at least 2 x 2
    per entry, holds at most STACK_ELEMENTS elements; a solve over that
    bound is a chunk of its own. ``shape(item)`` is its (n, m)."""
    chunk, N, M = [], 2, 2
    for item in items:
        n, m = shape(item)
        if chunk and (len(chunk) + 1) * max(N, n) * max(M, m) > STACK_ELEMENTS:
            yield chunk
            chunk, N, M = [], 2, 2
        chunk.append(item)
        N, M = max(N, n), max(M, m)
    if chunk:
        yield chunk


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _run(ks: list[int], problems, cfg: SinkhornConfig, cross: bool, grad: bool, out: list) -> None:
    """Iterate one stack of the problems at indices ``ks`` until each
    meets tol or reaches max_iters, with what ``_solve`` returns for
    each problem in ``out``.

    One iteration starts from the row scalings alpha (u = f + log alpha).
    Cross terms alternate: the column update beta = b / E^T alpha
    (v = log b - lse_i(K_ij + u_i)), then the row update alpha' =
    a / E beta, the next u. Self terms take the symmetric averaged
    update: beta = alpha' = a / E^T alpha, the row update T(u), and the
    next alpha is sqrt(alpha * alpha'), u <- (u + T(u)) / 2. Either way
    the plan E_ij alpha_i beta_j has exact column marginals and row
    marginal a * alpha / alpha', which gives the stopping test without a
    pass of its own; alpha <= e^TAU keeps that test accurate whatever
    alpha' is, so the row update's range is tested only when alpha'
    becomes the next alpha.

    A cross term whose update returns a scaling above e^TAU, or whose
    sum underflowed to 0, is absorbed alone: that update is redone in
    the log domain by ``_half_step`` from its input potential, f and g
    become the two potentials, and the entry's kernel is rebuilt. A self
    term's scalings stay in [n^-2.5, n^3.5] (see the column update), so
    it never absorbs.

    An entry closes at the iteration it meets tol: its result is taken
    then, and it keeps iterating in place, its error read as +inf, so a
    close costs no copy. The stack is compacted (``_Stack.drop``) only
    once at most half of its entries are open. A closed entry still
    absorbs: left alone, its scalings could overflow to inf and its sums
    to NaN, and a NaN would hide an open entry's scaling from the
    ``> _SCALE_MAX`` test. The entries' arithmetic does not depend on one
    another, so an open entry keeps its bits.

    In a stack of several entries, padded rows have alpha = alpha' = 0,
    and their ratio is NaN (0/0), which the error's ``np.fmax`` skips. A
    real row never holds NaN: its alpha lies in (0, e^TAU], a row
    marginal is positive and its sum, over kernel entries at most 1 and
    scalings at most e^TAU, is finite, so alpha' lies in (0, inf] and
    alpha / alpha' is finite. A closed entry divides by an ``ns`` of 0,
    which gives +inf, or NaN when its error is exactly 0; ``np.fmin``
    and ``<= tol`` pass over both. A one-entry stack masks its padding
    instead and keeps a Python float error, which is cheaper there.
    """
    st = _Stack(ks, problems, cfg, cross)
    it, tol, cap = 0, cfg.tol, cfg.max_iters
    alpha = alpha2 = st.alpha
    while True:
        E, Et, am, bm, d, ns, real = st.E, st.Et, st.am, st.bm, st.d, st.ns, st.real
        single = d.ndim == 1
        while True:
            if it and cross:
                alpha = alpha2
                if np.maximum.reduce(alpha, axis=None) > _SCALE_MAX:
                    for b in st.over(alpha):
                        K, w, v = st.redo(b, alpha, beta, row=True)
                        st.absorb(b, K, w, v, alpha, beta)
            elif it:
                alpha = np.sqrt(np.multiply(alpha, alpha2, out=alpha), out=alpha)
            beta = _scale(E, alpha, bm)
            # only a cross term can absorb. A self term's K has an exact
            # zero diagonal, so its start u0_j = -lse_i K_ij lies in
            # [-log n, 0], and E = exp(K + u0 + u0) has E_ij <= 1 and
            # E_jj >= n^-2. Then beta_j <= a_j / (E_jj alpha_j) <=
            # n / alpha_j, so the next alpha_j = sqrt(alpha_j beta_j) is
            # at most sqrt(n); with alpha <= sqrt(n), beta_j >=
            # a_j / (n sqrt(n)) = n^-2.5, so alpha stays >= n^-2.5 too.
            # Every scaling lies in [n^-2.5, n^3.5], far inside e^TAU,
            # and no sum (at least E_jj alpha_j >= n^-4.5) underflows.
            if cross and np.maximum.reduce(beta, axis=None) > _SCALE_MAX:
                for b in st.over(beta):
                    st.absorb(b, *st.redo(b, alpha, beta, row=False), alpha, beta)
            alpha2 = _scale(Et, beta, am) if cross else beta
            it += 1
            if single:
                np.divide(alpha, alpha2, out=d, where=real)
                np.subtract(d, 1.0, out=d, where=real)
                np.abs(d, out=d)
                err = float(np.maximum.reduce(d)) / ns
                if err <= tol or it >= cap:
                    st.close([0], [err], it, tol, alpha, beta, grad, out)
                    return
                continue
            np.divide(alpha, alpha2, out=d)
            np.subtract(d, 1.0, out=d)
            np.abs(d, out=d)
            errs = np.fmax.reduce(d, axis=-1)
            np.divide(errs, ns, out=errs)
            if np.fmin.reduce(errs) <= tol or it >= cap:
                break
        done = np.flatnonzero(errs <= tol if it < cap else ns)
        st.close(done.tolist(), errs[done].tolist(), it, tol, alpha, beta, grad, out)
        ns[done] = 0.0
        left = np.count_nonzero(ns)
        if not left:
            return
        if 2 * left <= len(ns):
            st.alpha, st.alpha2, st.beta = alpha, alpha2, beta
            st.drop(np.flatnonzero(ns == 0.0))
            alpha, alpha2, beta = st.alpha, st.alpha2, st.beta


def _solve(problems, cfg: SinkhornConfig, cross: bool, grad: bool) -> list:
    """For each (X, Y, xx, yy) problem, in input order: the cross term
    OT_eps(X, Y) by alternating updates, as (result, dX, dY), or
    (``cross`` False, Y is X) the self term by the symmetric averaged
    update, as (result, half_grad). X and Y are checked sets and xx and
    yy the squared norms of their rows: ``self_terms`` and
    ``cross_terms`` check each distinct set once per call and compute
    its norms once (``_checker``), so a set shared by many problems, in
    one stack or across stacks, is neither checked nor measured again.
    The position gradients of the plan are computed only when ``grad``
    is set (else None). Each result goes through ``_tally`` once.

    Problems are sorted by shape and solved in chunks of at most
    STACK_ELEMENTS padded elements, one stack per chunk. An entry's
    arithmetic, its absorptions included, does not depend on the stack
    it runs in, so every result equals a one-problem solve bit for bit.
    The values are the dual objective <a, F> + <b, G> of the tested
    plan, for uniform marginals a and b and dual potentials F and G,
    from the loop's log potentials u = log a + F / eps and
    v = log b + G / eps.
    """
    out: list = [None] * len(problems)
    if len(problems) == 1:
        _run([0], problems, cfg, cross, grad, out)
    else:
        shapes = [(len(X), len(Y)) for X, Y, _, _ in problems]
        order = sorted(range(len(problems)), key=shapes.__getitem__)
        for chunk in _chunks(order, shapes.__getitem__):
            _run(chunk, problems, cfg, cross, grad, out)
    for result, *_ in out:
        _tally(result)
    return out


def self_terms(sets, cfg: SinkhornConfig = SinkhornConfig(), grad: bool = False) -> list:
    """``self_term`` for many sets, solved together; (result, half_grad)
    per set, in input order, each equal to a one-set call bit for bit."""
    check, sets = _checker(cfg), list(sets)
    problems = [(X, X, xx, xx) for X, xx in (check("X", Z) for Z in sets)]
    return _solve(problems, cfg, cross=False, grad=grad)


def cross_terms(pairs, cfg: SinkhornConfig = SinkhornConfig(), grad: bool = False) -> list:
    """``cross_term`` for many (A, B) pairs, solved together; (result, dA,
    dB) per pair, in input order, each equal to a one-pair call bit for
    bit."""
    check, pairs, problems = _checker(cfg), list(pairs), []
    for A, B in pairs:
        (X, xx), (Y, yy) = check("A", A), check("B", B)
        if X.shape[1] != Y.shape[1]:
            raise ShapeError(f"dimension mismatch: A is {X.shape}, B is {Y.shape}")
        problems.append((X, Y, xx, yy))
    return _solve(problems, cfg, cross=True, grad=grad)


def self_term(X, cfg: SinkhornConfig = SinkhornConfig(), grad: bool = False):
    """The self term OT_eps(X, X) of the debiased divergence.

    It depends on X alone, so a caller that compares X with many sets
    solves it once. Returns (result, half_grad). half_grad is
    0.5 * (gX + gY), the plan's position gradient summed over both
    argument slots and halved: the amount the divergence's gradient
    with respect to X subtracts. It is None unless ``grad`` is set.

    The solve is the symmetric averaged update f <- (f + T(f)) / 2
    (Feydy et al., AISTATS 2019), started from T(0), where T is the
    row update of the cross terms with Y = X. The self problem's
    optimal potentials are one symmetric f, and the averaged update has
    no gauge freedom to drift along. The stopping rule tests the plan
    (f, f); the value and the plan are those of (f, T(f)), one
    half-step on: like the cross terms' plan its column marginals are
    exact, and its dual value <a, f> + <a, T(f)> is off by the square
    of the marginal error, where 2 <a, f> is off by the error itself.
    """
    return self_terms([X], cfg, grad)[0]


def cross_term(A, B, cfg: SinkhornConfig = SinkhornConfig(), grad: bool = False):
    """The cross term OT_eps(A, B) by log-stabilized Sinkhorn with
    alternating updates. Returns (result, dA, dB); the position
    gradients are None unless ``grad`` is set."""
    return cross_terms([(A, B)], cfg, grad)[0]


def _debias(cfg: SinkhornConfig, self_a, self_b, cross, grad: bool):
    """(result, dA, dB) of one comparison from its solved terms, as
    ``_divergences`` hands them on. Raw, it is ``cross`` as given.
    Debiased, S_eps = OT(A, B) - 0.5 * (OT(A, A) + OT(B, B)), converged
    only when all three solves are, with the largest of their marginal
    errors, and each gradient less its set's half_grad."""
    ab, dA, dB = cross
    if not cfg.debiased:
        return ab, dA, dB
    if self_a is None or self_b is None:
        raise InvalidInput("a debiased divergence given its cross term needs both self terms")
    (aa, half_a), (bb, half_b) = self_a, self_b
    if grad:
        dA, dB = dA - half_a, dB - half_b
    result = SinkhornResult(
        value=ab.value - 0.5 * (aa.value + bb.value),
        converged=ab.converged and aa.converged and bb.converged,
        iterations=max(ab.iterations, aa.iterations, bb.iterations),
        marginal_err=max(ab.marginal_err, aa.marginal_err, bb.marginal_err),
    )
    return result, dA, dB


def _divergences(comparisons, cfg: SinkhornConfig, grad: bool) -> list:
    """What ``divergence_grad`` (``grad`` set) or ``sinkhorn_divergence``
    returns for each (A, B, self_a, self_b) comparison, in input order.
    The cross terms of unequal sets are solved, and checked, in one
    ``cross_terms`` call, and the self terms given as None in one
    ``self_terms`` call, each array once. Two sets with equal values are
    compared as one self term (numpy's symmetric X @ X.T differs in its
    last bits from X @ Y.T for a copy Y of X), the only self term a raw
    divergence solves, handed on as both self terms and the cross term:
    debiased, value and gradients are then exactly 0; raw, they are the
    self term's value and half_grad. Each comparison goes with all its
    terms to the one-pair function by its module-global name, which
    only debiases."""
    same = [np.array_equal(A, B) for A, B, _, _ in comparisons]
    unequal = [(A, B) for (A, B, _, _), s in zip(comparisons, same) if not s]
    crossed = iter(cross_terms(unequal, cfg, grad))
    missing: dict[int, np.ndarray] = {}
    for (A, B, sa, sb), s in zip(comparisons, same):
        if sa is None and (s or cfg.debiased):
            missing.setdefault(id(A), A)
        if sb is None and not s and cfg.debiased:
            missing.setdefault(id(B), B)
    solved = dict(zip(missing, self_terms(list(missing.values()), cfg, grad))) if missing else {}
    finish = divergence_grad if grad else sinkhorn_divergence
    out = []
    for (A, B, sa, sb), s in zip(comparisons, same):
        sa = sa if sa is not None else solved.get(id(A))
        if s:
            res, half = sa
            sb, cross = sa, (res, half.copy(), half.copy()) if grad else (res, None, None)
        else:
            sb, cross = sb if sb is not None else solved.get(id(B)), next(crossed)
        out.append(finish(A, B, cfg, sa, sb, cross))
    return out


def sinkhorn_divergence(
    A, B, cfg: SinkhornConfig = SinkhornConfig(), self_a=None, self_b=None, cross=None
) -> SinkhornResult:
    """Debiased divergence S_eps(A, B); raw OT_eps(A, B) when debiased=False.

    ``self_a`` and ``self_b`` are what ``self_term(A, cfg)`` and
    ``self_term(B, cfg)`` returned, for a caller that compares A or B
    with many sets; the ones not given are solved by a one-entry
    ``_divergences`` call. ``cross`` is that call's hand-off: with it,
    the call only debiases, and a debiased one needs both self terms.
    Non-convergence within max_iters is reported through the flag, not
    raised; the returned value uses the final iterate.
    """
    if cross is None:
        return _divergences([(A, B, self_a, self_b)], cfg, grad=False)[0]
    return _debias(cfg, self_a, self_b, cross, grad=False)[0]


class PatchSet(NamedTuple):
    """One token matrix ready for every Sinkhorn comparison it enters:
    its unit rows, their norms and what ``self_term(unit, cfg, grad)``
    returns (None when the divergence is not debiased)."""

    unit: np.ndarray
    norms: np.ndarray
    self_ot: tuple | None


def patch_sets(mats, cfg: SinkhornConfig = SinkhornConfig(), grad: bool = False) -> list[PatchSet]:
    """Normalize each matrix's rows to unit length and, when debiased,
    solve the self terms, all in one ``self_terms`` call. A row of zeros
    has no direction: InvalidInput."""
    units, norms = [], []
    for Z in mats:
        Z = np.asarray(Z, dtype=np.float64)
        norms.append(np.linalg.norm(Z, axis=1, keepdims=True))
        if np.any(norms[-1] == 0.0):
            raise InvalidInput("zero-norm patch row")
        units.append(Z / norms[-1])
    selfs = self_terms(units, cfg, grad) if cfg.debiased else [None] * len(units)
    return [PatchSet(*prepared) for prepared in zip(units, norms, selfs)]


def _ot_position_grads(X, Y, T):
    """d OT / dX and d OT / dY for a fixed plan T (envelope theorem)."""
    r = T.sum(axis=1)
    c = T.sum(axis=0)
    gX = r[:, None] * X - T @ Y
    gY = c[:, None] * Y - T.T @ X
    return gX, gY


def divergence_grad(
    A, B, cfg: SinkhornConfig = SinkhornConfig(), self_a=None, self_b=None, cross=None
):
    """Divergence value plus gradients with respect to A and B rows.

    Returns (value, dA, dB, converged). The terms are given as to
    ``sinkhorn_divergence``, solved with ``grad=True``. Gradients hold the
    transport plans fixed at their converged values, which is exact in
    the limit of a converged solve; finite-difference checks should
    therefore run the solver at a tight tol.
    """
    if cross is None:
        return _divergences([(A, B, self_a, self_b)], cfg, grad=True)[0]
    res, dA, dB = _debias(cfg, self_a, self_b, cross, grad=True)
    return res.value, dA, dB, res.converged
