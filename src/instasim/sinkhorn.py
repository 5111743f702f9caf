"""Debiased entropic optimal transport between patch sets.

The patch-level similarity of two images compares their token matrices
A (P1 x D) and B (P2 x D) as uniform point clouds under the quadratic
cost c(x, y) = 0.5 * ||x - y||^2. We solve the entropy-regularized
problem in the log domain and report the debiased divergence

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
``cross_term`` are their one-problem calls. A caller that compares one
set with many others prepares it once with ``patch_sets`` (unit rows,
their norms and the self term) and passes the self term to
``sinkhorn_divergence`` or ``divergence_grad``, which then solve only
the cross term; one that solved its cross terms in a ``cross_terms``
call passes those too, and the call solves nothing. A caller that
reports how many solves stopped at max_iters opens ``with
solve_counts() as counts:``; every solve run inside the block, at any
depth of calls, adds to ``counts``.

One kernel runs every solve (GeomLoss batches point clouds the same
way; Feydy et al., AISTATS 2019). Problems are sorted by shape and
stacked in chunks, zero-padded to (B, N, M) and bounded by
STACK_ELEMENTS padded elements, not by a pair count, so its working
memory stays small whatever the token count; a problem over the bound
is solved alone. Both half-steps are log-sum-exps over a leading axis,
which numpy sums one row at a time: padded rows, whose potentials are
-inf, add exactly 0.0, and a problem gives the same bits in any stack.
A problem leaves its stack at the iteration it meets tol, so a stack
runs on with only the problems still open.

A note on tolerances: every solve stops when the worst row-marginal
violation of its plan drops to tol, and the check reuses the next
half-step's log-sum-exp, so it costs no pass of its own. The result
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
from operator import truediv
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
    if not np.all(np.isfinite(M)):
        raise InvalidInput(f"{name} contains non-finite values")
    if M.shape[0] > cfg.max_tokens:
        raise InvalidInput(
            f"a token set has {M.shape[0]} rows, over the {cfg.max_tokens} cap "
            "that --max-tokens sets"
        )
    return M


def _check_pair(A, B, cfg: SinkhornConfig) -> tuple[np.ndarray, np.ndarray]:
    A = _check_set("A", A, cfg)
    B = _check_set("B", B, cfg)
    if A.shape[1] != B.shape[1]:
        raise ShapeError(f"dimension mismatch: A is {A.shape}, B is {B.shape}")
    return A, B


def _half_sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """C_ij = 0.5 * ||X_i - Y_j||^2, clipped at zero against rounding."""
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    return 0.5 * np.maximum(sq, 0.0)


# padded elements B x N x M of one solve stack, which holds K, K^T and a
# scratch array of that size (128 KiB of float64 each); a problem over
# it is solved alone. 2^12 and 2^16 were both slower on the bench.
STACK_ELEMENTS = 1 << 14


def _half_step(K: np.ndarray, h: np.ndarray, log_m: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """log_m[b, j] - log sum_i exp(K[b, i, j] + h[b, i]), the log-sum-exp
    over each stack entry's leading axis i, max-shifted; ``buf`` (K's
    shape) is the scratch space.

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


class _Stack:
    """A chunk of solves as zero-padded stacks: K (B, N, M) for the
    column update (cross terms only) and K^T (B, M, N) for the row
    update, so that both half-steps reduce over a leading axis; K is
    -C / eps of the problems at indices ``ks``. The log marginals
    ``loga``/``logb`` and so every potential are -inf at padded
    positions; ``real`` marks the rows that are not padding (True when
    none is). A stack of one entry drops the B axis: numpy runs 2-D
    operations faster, with the same bits. When that entry needs no
    padding either, the stack's K is the one computed, not a copy, so a
    problem over STACK_ELEMENTS holds three arrays of its size (K, K^T
    and the scratch space), a self term two."""

    def __init__(self, ks: list[int], problems, cfg: SinkhornConfig, cross: bool):
        self.ks, self.cross = ks, cross
        self.shapes = [(len(problems[k][0]), len(problems[k][1])) for k in ks]
        B = len(ks)
        N = max(2, max(n for n, _ in self.shapes))
        M = max(2, max(m for _, m in self.shapes))
        if self.shapes == [(N, M)]:
            K = (_half_sqdist(*problems[ks[0]]) / -cfg.epsilon)[None]
            Kt = np.ascontiguousarray(K.transpose(0, 2, 1))
            K = K if cross else Kt
        else:
            Kt = np.zeros((B, M, N))
            K = np.zeros((B, N, M)) if cross else Kt
            for b, k in enumerate(ks):
                Kb = _half_sqdist(*problems[k]) / -cfg.epsilon
                n, m = Kb.shape
                Kt[b, :m, :n] = Kb.T
                if cross:
                    K[b, :n, :m] = Kb
        loga = np.full((B, N), -np.inf)
        logb = np.full((B, M), -np.inf) if cross else loga
        for b, (n, m) in enumerate(self.shapes):
            loga[b, :n] = -np.log(n)
            logb[b, :m] = -np.log(m)
        self.diff = np.zeros((B, N))
        arrays = [K, Kt, loga, logb, self.diff]
        if B == 1:
            arrays = [a[0] for a in arrays]
        self.K, self.Kt, self.loga, self.logb, self.d = arrays
        self.real = True if all(n == N for n, _ in self.shapes) else self.loga > -np.inf
        self.buf = np.empty(B * N * M)
        self._views()
        self.u = _half_step(self.Kt, self.logb, self.loga, self.bufKt)

    def _views(self) -> None:
        self.bufK = self.buf[: self.K.size].reshape(self.K.shape)
        self.bufKt = self.buf[: self.Kt.size].reshape(self.Kt.shape)

    def rows(self, a: np.ndarray) -> np.ndarray:
        """``a`` with its B axis, when the stack dropped it."""
        return a.reshape(len(self.ks), -1)

    def plan(self, b: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Entry b's plan exp(K_ij + u_i + v_j), built in the scratch
        space: valid until the next half-step."""
        n, m = len(u), len(v)
        if self.cross:
            Kb = self.K.reshape(-1, *self.K.shape[-2:])[b, :n, :m]
        else:
            Kb = self.Kt.reshape(-1, *self.Kt.shape[-2:])[b, :m, :n].T
        T = self.buf[: n * m].reshape(n, m)
        np.add(Kb, u[:, None], out=T)
        np.add(T, v, out=T)
        return np.exp(T, out=T)

    def drop(self, done: list[int]) -> None:
        """Take the entries at the ``done`` indices, some but not all,
        out of the stack."""
        keep = np.ones(len(self.ks), dtype=bool)
        keep[done] = False
        self.ks = [k for k, kept in zip(self.ks, keep) if kept]
        self.shapes = [shape for shape, kept in zip(self.shapes, keep) if kept]
        for name in ("Kt", "loga", "diff", "u", "real") + (("K", "logb") if self.cross else ()):
            val = getattr(self, name)
            if isinstance(val, np.ndarray):
                setattr(self, name, val[keep])
        if not self.cross:
            self.K, self.logb = self.Kt, self.loga
        self.d = self.diff
        self._views()


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


def _run(ks: list[int], problems, cfg: SinkhornConfig, cross: bool, grad: bool, out: list) -> None:
    """Iterate one stack of the problems at indices ``ks`` until each
    meets tol or reaches max_iters. A finished problem leaves the stack
    at once, with what ``_solve`` returns for it in ``out``.

    One iteration starts from u. Cross terms alternate: v = log b -
    lse_i(K_ij + u_i), then the next u is w = log a - lse_j(K_ij + v_j).
    Self terms take the symmetric averaged update: v = w = T(u), the row
    update, and the next u is (u + w) / 2. Either way the plan (u, v)
    has exact column marginals and row marginal a * exp(u - w), which
    gives the stopping test without a pass of its own.
    """
    st = _Stack(ks, problems, cfg, cross)
    it, tol, cap = 0, cfg.tol, cfg.max_iters
    while True:
        K, Kt, bufK, bufKt, loga, logb = st.K, st.Kt, st.bufK, st.bufKt, st.loga, st.logb
        d, diff, real, u = st.d, st.diff, st.real, st.u
        ns = [n for n, _ in st.shapes]
        # a stack without its B axis takes the cheaper error of one entry
        single = d.ndim == 1
        while True:
            if cross:
                v = _half_step(K, u, logb, bufK)
                w = _half_step(Kt, v, loga, bufKt)
            else:
                v = w = _half_step(Kt, u, loga, bufKt)
            np.subtract(u, w, out=d, where=real)
            np.expm1(d, out=d)
            np.abs(d, out=d)
            if single:
                errs = [float(np.maximum.reduce(d)) / ns[0]]
            else:
                errs = list(map(truediv, np.maximum.reduce(diff, axis=1).tolist(), ns))
            it += 1
            if min(errs) <= tol or it >= cap:
                break
            u = w if cross else 0.5 * (u + w)
        if it >= cap:
            done = list(range(len(errs)))
        else:
            done = [b for b, e in enumerate(errs) if e <= tol]
        us, vs = st.rows(u), st.rows(v)
        for b in done:
            k, (n, m), e = st.ks[b], st.shapes[b], errs[b]
            log_a, log_b = -np.log(n), -np.log(m)
            ub, vb = us[b, :n], vs[b, :m]
            value = cfg.epsilon * float((ub.mean() - log_a) + (vb.mean() - log_b))
            grads = (None, None) if cross else (None,)
            if grad:
                dX, dY = _ot_position_grads(*problems[k], st.plan(b, ub, vb))
                grads = (dX, dY) if cross else (0.5 * (dX + dY),)
            out[k] = (SinkhornResult(value, e <= tol, it, e), *grads)
        if len(done) == len(errs):
            return
        st.u = w if cross else 0.5 * (u + w)
        st.drop(done)


def _solve(problems, cfg: SinkhornConfig, cross: bool, grad: bool) -> list:
    """For each (X, Y) problem, in input order: the cross term
    OT_eps(X, Y) by alternating updates, as (result, dX, dY), or
    (``cross`` False, Y is X) the self term by the symmetric averaged
    update, as (result, half_grad). The position gradients of the plan
    are computed only when ``grad`` is set (else None). Each result goes
    through ``_tally`` once.

    Problems are sorted by shape and solved in chunks of at most
    STACK_ELEMENTS padded elements, one stack per chunk. An entry's
    arithmetic does not depend on the stack it runs in, so every result
    equals a one-problem solve bit for bit. The values are the dual
    objective <a, f> + <b, g> of the tested plan, for uniform marginals
    a and b, with potentials kept scaled as u = log a + f / eps and
    v = log b + g / eps.
    """
    out: list = [None] * len(problems)
    shapes = [(len(X), len(Y)) for X, Y in problems]
    order = sorted(range(len(problems)), key=shapes.__getitem__)
    for chunk in _chunks(order, shapes.__getitem__):
        _run(chunk, problems, cfg, cross, grad, out)
    for result, *_ in out:
        _tally(result)
    return out


def self_terms(sets, cfg: SinkhornConfig = SinkhornConfig(), grad: bool = False) -> list:
    """``self_term`` for many sets, solved together; (result, half_grad)
    per set, in input order, each equal to a one-set call bit for bit."""
    sets = [_check_set("X", X, cfg) for X in sets]
    return _solve([(X, X) for X in sets], cfg, cross=False, grad=grad)


def cross_terms(pairs, cfg: SinkhornConfig = SinkhornConfig(), grad: bool = False) -> list:
    """``cross_term`` for many (A, B) pairs, solved together; (result, dA,
    dB) per pair, in input order, each equal to a one-pair call bit for
    bit."""
    return _solve([_check_pair(A, B, cfg) for A, B in pairs], cfg, cross=True, grad=grad)


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
    """The cross term OT_eps(A, B) by log-domain Sinkhorn with
    alternating updates. Returns (result, dA, dB); the position
    gradients are None unless ``grad`` is set."""
    return cross_terms([(A, B)], cfg, grad)[0]


def _debias(ab: SinkhornResult, aa: SinkhornResult, bb: SinkhornResult) -> SinkhornResult:
    """S_eps = OT(A, B) - 0.5 * (OT(A, A) + OT(B, B)); converged only when
    all three solves are, with the largest of their marginal errors."""
    return SinkhornResult(
        value=ab.value - 0.5 * (aa.value + bb.value),
        converged=ab.converged and aa.converged and bb.converged,
        iterations=max(ab.iterations, aa.iterations, bb.iterations),
        marginal_err=max(ab.marginal_err, aa.marginal_err, bb.marginal_err),
    )


def _divergence(A, B, cfg: SinkhornConfig, self_a, self_b, cross, grad: bool):
    """(result, dA, dB) of one comparison from its solved terms; the
    terms given as None are solved here, and the gradients are None
    unless ``grad`` is set. Two sets with equal values are compared as
    one self term, and ``cross`` goes unused (numpy's symmetric X @ X.T
    differs in its last bits from X @ Y.T for a copy Y of X): debiased,
    value and gradients are exactly 0; raw, they are the self term's
    value and its half_grad."""
    A, B = _check_pair(A, B, cfg)
    if np.array_equal(A, B):
        aa, half = self_a if self_a is not None else self_term(A, cfg, grad)
        if cfg.debiased:
            aa, half = _debias(aa, aa, aa), np.zeros_like(A)
        return (aa, half.copy(), half.copy()) if grad else (aa, None, None)
    ab, dA, dB = cross if cross is not None else cross_term(A, B, cfg, grad)
    if not cfg.debiased:
        return ab, dA, dB
    missing = [X for X, given in ((A, self_a), (B, self_b)) if given is None]
    solved = iter(self_terms(missing, cfg, grad) if missing else ())
    aa, half_a = self_a if self_a is not None else next(solved)
    bb, half_b = self_b if self_b is not None else next(solved)
    if grad:
        dA, dB = dA - half_a, dB - half_b
    return _debias(ab, aa, bb), dA, dB


def _divergences(comparisons, cfg: SinkhornConfig, grad: bool) -> list:
    """What ``divergence_grad`` (``grad`` set) or ``sinkhorn_divergence``
    returns for each (A, B, self_a, self_b) comparison, in input order.
    The self terms given as None are solved in one ``self_terms`` call,
    each array once, and the cross terms in one ``cross_terms`` call;
    then each comparison goes to the one-pair function with all its
    terms, which solves nothing more. As there, a pair of equal sets is
    solved as one self term, the only self term a raw (not debiased)
    divergence solves."""
    same = [np.array_equal(A, B) for A, B, _, _ in comparisons]
    missing: dict[int, np.ndarray] = {}
    for (A, B, sa, sb), s in zip(comparisons, same):
        if sa is None and (s or cfg.debiased):
            missing.setdefault(id(A), A)
        if sb is None and not s and cfg.debiased:
            missing.setdefault(id(B), B)
    solved = dict(zip(missing, self_terms(list(missing.values()), cfg, grad))) if missing else {}
    unequal = [(A, B) for (A, B, _, _), s in zip(comparisons, same) if not s]
    crossed = iter(cross_terms(unequal, cfg, grad))
    finish = divergence_grad if grad else sinkhorn_divergence
    return [
        finish(
            A,
            B,
            cfg,
            sa if sa is not None else solved.get(id(A)),
            sb if sb is not None else solved.get(id(B)),
            None if s else next(crossed),
        )
        for (A, B, sa, sb), s in zip(comparisons, same)
    ]


def sinkhorn_divergence(
    A, B, cfg: SinkhornConfig = SinkhornConfig(), self_a=None, self_b=None, cross=None
) -> SinkhornResult:
    """Debiased divergence S_eps(A, B); raw OT_eps(A, B) when debiased=False.

    ``self_a`` and ``self_b`` are what ``self_term(A, cfg)`` and
    ``self_term(B, cfg)`` returned, for a caller that compares A or B
    with many sets, and ``cross`` is what ``cross_term(A, B, cfg)``
    returned, for one that solved its cross terms together; the ones
    not given are solved here. Non-convergence within max_iters is
    reported through the flag, not raised; the returned value uses the
    final iterate.
    """
    return _divergence(A, B, cfg, self_a, self_b, cross, grad=False)[0]


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

    Returns (value, dA, dB, converged). ``self_a``, ``self_b`` and
    ``cross`` are what ``self_term(A, cfg, grad=True)``,
    ``self_term(B, cfg, grad=True)`` and ``cross_term(A, B, cfg,
    grad=True)`` returned, for a caller that solved them in batches;
    the ones not given are solved here. Gradients hold the
    transport plans fixed at their converged values, which is exact in
    the limit of a converged solve; finite-difference checks should
    therefore run the solver at a tight tol.
    """
    res, dA, dB = _divergence(A, B, cfg, self_a, self_b, cross, grad=True)
    return res.value, dA, dB, res.converged
