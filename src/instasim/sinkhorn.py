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
prepare their sets with ``patch_set``; the solver takes rows as given.

Gradients use the envelope theorem: at a converged plan T the value is
stationary in the potentials, so d OT / d C_ij = T_ij and the position
gradients follow from the chain rule through the quadratic cost. For
the self terms both argument slots contribute.

The solves are public: ``self_term`` (OT_eps(X, X), which depends on
one set only) and ``cross_term``. A caller that compares one set with
many others prepares it once with ``patch_set`` (unit rows, their
norms and the self term) and passes the self term to
``sinkhorn_divergence`` or ``divergence_grad``, which then solve only
the cross term. A caller that reports how many solves stopped at
max_iters opens ``with solve_counts() as counts:``; every solve run
inside the block, at any depth of calls, adds to ``counts``.

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

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidInput, ShapeError
from .rng import derived_rng


@dataclass
class SinkhornConfig:
    epsilon: float = 0.05
    max_iters: int = 500
    tol: float = 1e-6
    max_tokens: int = 1024
    debiased: bool = True

    def validate(self) -> None:
        if not self.epsilon > 0:
            raise InvalidInput(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise InvalidInput(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise InvalidInput(f"tol must be positive, got {self.tol}")
        if self.max_tokens < 1:
            raise InvalidInput(f"max_tokens must be >= 1, got {self.max_tokens}")


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
            f"{name} has {M.shape[0]} rows, over the {cfg.max_tokens} cap; "
            "subsample_tokens first"
        )
    return M


def _check_pair(A, B, cfg: SinkhornConfig) -> tuple[np.ndarray, np.ndarray]:
    cfg.validate()
    A = _check_set("A", A, cfg)
    B = _check_set("B", B, cfg)
    if A.shape[1] != B.shape[1]:
        raise ShapeError(f"dimension mismatch: A is {A.shape}, B is {B.shape}")
    return A, B


def _half_sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """C_ij = 0.5 * ||X_i - Y_j||^2, clipped at zero against rounding."""
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    return 0.5 * np.maximum(sq, 0.0)


def _lse(K: np.ndarray, h: np.ndarray, axis: int, buf: np.ndarray) -> np.ndarray:
    """log sum exp(K + h) along ``axis``, max-shifted; ``h`` broadcasts
    against K and ``buf`` (K's shape) is the scratch space."""
    np.add(K, h, out=buf)
    mx = buf.max(axis=axis)
    np.subtract(buf, np.expand_dims(mx, axis), out=buf)
    np.exp(buf, out=buf)
    return mx + np.log(buf.sum(axis=axis))


def _ot_entropic(X: np.ndarray, Y: np.ndarray, cfg: SinkhornConfig, plan: bool = False):
    """OT_eps(X, Y) by log-domain Sinkhorn with alternating updates, for
    uniform marginals a and b.

    Returns (result, T); the plan T is built after the loop, and only
    when ``plan`` is set (else None). The potentials f and g are kept
    scaled as u = log a + f / eps and v = log b + g / eps, so with
    K = -C / eps a half-step is v = log b - lse_i(K_ij + u_i), one pass
    over K. Each iteration updates v from u, then computes the next
    u-update u' from v. The row marginal of the plan (u, v) is
    a * exp(u - u'), so the stopping rule tests the worst row-marginal
    violation without a pass of its own. The value is the dual
    objective <a, f> + <b, g> of the tested plan, whose column
    marginals are exact.
    """
    n, m = X.shape[0], Y.shape[0]
    eps = cfg.epsilon
    K = _half_sqdist(X, Y) / -eps
    buf = np.empty_like(K)
    log_a, log_b = -np.log(n), -np.log(m)
    u_next = log_a - _lse(K, log_b, 1, buf)
    for iterations in range(1, cfg.max_iters + 1):
        u = u_next
        v = log_b - _lse(K, u[:, None], 0, buf)
        u_next = log_a - _lse(K, v, 1, buf)
        err = float(np.abs(np.expm1(u - u_next)).max()) / n
        if err <= cfg.tol:
            break
    value = eps * float((u.mean() - log_a) + (v.mean() - log_b))
    T = np.exp(K + u[:, None] + v) if plan else None
    return SinkhornResult(value, err <= cfg.tol, iterations, err), T


def _ot_self(X: np.ndarray, cfg: SinkhornConfig, plan: bool = False):
    """OT_eps(X, X) by the symmetric averaged update f <- (f + T(f)) / 2
    (Feydy et al., AISTATS 2019), started from T(0), where T is the
    f-update of ``_ot_entropic`` with Y = X (potentials scaled the same
    way: u = log a + f / eps, w = log a + T(f) / eps).

    The self problem's optimal potentials are one symmetric f, and the
    averaged update has no gauge freedom to drift along. The stopping
    rule tests the plan (f, f), whose row marginal is a * exp(u - w).
    The value and the plan are those of (f, T(f)), one half-step on:
    like the cross terms' plan its column marginals are exact, and its
    dual value <a, f> + <a, T(f)> is off by the square of the marginal
    error, where 2 <a, f> is off by the error itself. Returns
    (result, T) like ``_ot_entropic``.
    """
    n = X.shape[0]
    eps = cfg.epsilon
    K = _half_sqdist(X, X) / -eps
    buf = np.empty_like(K)
    log_a = -np.log(n)
    u = log_a - _lse(K, log_a, 1, buf)
    for iterations in range(1, cfg.max_iters + 1):
        w = log_a - _lse(K, u, 1, buf)
        err = float(np.abs(np.expm1(u - w)).max()) / n
        if err <= cfg.tol or iterations == cfg.max_iters:
            break  # the tested u, not its average with w
        u = 0.5 * (u + w)
    value = eps * float((u.mean() - log_a) + (w.mean() - log_a))
    T = np.exp(K + u[:, None] + w) if plan else None
    return SinkhornResult(value, err <= cfg.tol, iterations, err), T


def self_term(X, cfg: SinkhornConfig | None = None, grad: bool = False):
    """The self term OT_eps(X, X) of the debiased divergence.

    It depends on X alone, so a caller that compares X with many sets
    solves it once. Returns (result, half_grad). half_grad is
    0.5 * (gX + gY), the plan's position gradient summed over both
    argument slots and halved: the amount the divergence's gradient
    with respect to X subtracts. It is None unless ``grad`` is set.
    """
    cfg = cfg if cfg is not None else SinkhornConfig()
    cfg.validate()
    X = _check_set("X", X, cfg)
    result, T = _ot_self(X, cfg, plan=grad)
    _tally(result)
    half_grad = None
    if grad:
        gX, gY = _ot_position_grads(X, X, T)
        half_grad = 0.5 * (gX + gY)
    return result, half_grad


def cross_term(A, B, cfg: SinkhornConfig | None = None, grad: bool = False):
    """The cross term OT_eps(A, B). Returns (result, dA, dB); the
    position gradients are None unless ``grad`` is set."""
    cfg = cfg if cfg is not None else SinkhornConfig()
    A, B = _check_pair(A, B, cfg)
    result, T = _ot_entropic(A, B, cfg, plan=grad)
    _tally(result)
    if not grad:
        return result, None, None
    dA, dB = _ot_position_grads(A, B, T)
    return result, dA, dB


def _debias(ab: SinkhornResult, aa: SinkhornResult, bb: SinkhornResult) -> SinkhornResult:
    """S_eps = OT(A, B) - 0.5 * (OT(A, A) + OT(B, B)); converged only when
    all three solves are, with the largest of their marginal errors."""
    return SinkhornResult(
        value=ab.value - 0.5 * (aa.value + bb.value),
        converged=ab.converged and aa.converged and bb.converged,
        iterations=max(ab.iterations, aa.iterations, bb.iterations),
        marginal_err=max(ab.marginal_err, aa.marginal_err, bb.marginal_err),
    )


def sinkhorn_divergence(
    A, B, cfg: SinkhornConfig | None = None, self_a=None, self_b=None
) -> SinkhornResult:
    """Debiased divergence S_eps(A, B); raw OT_eps(A, B) when debiased=False.

    ``self_a`` and ``self_b`` are what ``self_term(A, cfg)`` and
    ``self_term(B, cfg)`` returned, for a caller that compares A or B
    with many sets; the ones not given are solved here. Two sets with
    equal values are solved once, as a self term: numpy computes
    X @ X.T with a symmetric product whose last bits differ from
    X @ Y.T for a copy Y of X, which would leave S(X, X) a hair off 0.
    Non-convergence within max_iters is reported through the flag, not
    raised; the returned value uses the final iterate.
    """
    cfg = cfg if cfg is not None else SinkhornConfig()
    A, B = _check_pair(A, B, cfg)
    if np.array_equal(A, B):
        aa, _ = self_a if self_a is not None else self_term(A, cfg)
        return _debias(aa, aa, aa) if cfg.debiased else aa
    ab, _, _ = cross_term(A, B, cfg)
    if not cfg.debiased:
        return ab
    aa, _ = self_a if self_a is not None else self_term(A, cfg)
    bb, _ = self_b if self_b is not None else self_term(B, cfg)
    return _debias(ab, aa, bb)


class PatchSet(NamedTuple):
    """One token matrix ready for every Sinkhorn comparison it enters:
    its unit rows, their norms and what ``self_term(unit, cfg, grad)``
    returns (None when the divergence is not debiased)."""

    unit: np.ndarray
    norms: np.ndarray
    self_ot: tuple | None


def patch_set(Z, cfg: SinkhornConfig | None = None, grad: bool = False) -> PatchSet:
    """Normalize Z's rows to unit length and, when debiased, solve its
    self term once. A row of zeros has no direction: InvalidInput."""
    cfg = cfg if cfg is not None else SinkhornConfig()
    Z = np.asarray(Z, dtype=np.float64)
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise InvalidInput("zero-norm patch row")
    unit = Z / norms
    return PatchSet(unit, norms, self_term(unit, cfg, grad) if cfg.debiased else None)


def _ot_position_grads(X, Y, T):
    """d OT / dX and d OT / dY for a fixed plan T (envelope theorem)."""
    r = T.sum(axis=1)
    c = T.sum(axis=0)
    gX = r[:, None] * X - T @ Y
    gY = c[:, None] * Y - T.T @ X
    return gX, gY


def divergence_grad(A, B, cfg: SinkhornConfig | None = None, self_a=None, self_b=None):
    """Divergence value plus gradients with respect to A and B rows.

    Returns (value, dA, dB, converged). ``self_a`` and ``self_b`` are
    what ``self_term(A, cfg, grad=True)`` and ``self_term(B, cfg,
    grad=True)`` returned, for a caller that compares A or B with many
    sets; the ones not given are solved here. Gradients hold the
    transport plans fixed at their converged values, which is exact in
    the limit of a converged solve; finite-difference checks should
    therefore run the solver at a tight tol.
    """
    cfg = cfg if cfg is not None else SinkhornConfig()
    A, B = _check_pair(A, B, cfg)
    ab, dA, dB = cross_term(A, B, cfg, grad=True)
    if not cfg.debiased:
        return ab.value, dA, dB, ab.converged
    aa, half_a = self_a if self_a is not None else self_term(A, cfg, grad=True)
    bb, half_b = self_b if self_b is not None else self_term(B, cfg, grad=True)
    res = _debias(ab, aa, bb)
    return res.value, dA - half_a, dB - half_b, res.converged
