"""Dual projection heads with hand-written forward/backward and AdamW.

Each head is a two-layer MLP (in -> hidden -> out) with a GELU between
the affine layers; the CLS head maps class-token vectors, the patch
head maps token matrices row-wise with the same code path. Parameters
are float64 while training and stored float32 in checkpoints.

The "identity" activation exists for linear test modes where a head
initialized to identity matrices must reproduce its input exactly.

``erf`` is W. J. Cody's rational Chebyshev approximation ("Rational
Chebyshev Approximations for the Error Function", Math. Comp. 23, 1969)
with the coefficients and operation order of Cephes' ``ndtr.c``, which
``scipy.special.erf`` runs. For |x| <= 1 it is x T(x^2) / U(x^2) and
equals scipy bit for bit. For 1 < |x| < 8 it is 1 - exp(-x^2) P(|x|) /
Q(|x|), within 2 ulp of scipy: numpy's vectorised ``exp`` may round
differently from the C library's ``exp``. From 8 on it is exactly +-1,
as scipy's is.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .bundle import EmbeddingBundle
from .errors import FormatError, InvalidInput, IoError, ShapeError
from .records import _is_count
from .reporting import atomic_write, canonical_json
from .rng import derived_rng

ACTIVATIONS = ("gelu", "identity")
CHECKPOINT_VERSION = 1
# rows per mlp_forward pass in apply_head; bounds its float64 temporaries
APPLY_ROW_BLOCK = 256
# AdamW's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Cephes' ndtr.c coefficients rounded to double, leading coefficient
# first; the denominators U and Q are monic, their leading 1 left out
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051,
          55592.30130103949)
_ERF_U = (33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095,
          49267.39426086359)
_ERFC_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814,
           196.5208329560771, 526.4451949954773, 934.5285271719576, 1027.5518868951572,
           557.5353353693994)
_ERFC_Q = (13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
           1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Cephes' polevl: Horner's rule in its operation order, in place."""
    y = x * coefs[0]
    for c in coefs[1:-1]:
        y += c
        y *= x
    y += coefs[-1]
    return y


def _p1evl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Cephes' p1evl: ``_polevl`` with a leading coefficient of 1."""
    y = x + coefs[0]
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def erf(x: np.ndarray) -> np.ndarray:
    """The error function of a float64 array (see the module docstring)."""
    x = np.asarray(x, dtype=np.float64)
    # x T(x^2) / U(x^2) everywhere; the entries with x^2 > 1, which
    # include those whose x^2 overflows, are overwritten below
    with np.errstate(over="ignore", invalid="ignore"):
        z = x * x
        y = _polevl(z, _ERF_T)
        y *= x
        y /= _p1evl(z, _ERF_U)
    tail = z > 1.0  # false for NaN, which stays NaN
    if tail.any():
        xt = x[tail]
        t = np.abs(xt)
        # Cephes' erfc switches to a third fit at |x| = 8, but erfc(8) < 2e-29,
        # so 1 - erfc rounds to exactly 1 from there on, as it does at inf
        erfc = np.zeros_like(t)
        mid = t < 8.0
        tm = t[mid]
        erfc[mid] = np.exp(-tm * tm) * _polevl(tm, _ERFC_P) / _p1evl(tm, _ERFC_Q)
        y[tail] = np.copysign(1.0 - erfc, xt)
    return y


def _gaussian_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x), the standard normal CDF."""
    return 0.5 * (1.0 + erf(x / _SQRT2))


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    return x * _gaussian_cdf(x)


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx GELU = Phi(x) + x * phi(x)."""
    return _gelu_grad(x, _gaussian_cdf(x))


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """``gelu_grad(x)`` given cdf = Phi(x)."""
    return cdf + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


@dataclass
class TwoLayerMLP:
    W1: np.ndarray  # (in, hidden)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (hidden, out)
    b2: np.ndarray  # (out,)


@dataclass
class DualHead:
    cls_head: TwoLayerMLP
    patch_head: TwoLayerMLP
    activation: str = "gelu"

    @property
    def in_dim(self) -> int:
        return self.cls_head.W1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.cls_head.W1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.cls_head.W2.shape[1]


def _init_mlp(in_dim: int, hidden_dim: int, out_dim: int, rng_for) -> TwoLayerMLP:
    def uniform(rng, fan_in, shape):
        k = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-k, k, size=shape)

    return TwoLayerMLP(
        W1=uniform(rng_for("W1"), in_dim, (in_dim, hidden_dim)),
        b1=uniform(rng_for("b1"), in_dim, (hidden_dim,)),
        W2=uniform(rng_for("W2"), hidden_dim, (hidden_dim, out_dim)),
        b2=uniform(rng_for("b2"), hidden_dim, (out_dim,)),
    )


def init_dual_head(
    in_dim: int,
    hidden_dim: int = 512,
    out_dim: int | None = None,
    activation: str = "gelu",
    seed: int = 0,
) -> DualHead:
    """Scaled-uniform fan-in initialization, deterministic per seed."""
    if activation not in ACTIVATIONS:
        raise InvalidInput(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if in_dim < 1 or hidden_dim < 1:
        raise InvalidInput("dims must be positive")
    out_dim = in_dim if out_dim is None else out_dim
    heads = {}
    for name in ("cls", "patch"):
        heads[name] = _init_mlp(
            in_dim, hidden_dim, out_dim, lambda p, n=name: derived_rng(seed, "init", n, p)
        )
    return DualHead(cls_head=heads["cls"], patch_head=heads["patch"], activation=activation)


def identity_dual_head(dim: int) -> DualHead:
    """Identity-map head for linear test modes: weights I, biases 0."""
    def eye():
        return TwoLayerMLP(
            W1=np.eye(dim), b1=np.zeros(dim), W2=np.eye(dim), b2=np.zeros(dim)
        )

    return DualHead(cls_head=eye(), patch_head=eye(), activation="identity")


def mlp_forward(mlp: TwoLayerMLP, X: np.ndarray, activation: str):
    """Row-wise forward pass. Returns (Y, cache) with cache for backward,
    which holds Phi(H) so that the backward pass need not recompute it."""
    X = np.asarray(X, dtype=np.float64)
    squeeze = X.ndim == 1
    if squeeze:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != mlp.W1.shape[0]:
        raise ShapeError(f"input dim {X.shape} does not match head input {mlp.W1.shape[0]}")
    H = X @ mlp.W1 + mlp.b1
    cdf = _gaussian_cdf(H) if activation == "gelu" else None
    A = H if cdf is None else H * cdf
    Y = A @ mlp.W2 + mlp.b2
    cache = (X, H, A, cdf)
    return (Y[0] if squeeze else Y), cache


def mlp_backward(mlp: TwoLayerMLP, cache, dY: np.ndarray, activation: str):
    """Backward pass for one forward cache.

    Returns (dX, grads) where grads maps W1/b1/W2/b2 to arrays shaped
    like the parameters.
    """
    X, H, A, cdf = cache
    dY = np.asarray(dY, dtype=np.float64)
    if dY.ndim == 1:
        dY = dY.reshape(1, -1)
    dW2 = A.T @ dY
    db2 = dY.sum(axis=0)
    dA = dY @ mlp.W2.T
    dH = dA * _gelu_grad(H, cdf) if activation == "gelu" else dA
    dW1 = X.T @ dH
    db1 = dH.sum(axis=0)
    dX = dH @ mlp.W1.T
    return dX, {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


def head_params(head: DualHead) -> dict[str, np.ndarray]:
    """Flat name -> array view of all trainable parameters, fixed order."""
    out: dict[str, np.ndarray] = {}
    for name, mlp in (("cls", head.cls_head), ("patch", head.patch_head)):
        for pname in ("W1", "b1", "W2", "b2"):
            out[f"{name}.{pname}"] = getattr(mlp, pname)
    return out


def clone_head(head: DualHead) -> DualHead:
    def copy_mlp(m: TwoLayerMLP) -> TwoLayerMLP:
        return TwoLayerMLP(m.W1.copy(), m.b1.copy(), m.W2.copy(), m.b2.copy())

    return DualHead(
        cls_head=copy_mlp(head.cls_head),
        patch_head=copy_mlp(head.patch_head),
        activation=head.activation,
    )


@dataclass
class AdamWState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adamw_init(head: DualHead) -> AdamWState:
    params = head_params(head)
    return AdamWState(
        step=0,
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adamw_step(
    head: DualHead,
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam update, in place, of the
    parameters named in ``grads``; the others are left as they are.

    After a single step from zero state the update direction is
    -lr * g / (|g| + eps), the closed form used by the tests. The
    moments are updated in place and each parameter needs two
    temporaries, ``buf`` and ``upd``; every operation is one of
    p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), in its order, so
    the bits are those of that expression.
    """
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - _BETA1**t, 1.0 - _BETA2**t
    params = head_params(head)
    for name, g in grads.items():
        p, m, v = params[name], state.m[name], state.v[name]
        buf = np.multiply(g, 1.0 - _BETA1)
        m *= _BETA1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - _BETA2
        v *= _BETA2
        v += buf
        np.divide(v, c2, out=buf)
        np.sqrt(buf, out=buf)
        buf += _EPS
        upd = m / c1
        upd /= buf
        np.multiply(p, weight_decay, out=buf)
        upd += buf
        upd *= lr
        p -= upd
        if not np.all(np.isfinite(p)):
            raise InvalidInput(f"parameter {name} became non-finite after step {t}")


def save_head(path, head: DualHead, seed: int = 0, config_hash: str = "") -> None:
    """Checkpoint: length-prefixed JSON header + float32 LE payload.

    The header records one set of dims, so both heads must have them; a
    head that ``load_head`` would reject raises InvalidInput and nothing
    is written.
    """
    params = head_params(head)
    dims = [head.in_dim, head.hidden_dim, head.out_dim]
    table = _param_table(*dims)
    if [{"name": name, "shape": list(arr.shape)} for name, arr in params.items()] != table:
        raise InvalidInput(f"parameter shapes do not all match the CLS head's dims {dims}")
    header = {
        "kind": "dual-head",
        "format_version": CHECKPOINT_VERSION,
        "in_dim": head.in_dim,
        "hidden_dim": head.hidden_dim,
        "out_dim": head.out_dim,
        "activation": head.activation,
        "seed": int(seed),
        "config_hash": config_hash,
        "params": table,
    }
    raw = canonical_json(header).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        for arr in params.values():
            fh.write(arr.astype("<f4").tobytes())


def _param_table(in_dim: int, hidden_dim: int, out_dim: int) -> list[dict]:
    """The ``params`` header entries a checkpoint with these dims holds."""
    shapes = {
        "W1": [in_dim, hidden_dim],
        "b1": [hidden_dim],
        "W2": [hidden_dim, out_dim],
        "b2": [out_dim],
    }
    return [
        {"name": f"{head}.{name}", "shape": shape}
        for head in ("cls", "patch")
        for name, shape in shapes.items()
    ]


def load_head(path) -> tuple[DualHead, dict]:
    """Load a checkpoint; returns (head, header). Parameters come back
    float64 (cast up from the stored float32)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < 4:
        raise FormatError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack_from("<I", blob, 0)
    if 4 + hlen > len(blob):
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[4 : 4 + hlen].decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "dual-head":
        raise FormatError(f"{path}: not a dual-head checkpoint")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
    if header.get("activation") not in ACTIVATIONS:
        raise FormatError(f"{path}: unknown activation {header.get('activation')!r}")
    dims = [header.get(key) for key in ("in_dim", "hidden_dim", "out_dim")]
    if not all(_is_count(d, 1) for d in dims):
        raise FormatError(f"{path}: in_dim, hidden_dim and out_dim must be positive integers")
    table = _param_table(*dims)
    if header.get("params") != table:
        raise FormatError(f"{path}: params do not match the header dims {dims}")
    sizes = [math.prod(entry["shape"]) for entry in table]
    off = 4 + hlen
    if len(blob) - off != 4 * sum(sizes):
        raise FormatError(
            f"{path}: payload is {len(blob) - off} bytes, header implies {4 * sum(sizes)}"
        )

    arrays = []
    for entry, count in zip(table, sizes):
        arrays.append(
            np.frombuffer(blob, dtype="<f4", count=count, offset=off)
            .astype(np.float64)
            .reshape(entry["shape"])
        )
        off += count * 4
    # the table lists W1, b1, W2, b2 of the cls head, then of the patch head
    head = DualHead(
        cls_head=TwoLayerMLP(*arrays[:4]),
        patch_head=TwoLayerMLP(*arrays[4:]),
        activation=header["activation"],
    )
    return head, header


def apply_head(head: DualHead, bundle: EmbeddingBundle) -> EmbeddingBundle:
    """Project every item of a bundle; CLS bundles use the CLS head,
    PATCH bundles the patch head. Output arrays are float32.

    Whole items, in id order, are taken by row index into blocks of at
    most ``APPLY_ROW_BLOCK`` rows (an item with more rows is a block of
    its own), and each block takes one ``mlp_forward`` pass, so the
    float64 temporaries stay bounded however large the bundle is. Each
    item's output equals that of a one-item pass, byte for byte. The
    output is one float32 matrix, in id order.
    """
    mlp = head.cls_head if bundle.token_kind == "CLS" else head.patch_head
    if bundle.dim != head.in_dim:
        raise ShapeError(f"bundle dim {bundle.dim} does not match head input {head.in_dim}")
    ids = sorted(bundle.items)
    at, counts = bundle.row_index(ids)
    out = np.empty((len(at), head.out_dim), dtype=np.float32)
    for lo, hi in _row_blocks(counts.tolist(), APPLY_ROW_BLOCK):
        out[lo:hi], _ = mlp_forward(mlp, bundle.matrix[at[lo:hi]].astype(np.float64), head.activation)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return EmbeddingBundle.from_matrix(bundle.token_kind, ids, out, offsets)


def _row_blocks(counts: list[int], bound: int):
    """Row spans ``(lo, hi)`` of consecutive runs of items whose row
    ``counts`` sum to at most ``bound``; an item with more rows than
    ``bound`` is a run of its own."""
    lo = hi = 0
    for n in counts:
        if hi > lo and hi - lo + n > bound:
            yield lo, hi
            lo = hi
        hi += n
    if hi > lo:
        yield lo, hi
