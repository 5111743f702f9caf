"""Walk through the patch-set similarity used for token embeddings.

Two images of the same object should have token clouds that transport
onto each other cheaply; unrelated clouds should not. This script
builds three tiny clouds, prints the debiased divergence matrix, and
checks the two closed-form anchors: zero self-divergence and the
squared-distance value for single-atom clouds.
"""

import numpy as np

from instasim.sinkhorn import SinkhornConfig, sinkhorn_divergence


def unit_rows(M):
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def main():
    rng = np.random.default_rng(0)
    cfg = SinkhornConfig(epsilon=0.05, max_iters=5000, tol=1e-8)

    base = rng.normal(size=(6, 16))
    same = base + 0.05 * rng.normal(size=base.shape)  # same object, new view
    other = rng.normal(size=(5, 16))

    clouds = {"base": unit_rows(base), "same": unit_rows(same), "other": unit_rows(other)}
    names = list(clouds)
    print("debiased divergence (rows/cols: %s)" % ", ".join(names))
    for a in names:
        row = [sinkhorn_divergence(clouds[a], clouds[b], cfg).value for b in names]
        print("  %-6s" % a + "  ".join("%9.6f" % v for v in row))

    print()
    print("similarity is the negated divergence:")
    for b in ("same", "other"):
        print("  sim(base, %s) = %.6f" % (b, -sinkhorn_divergence(clouds["base"], clouds[b], cfg).value))

    # single atoms make the transport plan trivial, so the value is
    # exactly half the squared euclidean distance
    a = rng.normal(size=(1, 8))
    b = rng.normal(size=(1, 8))
    got = sinkhorn_divergence(a, b, cfg).value
    want = 0.5 * float(((a - b) ** 2).sum())
    print()
    print("single atoms: divergence %.9f vs 0.5*||a-b||^2 %.9f" % (got, want))

    eps_sweep = [0.5, 0.1, 0.02]
    vals = [
        sinkhorn_divergence(clouds["base"], clouds["other"], SinkhornConfig(epsilon=e, max_iters=20000, tol=1e-8)).value
        for e in eps_sweep
    ]
    print()
    print("regularization sweep on (base, other):")
    for e, v in zip(eps_sweep, vals):
        print("  epsilon=%-5g divergence=%.6f" % (e, v))


if __name__ == "__main__":
    main()
