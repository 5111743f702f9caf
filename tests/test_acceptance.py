"""Release gates.

Eight end-to-end checks, one per subsystem, each printing a single
``PASS <name>`` / ``FAIL <name>`` line (run with ``pytest -s`` to see
them stream). Tolerances here are the release contract; do not loosen
them to make a change land.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    ap_oracle,
    auc_oracle,
    exact_ot_cost,
    fd_grad,
    kendall_oracle,
    ndcg_oracle,
    one_entry,
    rel_err,
    spearman_oracle,
    zero_grads,
)

from instasim.bundle import make_bundle, read_bundle, write_bundle
from instasim.curation import aggregate_votes, balanced_allocate
from instasim.errors import CorruptBundle, FormatError
from instasim.heads import (
    head_params,
    init_dual_head,
    mlp_backward,
    mlp_forward,
    save_head,
)
from instasim.losses import (
    LossConfig,
    bce_loss,
    cosine_losses,
    hinge_loss,
    infonce_loss,
    patch_losses,
    total_loss,
)
from instasim.metrics import (
    average_precision,
    kendall_tau_b,
    ndcg_from_ranking,
    ndcg_score,
    roc_auc,
    spearman_rho,
)
from instasim.protocols import (
    RetrievalTask,
    TripletTask,
    run_protocol,
)
from instasim.records import ImageManifest, Triplet, VoteRecord
from instasim.reporting import canonical_json
from instasim.sensitivity import (
    EditGrid,
    GridPoint,
    analyze_grids,
    bootstrap_aggregate,
    fit_instance,
    grid_scores,
)
from instasim.sinkhorn import SinkhornConfig, sinkhorn_divergence
from instasim.trainer import TrainConfig, train


@contextmanager
def gate(name):
    """Print exactly one PASS/FAIL line for a named release gate."""
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences


def _fd_scores(loss_fn, s, cfg):
    return fd_grad(lambda w: loss_fn(w, cfg), s)


def _cls(anchor, positive, negatives, cfg):
    """One triplet through ``cosine_losses``."""
    return one_entry(cosine_losses, np.stack([anchor, positive, *negatives]), cfg)


def _patch(anchor_Z, pos_Z, neg_Zs, cfg, sink_cfg=SinkhornConfig()):
    """One triplet through ``patch_losses``."""
    return one_entry(patch_losses, [anchor_Z, pos_Z, *neg_Zs], cfg, sink_cfg)


def test_gradient_suite():
    with gate("gradient-suite"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)

        # score-level objectives, 100 draws each
        for trial in range(100):
            n_neg = int(rng.integers(1, 9))
            tau = float(rng.uniform(0.1, 0.5))
            cfg = LossConfig(tau=tau, margin=float(rng.uniform(0.0, 0.3)))
            while True:  # softmax tails below ~1e-4 are invisible to FD
                s_pos = float(rng.normal(scale=1.5 * tau))
                s_neg = rng.normal(scale=1.5 * tau, size=n_neg)
                z = np.concatenate(([s_pos - cfg.margin], s_neg)) / tau
                prob = np.exp(z - z.max())
                prob /= prob.sum()
                if prob.min() >= 1e-4 and prob[0] <= 1.0 - 1e-4:
                    break
            s = np.concatenate(([s_pos], s_neg))
            _, d = infonce_loss(s, cfg)
            fd = _fd_scores(lambda w, c: infonce_loss(w, c)[0], s, cfg)
            assert rel_err(d, fd) <= 1e-5

        for trial in range(100):
            n_neg = int(rng.integers(1, 9))
            cfg = LossConfig(margin=float(rng.uniform(0.1, 0.4)), objective="HINGE")
            while True:  # keep every hinge a safe distance from its kink
                s_pos = float(rng.normal())
                s_neg = rng.normal(size=n_neg)
                if np.all(np.abs(cfg.margin - (s_pos - s_neg)) > 1e-3):
                    break
            s = np.concatenate(([s_pos], s_neg))
            _, d = hinge_loss(s, cfg)
            fd = _fd_scores(lambda w, c: hinge_loss(w, c)[0], s, cfg)
            assert rel_err(d, fd) <= 1e-5

        for trial in range(100):
            n_neg = int(rng.integers(1, 9))
            s_pos = float(rng.normal(scale=2.0))
            s_neg = rng.normal(scale=2.0, size=n_neg)
            cfg = LossConfig(objective="BCE")
            s = np.concatenate(([s_pos], s_neg))
            _, d = bce_loss(s, cfg)
            fd = _fd_scores(lambda w, c: bce_loss(w, c)[0], s, cfg)
            assert rel_err(d, fd) <= 1e-5

        # one-triplet cosine_losses through the cosine jacobians, all
        # three objectives
        objectives = ("INFONCE", "HINGE", "BCE")
        for trial in range(100):
            dim = int(rng.integers(3, 7))
            n_neg = int(rng.integers(1, 4))
            cfg = LossConfig(
                tau=0.2, margin=0.1, objective=objectives[trial % len(objectives)]
            )
            cos = lambda u, w: u @ w / (np.linalg.norm(u) * np.linalg.norm(w))
            while True:
                a = rng.normal(size=dim)
                p = rng.normal(size=dim)
                negs = [rng.normal(size=dim) for _ in range(n_neg)]
                vecs = [a, p] + negs
                if min(np.linalg.norm(v) for v in vecs) < 0.5:
                    continue
                if cfg.objective == "HINGE":
                    gaps = [cfg.margin - (cos(a, p) - cos(a, nv)) for nv in negs]
                    if np.all(np.abs(gaps) > 1e-3):
                        break
                elif cfg.objective == "INFONCE":
                    z = np.array(
                        [cos(a, p) - cfg.margin] + [cos(a, nv) for nv in negs]
                    ) / cfg.tau
                    prob = np.exp(z - z.max())
                    prob /= prob.sum()
                    if prob.min() >= 1e-4 and prob[0] <= 1.0 - 1e-4:
                        break
                else:
                    break
            loss, ga, gp, gns = _cls(a, p, negs, cfg)
            h = 1e-5  # rounding error dominates truncation below this step
            assert rel_err(ga, fd_grad(lambda x: _cls(x, p, negs, cfg)[0], a, h)) <= 1e-5
            assert rel_err(gp, fd_grad(lambda x: _cls(a, x, negs, cfg)[0], p, h)) <= 1e-5
            fd_n = fd_grad(
                lambda N: _cls(a, p, list(N), cfg)[0], np.stack(negs), h
            )
            assert rel_err(np.stack(gns), fd_n) <= 1e-5

        # one-triplet patch_losses through the transport divergence
        # (coarser tolerance: the divergence itself is iterative; tol is
        # tight because the envelope gradient inherits the solver residual)
        sink = SinkhornConfig(epsilon=0.3, max_iters=20000, tol=1e-11)
        cfg = LossConfig(tau=0.2, margin=0.05, patch_metric="SINKHORN")
        for trial in range(100):
            n_neg = int(rng.integers(1, 3))
            while True:
                A = rng.normal(size=(2, 3))
                P = rng.normal(size=(2, 3))
                Ns = [rng.normal(size=(2, 3)) for _ in range(n_neg)]
                rows = np.vstack([A, P] + Ns)
                if np.linalg.norm(rows, axis=1).min() > 1e-2:
                    break
            loss, gA, gP, gNs = _patch(A, P, Ns, cfg, sink)
            h = 1e-5
            assert rel_err(gA, fd_grad(lambda X: _patch(X, P, Ns, cfg, sink)[0], A, h)) <= 1e-3
            assert rel_err(gP, fd_grad(lambda X: _patch(A, X, Ns, cfg, sink)[0], P, h)) <= 1e-3
            fd_n = fd_grad(lambda N: _patch(A, P, list(N), cfg, sink)[0], np.stack(Ns), h)
            assert rel_err(np.stack(gNs), fd_n) <= 1e-3

        # every projection-head parameter, assembled the way the trainer
        # does it: backprop through both heads, patch branch scaled by lam
        for trial in range(100):
            head = init_dual_head(3, hidden_dim=2, out_dim=3, seed=1000 + trial)
            act = head.activation
            n_neg = int(rng.integers(1, 3))
            cfg = LossConfig(
                tau=0.15,
                lam=float(rng.choice([0.5, 1.0, 2.0])),
                margin=0.1,
                patch_metric="COSINE_MEANPOOL",
            )
            a = rng.normal(size=3) + 0.5
            p = rng.normal(size=3) + 0.5
            negs = [rng.normal(size=3) + 0.5 for _ in range(n_neg)]
            A = rng.normal(size=(2, 3))
            P = rng.normal(size=(2, 3))
            Ns = [rng.normal(size=(2, 3)) for _ in range(n_neg)]

            def chain_loss(_ignored=None):
                za, _ = mlp_forward(head.cls_head, a, act)
                zp, _ = mlp_forward(head.cls_head, p, act)
                zns = [mlp_forward(head.cls_head, n, act)[0] for n in negs]
                ZA, _ = mlp_forward(head.patch_head, A, act)
                ZP, _ = mlp_forward(head.patch_head, P, act)
                ZNs = [mlp_forward(head.patch_head, N, act)[0] for N in Ns]
                lc = _cls(za, zp, zns, cfg)[0]
                lp = _patch(ZA, ZP, ZNs, cfg)[0]
                return total_loss(lc, lp, cfg)

            grads = zero_grads(head)
            za, ca = mlp_forward(head.cls_head, a, act)
            zp, cp = mlp_forward(head.cls_head, p, act)
            zns, cns = zip(*(mlp_forward(head.cls_head, n, act) for n in negs))
            _, ga, gp, gns = _cls(za, zp, list(zns), cfg)
            for cache, up in [(ca, ga), (cp, gp), *zip(cns, gns)]:
                _, g = mlp_backward(head.cls_head, cache, up, act)
                for k, v in g.items():
                    grads[f"cls.{k}"] += v
            ZA, cA = mlp_forward(head.patch_head, A, act)
            ZP, cP = mlp_forward(head.patch_head, P, act)
            ZNs, cNs = zip(*(mlp_forward(head.patch_head, N, act) for N in Ns))
            _, gA, gP, gNs = _patch(ZA, ZP, list(ZNs), cfg)
            for cache, up in [(cA, gA), (cP, gP), *zip(cNs, gNs)]:
                _, g = mlp_backward(head.patch_head, cache, cfg.lam * up, act)
                for k, v in g.items():
                    grads[f"patch.{k}"] += v

            for name, arr in head_params(head).items():
                fd = fd_grad(chain_loss, arr, h=1e-5)
                assert rel_err(grads[name], fd) <= 1e-5, name

        assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 2. transport divergence properties and exact small-case values


def test_ot_suite():
    with gate("ot-suite"):
        rng = np.random.default_rng(23)
        tight = SinkhornConfig(epsilon=0.1, max_iters=20000, tol=1e-6)

        for trial in range(100):
            n, m = rng.integers(1, 7, size=2)
            X = rng.normal(size=(int(n), 3))
            Y = rng.normal(size=(int(m), 3))
            d_xy = sinkhorn_divergence(X, Y, tight).value
            d_yx = sinkhorn_divergence(Y, X, tight).value
            assert abs(d_xy - d_yx) <= 1e-6
            assert d_xy >= -1e-6
            assert abs(sinkhorn_divergence(X, X.copy(), tight).value) <= 1e-6

        # nearly-unregularized runs against brute force (permutation
        # enumeration / LP), which has no entropy term: compare values
        # only, within 2%
        near_exact = SinkhornConfig(
            epsilon=1e-3, max_iters=120000, tol=1e-8, debiased=False
        )
        for trial in range(10):
            n, m = rng.integers(2, 7, size=2)
            # spread the clouds so the entropic bias at this epsilon is
            # far inside the 2% band
            X = 2.0 * rng.random((int(n), 2))
            Y = 2.0 * rng.random((int(m), 2))
            approx = sinkhorn_divergence(X, Y, near_exact).value
            exact = exact_ot_cost(X, Y)
            assert abs(approx - exact) <= 0.02 * max(abs(exact), 1e-9)

        for trial in range(20):
            a = rng.normal(size=(1, 4))
            b = rng.normal(size=(1, 4))
            want = 0.5 * float(((a - b) ** 2).sum())
            got = sinkhorn_divergence(a, b, tight).value
            assert abs(got - want) <= 1e-9


# ---------------------------------------------------------------------------
# 3. balanced allocation arithmetic


def test_curation_arithmetic():
    with gate("curation-arithmetic"):
        inventory = {
            "MET": 734,
            "ILIAS": 900,
            "FORB": 4050,
            "GLDv2": 4503,
            "WR10k": 9756,
            "SOP": 11318,
            "MVI": 20000,
            "DF2": 30018,
        }
        alloc = balanced_allocate(inventory, 11000)
        assert alloc == {
            "MET": 734,
            "ILIAS": 900,
            "FORB": 1561,
            "GLDv2": 1561,
            "WR10k": 1561,
            "SOP": 1561,
            "MVI": 1561,
            "DF2": 1561,
        }
        assert sum(alloc.values()) == 11000

        assert balanced_allocate({"a": 5, "b": 5}, 10) == {"a": 5, "b": 5}
        assert balanced_allocate({"a": 2, "b": 100}, 10) == {"a": 2, "b": 8}


# ---------------------------------------------------------------------------
# 4. ranking and correlation metrics vs brute-force recounts


def _unit_cosine(u, v):
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def test_metric_oracles():
    with gate("metric-oracles"):
        rng = np.random.default_rng(37)

        for trial in range(100):
            n = int(rng.integers(2, 51))
            scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            keys = np.array([f"i{j:03d}" for j in range(n)])
            got = average_precision(scores, labels, tie_key=keys)
            assert abs(got - ap_oracle(scores, labels, keys)) <= 1e-12
            got = ndcg_score(scores, labels, tie_key=keys)
            assert abs(got - ndcg_oracle(scores, labels, keys)) <= 1e-12
            if 0 < labels.sum() < n:
                got = roc_auc(scores, labels)
                assert abs(got - auc_oracle(scores, labels)) <= 1e-12

        for trial in range(100):
            n = int(rng.integers(3, 51))
            x = rng.integers(0, 6, size=n).astype(np.float64)
            y = np.round(rng.normal(size=n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert abs(spearman_rho(x, y) - spearman_oracle(x, y)) <= 1e-12
            assert abs(kendall_tau_b(x, y) - kendall_oracle(x, y)) <= 1e-12

        # retrieval- and triplet-level aggregation on real bundles
        for trial in range(100):
            dim = 6
            n_gal = int(rng.integers(4, 13))
            n_q = int(rng.integers(1, 5))
            gallery = [f"g{j}" for j in range(n_gal)]
            queries = [f"q{j}" for j in range(n_q)]
            items = {i: rng.normal(size=dim) for i in gallery + queries}
            bundle = make_bundle("CLS", dim, items)
            relevance = {}
            for q in queries:
                k = int(rng.integers(1, n_gal + 1))
                relevance[q] = set(rng.choice(gallery, size=k, replace=False))
            task = RetrievalTask(queries=queries, gallery=gallery, relevance=relevance)

            keys = np.array(sorted(gallery))
            aps, ndcgs = [], []
            for q in sorted(queries):
                s = np.array(
                    [_unit_cosine(bundle.items[q], bundle.items[g]) for g in keys]
                )
                l = np.array([1 if g in relevance[q] else 0 for g in keys])
                aps.append(ap_oracle(s, l, keys))
                ndcgs.append(ndcg_oracle(s, l, keys))
            metrics = run_protocol("RETRIEVAL", bundle, task=task)["metrics"]
            assert abs(metrics["map"] - np.mean(aps)) <= 1e-12
            assert abs(metrics["mean_ndcg"] - np.mean(ndcgs)) <= 1e-12

            ids = gallery + queries
            trips = []
            n_trip = int(rng.integers(2, 9))
            for _ in range(n_trip):
                a, p, ng = rng.choice(ids, size=3, replace=False)
                trips.append((str(a), str(p), str(ng), str(rng.choice(["EASY", "HARD"]))))
            task = TripletTask(triplets=trips)
            got = run_protocol("TRIPLET", bundle, task=task)["metrics"]["accuracy"]
            for mode in set(t[3] for t in trips):
                subset = [t for t in trips if t[3] == mode]
                wins = sum(
                    1
                    for a, p, ng, _ in subset
                    if _unit_cosine(bundle.items[a], bundle.items[p])
                    > _unit_cosine(bundle.items[a], bundle.items[ng])
                )
                assert abs(got[mode] - wins / len(subset)) <= 1e-12

        # worked examples with known closed forms
        assert abs(
            average_precision([3.0, 2.0, 1.0], [1, 0, 1]) - 5.0 / 6.0
        ) <= 1e-15
        assert abs(ndcg_from_ranking([0, 1]) - 1.0 / np.log2(3.0)) <= 1e-15
        assert roc_auc([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0]) == 0.5


# ---------------------------------------------------------------------------
# 5. trainer end to end on separable synthetic identities


def _separable_world(seed):
    dim, n_inst, n_img = 32, 20, 10
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(n_inst, dim))
    d_min = min(
        np.linalg.norm(means[i] - means[j])
        for i in range(n_inst)
        for j in range(i + 1, n_inst)
    )
    means *= 4.0 * np.sqrt(dim) / d_min  # unit noise => 4-sigma separation
    items, manifests = {}, []
    for k in range(n_inst):
        split = "train" if k < 18 else "val"
        for j in range(n_img):
            iid = f"i{k:02d}-{j}"
            items[iid] = means[k] + rng.normal(size=dim)
            manifests.append(
                ImageManifest(
                    image_id=iid,
                    instance_id=f"inst{k:02d}",
                    dataset_id="synth",
                    subset="S1",
                    split=split,
                )
            )
    triplets = []
    for k in range(n_inst):
        other = (k + 1) % n_inst
        count = 0
        for a in range(n_img):
            for p in range(n_img):
                if a == p:
                    continue
                triplets.append(
                    Triplet(
                        anchor=f"i{k:02d}-{a}",
                        positive=f"i{k:02d}-{p}",
                        hard_negative=f"i{other:02d}-{count % n_img}",
                        hard_negative_kind="MINED_REAL",
                    )
                )
                count += 1
    return manifests, make_bundle("CLS", 32, items), triplets


def test_trainer_end_to_end(tmp_path):
    with gate("trainer-e2e"):
        manifests, bundle, triplets = _separable_world(2024)
        cfg = TrainConfig(loss=LossConfig(lam=0.0))

        t0 = time.perf_counter()
        result = train(manifests, bundle, triplets, cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert len(result.history) <= 3
        assert max(h["val_accuracy"] for h in result.history) >= 0.95

        rerun = train(manifests, bundle, triplets, cfg)
        assert canonical_json(result.history) == canonical_json(rerun.history)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_head(p1, result.best_head, seed=cfg.seed)
        save_head(p2, rerun.best_head, seed=cfg.seed)
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# 6. sensitivity regression: exact recovery, CI coverage, determinism


def _exact_grid():
    # integer embeddings whose cosines are exact simple ratios, planted
    # on sim = 1 - 0.1 * factor - 0.5 * identity
    vecs = {
        "anchor": [5.0, 0.0],
        "e1": [4.0, 3.0],
        "e2": [3.0, 4.0],
        "e3": [8.0, -6.0],
        "e4": [6.0, -8.0],
        "e5": [24.0, 7.0],
        "e6": [7.0, 24.0],
    }
    pts = [
        GridPoint("e1", 0.0, 2.0, "blur"),
        GridPoint("e2", 0.0, 4.0, "blur"),
        GridPoint("e3", 1.0, -3.0, "blur"),
        GridPoint("e4", 1.0, -1.0, "blur"),
        GridPoint("e5", 0.0, 0.4, "blur"),
        GridPoint("e6", 1.0, 2.2, "blur"),
    ]
    items = {k: np.array(v) for k, v in vecs.items()}
    return EditGrid(anchor="anchor", points=pts), make_bundle("CLS", 2, items)


def _noisy_grids(rng, n_inst, dim=8, sigma=0.01):
    """Instances on sim = 1 - 0.04 * factor - 0.05 * identity + noise."""
    grids, items = [], {}
    for k in range(n_inst):
        anchor = f"a{k:02d}"
        items[anchor] = np.zeros(dim)
        items[anchor][0] = 1.0
        pts = []
        for f in range(2, 9):
            for ident in (0, 1):
                t = 1.0 - 0.04 * f - 0.05 * ident + sigma * rng.normal()
                assert abs(t) < 1.0
                u = rng.normal(size=dim - 1)
                u /= np.linalg.norm(u)
                vec = np.zeros(dim)
                vec[0] = t
                vec[1:] = np.sqrt(1.0 - t * t) * u
                iid = f"a{k:02d}-f{f}-i{ident}"
                items[iid] = vec
                pts.append(GridPoint(iid, float(ident), float(f), "blur"))
        grids.append(EditGrid(anchor=anchor, points=pts))
    return grids, make_bundle("CLS", dim, items)


def test_sensitivity_suite(tmp_path):
    with gate("sensitivity-suite"):
        grid, bundle = _exact_grid()
        fit = fit_instance(grid, grid_scores([grid], bundle))
        assert abs(fit.beta0 - 1.0) <= 1e-10
        assert abs(fit.beta_factor - (-0.1)) <= 1e-10
        assert abs(fit.beta_identity - (-0.5)) <= 1e-10
        assert abs(fit.r2 - 1.0) <= 1e-10

        hits_factor = hits_identity = 0
        for rep in range(100):
            rng = np.random.default_rng(3000 + rep)
            grids, noisy = _noisy_grids(rng, n_inst=24)
            scores = grid_scores(grids, noisy)
            fits = [fit_instance(g, scores) for g in grids]
            report = bootstrap_aggregate(fits, n_boot=1000, seed=rep)
            fac = report["factors"]["blur"]
            ident = report["identity"]
            hits_factor += fac["ci_low"] <= 0.04 <= fac["ci_high"]
            hits_identity += ident["ci_low"] <= 0.05 <= ident["ci_high"]
        assert hits_factor >= 90, hits_factor
        assert hits_identity >= 90, hits_identity

        rng = np.random.default_rng(77)
        grids, noisy = _noisy_grids(rng, n_inst=6)
        rep_a = analyze_grids(grids, grid_scores(grids, noisy), n_boot=1000, seed=5)
        rep_b = analyze_grids(grids, grid_scores(grids, noisy), n_boot=1000, seed=5)
        assert canonical_json(rep_a) == canonical_json(rep_b)


# ---------------------------------------------------------------------------
# 7. vote aggregation on a fixed annotation round


def test_vote_aggregation():
    with gate("vote-aggregation"):
        out = aggregate_votes([VoteRecord(pair_id="p", votes=(1, 1, 1, 1, 0))])[0]
        assert out.label == pytest.approx(0.8)
        assert out.agreement == pytest.approx(0.8)
        assert out.binary == 0
        low = aggregate_votes([VoteRecord(pair_id="q", votes=(0, 0, 0, 1))])[0]
        assert low.agreement == pytest.approx(0.75)

        # a 2000-pair round reconstructed from its published label
        # histogram; bin counts and the strict 0.8 split must reproduce
        bin_votes = [
            (788, [0, 0, 0, 0, 0]),
            (94, [1] + [0] * 8),
            (111, [1, 1] + [0] * 7),
            (96, [1, 0, 0]),
            (141, [1, 1, 0, 0, 0]),
            (70, [1, 1, 1, 0, 0, 0]),
            (143, [1] * 5 + [0] * 4),
            (68, [1, 1, 0]),
            (16, [1, 1, 1, 0]),
            (89, [1] * 13 + [0] * 3),
            (77, [1] * 7 + [0]),
            (307, [1, 1, 1, 1, 1]),
        ]
        records = []
        for count, votes in bin_votes:
            for _ in range(count):
                records.append(VoteRecord(pair_id=f"pair{len(records):04d}", votes=tuple(votes)))
        summaries = aggregate_votes(records)
        labels = np.array([s.label for s in summaries])
        edges = [0.0, 0.09, 0.18, 0.27, 0.36, 0.45, 0.55, 0.64, 0.73, 0.82, 0.91, 1.0]
        hist, _ = np.histogram(labels, bins=edges)
        assert hist.tolist() == [788, 94, 111, 96, 141, 70, 143, 68, 105, 77, 307]
        n_pos = sum(s.binary for s in summaries)
        assert n_pos == 473
        assert len(summaries) - n_pos == 1527


# ---------------------------------------------------------------------------
# 8. container formats: round trips, rejection, thread invariance


def _run_cli(*argv):
    import contextlib
    import io

    from instasim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()


def test_format_suite(tmp_path):
    with gate("format-suite"):
        rng = np.random.default_rng(53)
        items = {f"im{j}": rng.normal(size=(1, 5)) for j in range(7)}
        cls = make_bundle("CLS", 5, items)
        patch = make_bundle(
            "PATCH", 4, {f"tok{j}": rng.normal(size=(j + 1, 4)) for j in range(5)}
        )
        for bundle, name in ((cls, "c.idse"), (patch, "p.idse")):
            path = tmp_path / name
            write_bundle(path, bundle)
            loaded = read_bundle(path)
            assert loaded.token_kind == bundle.token_kind
            assert loaded.dim == bundle.dim
            assert sorted(loaded.items) == sorted(bundle.items)
            for key, arr in bundle.items.items():
                got = loaded.items[key]
                assert got.dtype == np.float32
                assert got.tobytes() == arr.tobytes()
            second = tmp_path / ("2" + name)
            write_bundle(second, loaded)
            assert second.read_bytes() == path.read_bytes()

        blob = bytearray((tmp_path / "c.idse").read_bytes())
        bad_magic = tmp_path / "magic.idse"
        bad_magic.write_bytes(bytes([blob[0] ^ 0xFF]) + bytes(blob[1:]))
        with pytest.raises(FormatError):
            read_bundle(bad_magic)
        future = bytearray(blob)
        future[8:12] = (99).to_bytes(4, "little")
        bad_version = tmp_path / "version.idse"
        bad_version.write_bytes(bytes(future))
        with pytest.raises(FormatError):
            read_bundle(bad_version)
        truncated = tmp_path / "short.idse"
        truncated.write_bytes(bytes(blob[:-2]))
        with pytest.raises(CorruptBundle):
            read_bundle(truncated)

        # report writers must not see thread count at all
        eval_bundle = tmp_path / "eval.idse"
        write_bundle(eval_bundle, cls)
        pairs = tmp_path / "pairs.jsonl"
        with open(pairs, "w") as fh:
            for j in range(6):
                ref, cand = f"im{j}", f"im{(j + 1) % 7}"
                fh.write(
                    '{"ref_id": "%s", "cand_id": "%s", "label": %d}\n'
                    % (ref, cand, j % 2)
                )
        reports = []
        for threads in (1, 8):
            out_path = tmp_path / f"rep{threads}.json"
            code, _, err = _run_cli(
                "eval",
                "verification",
                "--bundle",
                str(eval_bundle),
                "--pairs",
                str(pairs),
                "--out",
                str(out_path),
                "--threads",
                str(threads),
            )
            assert code == 0, err
            reports.append(out_path.read_bytes())
        assert reports[0] == reports[1]
