"""Seeded input generator and stage plans for the benchmark workloads.

``generate(name, seed, scale, out_dir)`` writes every input file a
workload needs under ``out_dir`` and returns a ``Workload``: the CLI
stages to run, the files read at set-up, the counts each output must
show, and the input sizes. The program under test only ever sees the
files; the same seed always gives byte-identical inputs.

Why these two workloads (the rationale is repeated in BENCHMARK.json):

- ``cls_pipeline``: the whole CLI chain curate -> mine -> triplets ->
  train (lambda = 0) -> apply -> eval (all four protocols) ->
  sensitivity over a CLS corpus. It loads curation, the heads, the
  trainer, the CLS scoring loop and the O(n^2) Kendall, and does no
  Sinkhorn work, so a solver change should leave it unchanged.
- ``patch``: eval retrieval, eval triplet and sensitivity with a trend
  on a PATCH bundle at default Sinkhorn flags, then train with
  lambda > 0 on matching CLS and PATCH bundles of a second corpus, some
  items over --max-tokens. The solver and its self terms do almost all
  the work: for values in the eval stages, where gallery items and grid
  anchors recur across many pairs and sensitivity scores its pairs
  twice, and for plans and envelope gradients in the train stage. Its
  eval_s and train_s show a change that helps one use and hurts the other.
"""
from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from instasim.bundle import make_bundle, write_bundle
from instasim.records import ImageManifest, PairLabel, Triplet, save_manifest, save_pair_labels, save_triplets

WORKLOADS = ("cls_pipeline", "patch")

SCALES = {
    "full": {
        "cls_pipeline": dict(
            datasets=4, instances=80, views=3, dim=256, budget=240, triplets=150,
            queries=100, eval_triplets=200, verif_pairs=400, corr_pairs=2000,
            grids=24, mine_k=3,
        ),
        "patch": {
            "eval": dict(
                instances=16, views=3, dim=64, tokens=(16, 48), queries=8, gallery_per_query=2,
                eval_triplets=32, grids=12,
            ),
            "train": dict(
                instances=22, views=3, dim=48, tokens=(12, 36), max_tokens=24,
                epochs=1, batch_size=4, grad_accum=2, hidden_dim=64,
            ),
        },
    },
    "tiny": {
        "cls_pipeline": dict(
            datasets=4, instances=8, views=3, dim=16, budget=32, triplets=48,
            queries=8, eval_triplets=16, verif_pairs=24, corr_pairs=40,
            grids=4, mine_k=2,
        ),
        "patch": {
            "eval": dict(
                instances=4, views=3, dim=8, tokens=(3, 8), queries=2, gallery_per_query=2,
                eval_triplets=4, grids=4,
            ),
            "train": dict(
                instances=6, views=3, dim=8, tokens=(3, 8), max_tokens=6,
                epochs=1, batch_size=4, grad_accum=2, hidden_dim=8,
            ),
        },
    },
}

# cls_pipeline trains at the CLI's default flags, three epochs among them.
CLI_DEFAULT_EPOCHS = 3

FACTORS = ("lighting", "background")
# (factor_change, identity_change) of each grid point; with the implicit
# anchor point (0, 0) the design has full rank.
GRID_POINTS = ((0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.5, 0.5), (1.0, 1.0))


@dataclass
class Stage:
    """One CLI invocation. ``kind`` names the stage timing it adds to
    (mine, train, eval, sensitivity; None: counted in wall_s only);
    ``outputs`` are the files it writes, compared byte for byte across
    repetitions."""

    name: str
    kind: str | None
    argv: list[str]
    outputs: list[str]


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    stages: list[Stage]
    reads: list[tuple[str, str]]  # (loader, path) for the set-up timing
    sizes: dict
    pairs: int  # pair scores the task files request
    recur_share: float  # share of those pairs with an item in another pair
    repeat_share: float  # share of pair requests that repeat an earlier one
    train_triplets: int  # training triplets x epochs; -1: count from count_train
    expect: dict = field(default_factory=dict)  # output file -> expected counts
    # triplets file, manifests and epochs of a train stage whose triplets
    # an earlier stage writes
    count_train: dict = field(default_factory=dict)


def generate(name: str, seed: int, scale: str, out_dir: str) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    p = SCALES[scale][name]
    wl = (_cls_pipeline if name == "cls_pipeline" else _patch)(rng, p, out_dir)
    wl.seed, wl.scale = seed, scale
    return wl


# ---------------------------------------------------------------------------
# helpers


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _pair_stats(pairs: list[tuple[str, str]]) -> tuple[float, float]:
    """(recur_share, repeat_share) of a list of requested pairs."""
    uses = Counter(x for pair in pairs for x in set(pair))
    recur = sum(1 for x, y in pairs if uses[x] > 1 or uses[y] > 1)
    distinct = len({frozenset(p) for p in pairs})
    return recur / len(pairs), (len(pairs) - distinct) / len(pairs)


def _grid_rows(anchor: str, points: list[str], factor: str) -> dict:
    return {
        "anchor": anchor,
        "points": [
            {"image_id": img, "factor_change": f, "identity_change": i, "factor_name": factor}
            for img, (f, i) in zip(points, GRID_POINTS)
        ],
    }


def _graded_pairs(rng, images_by_inst: dict[str, list[str]], group_of: dict[str, int], n: int):
    """Labelled pairs whose grade follows identity: same instance 3-4,
    same group 1-2, unrelated 0-1."""
    insts = sorted(images_by_inst)
    by_group: dict[int, list[str]] = {}
    for inst in insts:
        by_group.setdefault(group_of[inst], []).append(inst)
    pairs, seen = [], set()
    while len(pairs) < n:
        inst = insts[rng.integers(len(insts))]
        kind = rng.integers(3)
        if kind == 0:
            other = inst
        elif kind == 1:
            other = by_group[group_of[inst]][rng.integers(len(by_group[group_of[inst]]))]
        else:
            other = insts[rng.integers(len(insts))]
        a = images_by_inst[inst][rng.integers(len(images_by_inst[inst]))]
        b = images_by_inst[other][rng.integers(len(images_by_inst[other]))]
        if a == b or (a, b) in seen or (b, a) in seen:
            continue
        seen.add((a, b))
        if other == inst:
            grade = 3 + rng.integers(2)
        elif group_of[other] == group_of[inst]:
            grade = 1 + rng.integers(2)
        else:
            grade = rng.integers(2)
        pairs.append(PairLabel(a, b, float(grade)))
    return pairs


# ---------------------------------------------------------------------------
# cls_pipeline


def _cls_pipeline(rng, p: dict, out: str) -> Workload:
    dim, n_views = p["dim"], p["views"]
    items: dict[str, np.ndarray] = {}
    manifests: list[ImageManifest] = []
    s1_by_inst: dict[str, list[str]] = {}
    group_of: dict[str, int] = {}
    edit_dirs = {f: _unit(rng.normal(size=dim)) for f in FACTORS}
    inventory: dict[str, int] = {}
    n_groups = max(2, p["instances"] // 6)
    group_centres = _unit(rng.normal(size=(n_groups, dim)))
    grid_specs = []
    for d in range(p["datasets"]):
        ds = f"ds{d}"
        inventory[ds] = p["instances"]
        for k in range(p["instances"]):
            inst = f"{ds}-i{k:04d}"
            group = int(rng.integers(n_groups))
            group_of[inst] = group
            mean = _unit(group_centres[group] + 0.6 * rng.normal(size=dim) / np.sqrt(dim) * 4)
            split = "val" if k >= p["instances"] - max(1, p["instances"] // 10) else "train"
            for v in range(n_views):
                img = f"{inst}-v{v}"
                items[img] = mean + 0.25 * rng.normal(size=dim) / np.sqrt(dim)
                manifests.append(ImageManifest(img, inst, ds, "S1", split))
                s1_by_inst.setdefault(inst, []).append(img)
            # identity-preserving edits (S2a); grid instances get one per grid point
            is_grid = len(grid_specs) < p["grids"] and k % 3 == 0
            factor = FACTORS[len(grid_specs) % 2] if is_grid else FACTORS[k % 2]
            n_edits = len(GRID_POINTS) if is_grid else 1
            edits = []
            other = _unit(rng.normal(size=dim))
            for j in range(n_edits):
                f_chg, i_chg = GRID_POINTS[j] if n_edits > 1 else (0.5, 0.0)
                img = f"{inst}-e{j}"
                vec = (1 - 0.5 * i_chg) * mean + 0.5 * i_chg * other + 0.3 * f_chg * edit_dirs[factor]
                items[img] = vec + 0.1 * rng.normal(size=dim) / np.sqrt(dim)
                manifests.append(
                    ImageManifest(img, inst, ds, "S2a", split, {"factor": factor, "strength": f_chg})
                )
                edits.append(img)
            if n_edits > 1:
                grid_specs.append((f"{inst}-v0", edits, factor))
            # identity-altering edit (S2b), a new identity derived from inst
            img = f"{inst}-x0"
            items[img] = 0.5 * mean + 0.5 * other + 0.1 * rng.normal(size=dim) / np.sqrt(dim)
            manifests.append(
                ImageManifest(img, f"{inst}-alt", ds, "S2b", split, {"source_instance": inst})
            )

    cls_path, s1_path = os.path.join(out, "cls.idse"), os.path.join(out, "s1.idse")
    write_bundle(cls_path, make_bundle("CLS", dim, items))
    s1_ids = [r.image_id for r in manifests if r.subset == "S1"]
    write_bundle(s1_path, make_bundle("CLS", dim, {i: items[i] for i in s1_ids}))
    man_path = os.path.join(out, "manifests.jsonl")
    save_manifest(man_path, manifests)
    inv_path = os.path.join(out, "inventory.json")
    with open(inv_path, "w", encoding="utf-8") as fh:
        json.dump(inventory, fh, sort_keys=True)

    # retrieval: view 0 of some instances against every other S1 view
    insts = sorted(s1_by_inst)
    q_insts = [insts[i] for i in sorted(rng.choice(len(insts), size=p["queries"], replace=False))]
    queries = [s1_by_inst[i][0] for i in q_insts]
    gallery = sorted(set(s1_ids) - set(queries))
    task_rows = [{"gallery": gallery}] + [
        {"query": q, "relevant": s1_by_inst[i][1:]} for q, i in zip(queries, q_insts)
    ]
    ret_path = os.path.join(out, "retrieval.jsonl")
    _write_jsonl(ret_path, task_rows)

    trip_rows = []
    for t in range(p["eval_triplets"]):
        inst = insts[rng.integers(len(insts))]
        a, pos = s1_by_inst[inst][0], s1_by_inst[inst][1]
        mode = "HARD" if t % 2 else "EASY"
        if mode == "HARD":
            mates = [i for i in insts if group_of[i] == group_of[inst] and i != inst]
            pool = mates or [i for i in insts if i != inst]
        else:
            pool = [i for i in insts if group_of[i] != group_of[inst]] or [i for i in insts if i != inst]
        neg = s1_by_inst[pool[rng.integers(len(pool))]][2 % n_views]
        trip_rows.append({"anchor": a, "positive": pos, "negative": neg, "mode": mode})
    trip_path = os.path.join(out, "triplet_task.jsonl")
    _write_jsonl(trip_path, trip_rows)

    graded = _graded_pairs(rng, s1_by_inst, group_of, p["verif_pairs"] + p["corr_pairs"])
    verif = [PairLabel(x.ref_id, x.cand_id, 1.0 if x.label >= 3 else 0.0) for x in graded[: p["verif_pairs"]]]
    corr = graded[p["verif_pairs"]:]
    verif_path, corr_path = os.path.join(out, "verification.jsonl"), os.path.join(out, "correlation.jsonl")
    save_pair_labels(verif_path, verif)
    save_pair_labels(corr_path, corr)

    grids = [_grid_rows(anchor, edits, factor) for anchor, edits, factor in grid_specs]
    grid_path = os.path.join(out, "grids.jsonl")
    _write_jsonl(grid_path, grids)

    o = {k: os.path.join(out, f) for k, f in (
        ("curate", "curate.json"), ("samples", "samples.jsonl"), ("mined", "mined.jsonl"),
        ("triplets", "triplets.jsonl"), ("triplets_report", "triplets_report.json"),
        ("head", "head.ckpt"), ("history", "history.json"), ("proj", "proj.idse"),
        ("retrieval", "eval_retrieval.json"), ("triplet", "eval_triplet.json"),
        ("verification", "eval_verification.json"), ("correlation", "eval_correlation.json"),
        ("sens", "sensitivity.json"), ("trend", "trend.csv"),
    )}
    stages = [
        Stage("curate", None, ["curate", "--inventory", inv_path, "--budget", str(p["budget"]),
                               "--manifests", man_path, "--out-report", o["curate"],
                               "--out-instances", o["samples"]], [o["curate"], o["samples"]]),
        Stage("mine", "mine", ["mine", "--query-bundle", s1_path, "--pool-bundle", cls_path,
                               "--manifests", man_path, "--k", str(p["mine_k"]), "--out", o["mined"]],
              [o["mined"]]),
        Stage("triplets", None, ["triplets", "--instances", o["samples"], "--mined", o["mined"],
                                 "--manifests", man_path, "--total", str(p["triplets"]),
                                 "--out", o["triplets"], "--out-report", o["triplets_report"]],
              [o["triplets"], o["triplets_report"]]),
        Stage("train", "train", ["train", "--manifests", man_path, "--cls-bundle", cls_path,
                                 "--triplets", o["triplets"], "--lambda", "0",
                                 "--out-head", o["head"], "--out-history", o["history"]],
              [o["head"], o["history"]]),
        Stage("apply", None, ["apply", "--head", o["head"], "--bundle", cls_path, "--out", o["proj"]],
              [o["proj"]]),
        Stage("eval-retrieval", "eval", ["eval", "retrieval", "--bundle", o["proj"], "--task", ret_path,
                                         "--out", o["retrieval"]], [o["retrieval"]]),
        Stage("eval-triplet", "eval", ["eval", "triplet", "--bundle", o["proj"], "--task", trip_path,
                                       "--out", o["triplet"]], [o["triplet"]]),
        Stage("eval-verification", "eval", ["eval", "verification", "--bundle", o["proj"],
                                            "--pairs", verif_path, "--out", o["verification"]],
              [o["verification"]]),
        Stage("eval-correlation", "eval", ["eval", "correlation", "--bundle", o["proj"],
                                           "--pairs", corr_path, "--out", o["correlation"]],
              [o["correlation"]]),
        Stage("sensitivity", "sensitivity", ["sensitivity", "--grids", grid_path, "--bundle", o["proj"],
                                             "--out", o["sens"], "--out-trend", o["trend"]],
              [o["sens"], o["trend"]]),
    ]
    requested = (
        [(q, g) for q in queries for g in gallery]
        + [(r["anchor"], x) for r in trip_rows for x in (r["positive"], r["negative"])]
        + [(x.ref_id, x.cand_id) for x in verif + corr]
        + [(g["anchor"], pt["image_id"]) for g in grids for pt in [{"image_id": g["anchor"]}] + g["points"]]
    )
    recur, repeat = _pair_stats(requested)
    n_val = sum(1 for r in manifests if r.subset == "S1" and r.split == "val") // n_views
    sizes = {
        "images": len(items), "instances": len(insts), "datasets": p["datasets"], "dim": dim,
        "queries": len(queries), "gallery": len(gallery), "eval_triplets": len(trip_rows),
        "verification_pairs": len(verif), "correlation_pairs": len(corr), "grids": len(grids),
        "grid_points": sum(len(g["points"]) for g in grids), "budget": p["budget"],
        "triplets": p["triplets"], "val_instances": n_val,
    }
    expect = {
        o["curate"]: {"n_selected": p["budget"], "sampling_shortfall": {}},
        o["mined"]: {"lines": len(s1_ids)},
        o["triplets_report"]: {"n_triplets": p["triplets"], "shortfall": {}},
        o["history"]: {"history_len": CLI_DEFAULT_EPOCHS},
        o["retrieval"]: {"n_queries": len(queries)},
        o["triplet"]: {"n_triplets": len(trip_rows)},
        o["verification"]: {"n_pairs": len(verif)},
        o["correlation"]: {"n_pairs": len(corr)},
        o["sens"]: {"n_fits": len(grids)},
    }
    reads = [("bundle", cls_path), ("bundle", s1_path), ("manifest", man_path),
             ("inventory", inv_path), ("retrieval_task", ret_path), ("triplet_task", trip_path),
             ("pair_labels", verif_path), ("pair_labels", corr_path), ("grids", grid_path)]
    return Workload(
        name="cls_pipeline", seed=0, scale="", stages=stages, reads=reads, sizes=sizes,
        pairs=len(requested), recur_share=recur, repeat_share=repeat,
        train_triplets=-1, expect=expect,
        count_train={"triplets": o["triplets"], "manifests": man_path, "epochs": CLI_DEFAULT_EPOCHS},
    )


# ---------------------------------------------------------------------------
# PATCH corpora
#
# Solver iteration counts depend on how tokens cluster, so the PATCH
# corpora draw their layout (prototypes, token counts, which prototype
# each token comes from, grid edits) from a fixed stream and take only the
# noise on every token from the workload seed. Every seed then asks the
# solver for about the same work, tight-cluster sets that stall included.

LAYOUT_SEED = 20260417


def _token_set(layout, noise, protos: np.ndarray, n: int, tight: bool) -> np.ndarray:
    """Tokens around an instance's prototypes: tight sets hug three modes,
    diffuse sets spread widely, so solves differ in iteration counts."""
    n_modes = 3 if tight else 4
    modes = protos[layout.integers(len(protos), size=n_modes)]
    picks = modes[layout.integers(n_modes, size=n)]
    spread = 0.03 if tight else 0.6
    return picks + spread * noise.normal(size=picks.shape) / np.sqrt(protos.shape[1]) * 4


def _patch_world(layout, noise, p: dict):
    """Instances as small sets of token prototypes; each view draws a
    variable number of tokens from them."""
    dim, (lo, hi) = p["dim"], p["tokens"]
    protos = {}
    patches: dict[str, np.ndarray] = {}
    views_of: dict[str, list[str]] = {}
    for k in range(p["instances"]):
        inst = f"p{k:03d}"
        protos[inst] = _unit(layout.normal(size=(6, dim)))
        for v in range(p["views"]):
            img = f"{inst}-v{v}"
            n = int(layout.integers(lo, hi + 1))
            patches[img] = _token_set(layout, noise, protos[inst], n, tight=k % 2 == 0)
            views_of.setdefault(inst, []).append(img)
    return protos, patches, views_of


def _patch_eval(rng, p: dict, out: str) -> Workload:
    layout = np.random.default_rng(LAYOUT_SEED)
    protos, patches, views_of = _patch_world(layout, rng, p)
    insts = sorted(views_of)
    dim, (lo, hi) = p["dim"], p["tokens"]
    edit_dirs = {f: _unit(layout.normal(size=dim)) for f in FACTORS}
    grids = []
    for g in range(p["grids"]):
        inst = insts[g % len(insts)]
        other = insts[(g + 1) % len(insts)]
        factor = FACTORS[g % 2]
        anchor = views_of[inst][0]
        points = []
        for j, (f_chg, i_chg) in enumerate(GRID_POINTS):
            img = f"{inst}-g{g}-{j}"
            n = int(layout.integers(lo, hi + 1))
            base = _token_set(layout, rng, protos[inst], n, tight=g % 2 == 0)
            swap = _token_set(layout, rng, protos[other], n, tight=g % 2 == 0)
            mix = layout.random(n) < 0.5 * i_chg
            base[mix] = swap[mix]
            patches[img] = base + 0.6 * f_chg * edit_dirs[factor]
            points.append(img)
        grids.append(_grid_rows(anchor, points, factor))

    bundle_path = os.path.join(out, "patch.idse")
    write_bundle(bundle_path, make_bundle("PATCH", dim, patches))
    grid_path = os.path.join(out, "grids.jsonl")
    _write_jsonl(grid_path, grids)

    # a small gallery shared by every query, so gallery items recur
    q_insts = insts[: p["queries"]]
    queries = [views_of[i][0] for i in q_insts]
    gallery = sorted(
        img for i in insts[: p["queries"] * p["gallery_per_query"]] for img in views_of[i][1:]
    )
    ret_path = os.path.join(out, "retrieval.jsonl")
    _write_jsonl(ret_path, [{"gallery": gallery}] + [
        {"query": q, "relevant": views_of[i][1:]} for q, i in zip(queries, q_insts)
    ])
    trip_rows = []
    for t in range(p["eval_triplets"]):
        inst = insts[t % len(insts)]
        neg_inst = insts[(t + 1 + t // len(insts)) % len(insts)]
        trip_rows.append({
            "anchor": views_of[inst][0], "positive": views_of[inst][1 + t % (p["views"] - 1)],
            "negative": views_of[neg_inst][t % p["views"]], "mode": "HARD" if t % 2 else "EASY",
        })
    trip_path = os.path.join(out, "triplet_task.jsonl")
    _write_jsonl(trip_path, trip_rows)

    o = {k: os.path.join(out, f) for k, f in (
        ("retrieval", "eval_retrieval.json"), ("triplet", "eval_triplet.json"),
        ("sens", "sensitivity.json"), ("trend", "trend.csv"),
    )}
    stages = [
        Stage("eval-retrieval", "eval", ["eval", "retrieval", "--bundle", bundle_path, "--task", ret_path,
                                         "--out", o["retrieval"]], [o["retrieval"]]),
        Stage("eval-triplet", "eval", ["eval", "triplet", "--bundle", bundle_path, "--task", trip_path,
                                       "--out", o["triplet"]], [o["triplet"]]),
        Stage("sensitivity", "sensitivity", ["sensitivity", "--grids", grid_path, "--bundle", bundle_path,
                                             "--out", o["sens"], "--out-trend", o["trend"]],
              [o["sens"], o["trend"]]),
    ]
    requested = (
        [(q, g) for q in queries for g in gallery]
        + [(r["anchor"], x) for r in trip_rows for x in (r["positive"], r["negative"])]
        + [(g["anchor"], x) for g in grids for x in [g["anchor"]] + [pt["image_id"] for pt in g["points"]]]
    )
    recur, repeat = _pair_stats(requested)
    tokens = [m.shape[0] for m in patches.values()]
    sizes = {
        "items": len(patches), "instances": len(insts), "dim": dim, "tokens_min": min(tokens),
        "tokens_max": max(tokens), "tokens_mean": float(np.mean(tokens)), "queries": len(queries),
        "gallery": len(gallery), "eval_triplets": len(trip_rows), "grids": len(grids),
        "grid_points": sum(len(g["points"]) for g in grids),
    }
    expect = {
        o["retrieval"]: {"n_queries": len(queries)},
        o["triplet"]: {"n_triplets": len(trip_rows)},
        o["sens"]: {"n_fits": len(grids)},
    }
    reads = [("bundle", bundle_path), ("retrieval_task", ret_path), ("triplet_task", trip_path),
             ("grids", grid_path)]
    return Workload(
        name="patch_eval", seed=0, scale="", stages=stages, reads=reads, sizes=sizes,
        pairs=len(requested), recur_share=recur, repeat_share=repeat, train_triplets=0,
        expect=expect,
    )


def _patch_train(rng, p: dict, out: str) -> Workload:
    layout = np.random.default_rng(LAYOUT_SEED + 1)
    protos, patches, views_of = _patch_world(layout, rng, p)
    insts = sorted(views_of)
    dim = p["dim"]
    cls_items = {img: Z.mean(axis=0) for img, Z in patches.items()}
    n_val = max(2, len(insts) // 5)
    split_of = {inst: ("val" if i >= len(insts) - n_val else "train") for i, inst in enumerate(insts)}
    manifests = [
        ImageManifest(img, inst, "ds0", "S1", split_of[inst])
        for inst in insts for img in views_of[inst]
    ]
    # one triplet per instance, negative from the next instance of the same
    # split: every micro-batch then holds distinct instances and each triplet
    # sees the same number of in-batch negatives whatever the shuffle
    by_split = {sp: [i for i in insts if split_of[i] == sp] for sp in ("train", "val")}
    triplets = [
        Triplet(views_of[inst][0], views_of[inst][1],
                views_of[group[(j + 1) % len(group)]][2], "MINED_REAL")
        for group in by_split.values() for j, inst in enumerate(group)
    ]
    cls_path, patch_path = os.path.join(out, "cls.idse"), os.path.join(out, "patch.idse")
    write_bundle(cls_path, make_bundle("CLS", dim, cls_items))
    write_bundle(patch_path, make_bundle("PATCH", dim, patches))
    man_path, trip_path = os.path.join(out, "manifests.jsonl"), os.path.join(out, "triplets.jsonl")
    save_manifest(man_path, manifests)
    save_triplets(trip_path, triplets)

    o_head, o_hist = os.path.join(out, "head.ckpt"), os.path.join(out, "history.json")
    stages = [
        Stage("train", "train", [
            "train", "--manifests", man_path, "--cls-bundle", cls_path, "--patch-bundle", patch_path,
            "--triplets", trip_path, "--lambda", "0.5", "--max-tokens", str(p["max_tokens"]),
            "--epochs", str(p["epochs"]), "--batch-size", str(p["batch_size"]),
            "--grad-accum", str(p["grad_accum"]), "--hidden-dim", str(p["hidden_dim"]),
            "--out-head", o_head, "--out-history", o_hist,
        ], [o_head, o_hist]),
    ]
    n_train = len(by_split["train"])
    tokens = [m.shape[0] for m in patches.values()]
    sizes = {
        "items": len(patches), "instances": len(insts), "dim": dim, "tokens_min": min(tokens),
        "tokens_max": max(tokens), "over_max_tokens": sum(1 for n in tokens if n > p["max_tokens"]),
        "max_tokens": p["max_tokens"], "triplets": len(triplets), "train_triplets": n_train,
        "epochs": p["epochs"], "batch_size": p["batch_size"], "grad_accum": p["grad_accum"],
    }
    reads = [("bundle", cls_path), ("bundle", patch_path), ("manifest", man_path),
             ("triplets", trip_path)]
    return Workload(
        name="patch_train", seed=0, scale="", stages=stages, reads=reads, sizes=sizes,
        pairs=0, recur_share=0.0, repeat_share=0.0, train_triplets=n_train * p["epochs"],
        expect={o_hist: {"history_len": p["epochs"]}},
    )


def _patch(rng, p: dict, out: str) -> Workload:
    """Scoring stages on one PATCH corpus, then training on another."""
    parts = []
    for part, build in (("eval", _patch_eval), ("train", _patch_train)):
        os.makedirs(os.path.join(out, part), exist_ok=True)
        parts.append(build(rng, p[part], os.path.join(out, part)))
    ev, tr = parts
    return Workload(
        name="patch", seed=0, scale="", stages=ev.stages + tr.stages, reads=ev.reads + tr.reads,
        sizes={f"{part}.{k}": v for part, wl in (("eval", ev), ("train", tr)) for k, v in wl.sizes.items()},
        pairs=ev.pairs, recur_share=ev.recur_share, repeat_share=ev.repeat_share,
        train_triplets=tr.train_triplets, expect={**ev.expect, **tr.expect},
    )
