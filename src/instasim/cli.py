"""Command line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 2 usage errors (argparse), 1 data errors. Data
errors print one machine-parsable line to stderr:

    error: <code>: <message>

where <code> is the exception class name from the error taxonomy.
A command that returns normally after any of its Sinkhorn solves
missed --tol (only ``eval``, ``score``, ``sensitivity`` and ``train``
solve) also prints one line

    warning: K of N Sinkhorn solves stopped at --max-iters M

to stderr; the reports stay as they are. All randomness flows from
--seed. --threads is accepted and ignored; no command reads it, so
outputs never depend on it.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from ._version import __version__
from .bundle import read_bundle, write_bundle
from .curation import (
    aggregate_votes,
    apply_filters,
    assign_splits,
    balanced_allocate,
    build_triplets,
    inventory_counts,
    load_filter_rules,
    load_inventory,
    load_mined,
    load_samples,
    mine_hard_negatives,
    sample_instances,
    save_mined,
    save_samples,
)
from .errors import Error, InvalidInput
from .heads import load_head, save_head
from .losses import LossConfig
from .protocols import (
    load_retrieval_task,
    load_triplet_task,
    run_protocol,
    similarity,
)
from .records import (
    load_manifest,
    load_pair_labels,
    load_triplets,
    load_votes,
    save_triplets,
)
from .reporting import report_envelope, write_json_report, write_jsonl
from .sensitivity import (
    analyze_grids,
    grid_scores,
    load_grids,
    similarity_trend,
    write_trend_csv,
)
from .sinkhorn import SinkhornConfig, solve_counts
from .trainer import TrainConfig, apply_head, train


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored; no command reads it",
    )


def _sinkhorn_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--max-tokens", type=int, default=1024)
    parser.add_argument("--no-debias", action="store_true", help="use the raw entropic cost")


def _sinkhorn_from(args) -> SinkhornConfig:
    return SinkhornConfig(
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        tol=args.tol,
        max_tokens=args.max_tokens,
        debiased=not args.no_debias,
    )


def _report_envelope(command: str, seed: int, params: dict) -> dict:
    return report_envelope(seed, {"command": command, "seed": int(seed), **params})


def _cmd_curate(args) -> int:
    inventory = load_inventory(args.inventory)
    if args.filter:
        inventory = apply_filters(inventory, load_filter_rules(args.filter))
    allocation = balanced_allocate(inventory, args.budget)
    report = _report_envelope("curate", args.seed, {"budget": args.budget})
    report.update(
        {
            "budget": args.budget,
            "inventory": inventory_counts(inventory),
            "allocation": allocation,
        }
    )
    if args.manifests:
        manifests = load_manifest(args.manifests)
        samples, shortfall = sample_instances(allocation, manifests, args.seed)
        split = assign_splits(samples, args.seed)
        report["sampling_shortfall"] = shortfall
        report["n_selected"] = len(samples)
        report["n_train_instances"] = sum(1 for v in split.values() if v == "train")
        report["n_val_instances"] = sum(1 for v in split.values() if v == "val")
        if args.out_instances:
            save_samples(args.out_instances, samples, split)
    write_json_report(args.out_report, report)
    print(f"wrote {args.out_report}")
    return 0


def _cmd_mine(args) -> int:
    mined = mine_hard_negatives(
        read_bundle(args.query_bundle),
        read_bundle(args.pool_bundle),
        load_manifest(args.manifests),
        k=args.k,
    )
    save_mined(args.out, mined)
    print(f"wrote {args.out}")
    return 0


def _cmd_triplets(args) -> int:
    samples, _ = load_samples(args.instances)
    mined = load_mined(args.mined) if args.mined else {}
    manifests = load_manifest(args.manifests)
    try:
        mix = tuple(float(x) for x in args.mix.split(":"))
    except ValueError:
        raise InvalidInput(f"--mix weights must be numbers, got {args.mix!r}") from None
    if len(mix) != 3:
        raise InvalidInput(f"--mix needs three colon-separated weights, got {args.mix!r}")
    triplets, shortfall = build_triplets(
        samples, mined, manifests, mix=mix, total=args.total, seed=args.seed
    )
    save_triplets(args.out, triplets)
    if args.out_report:
        report = _report_envelope(
            "triplets", args.seed, {"mix": list(mix), "total": args.total}
        )
        report.update(
            {
                "n_triplets": len(triplets),
                "shortfall": shortfall,
                "kinds": {
                    kind: sum(1 for t in triplets if t.hard_negative_kind == kind)
                    for kind in ("MINED_REAL", "IDENTITY_EDIT")
                },
            }
        )
        write_json_report(args.out_report, report)
    print(f"wrote {args.out} ({len(triplets)} triplets)")
    return 0


def _cmd_train(args) -> int:
    manifests = load_manifest(args.manifests)
    cls_bundle = read_bundle(args.cls_bundle)
    patch_bundle = read_bundle(args.patch_bundle) if args.patch_bundle else None
    triplets = load_triplets(args.triplets)
    cfg = TrainConfig(
        lr=args.lr,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        grad_accum=args.grad_accum,
        epochs=args.epochs,
        seed=args.seed,
        hidden_dim=args.hidden_dim,
        activation=args.activation,
        loss=LossConfig(
            tau=args.tau,
            lam=args.lam,
            margin=args.margin,
            objective=args.objective,
            patch_metric=args.patch_metric,
        ),
        sinkhorn=_sinkhorn_from(args),
    )
    result = train(manifests, cls_bundle, triplets, cfg, patch_bundle=patch_bundle)
    params = {
        "lr": cfg.lr,
        "weight_decay": cfg.weight_decay,
        "batch_size": cfg.batch_size,
        "grad_accum": cfg.grad_accum,
        "epochs": cfg.epochs,
        "hidden_dim": cfg.hidden_dim,
        "activation": cfg.activation,
        "tau": cfg.loss.tau,
        "lambda": cfg.loss.lam,
        "margin": cfg.loss.margin,
        "objective": cfg.loss.objective,
        "patch_metric": cfg.loss.patch_metric,
    }
    report = _report_envelope("train", args.seed, params)
    save_head(args.out_head, result.best_head, seed=args.seed, config_hash=report["config_hash"])
    if args.out_history:
        report.update({"history": result.history, "best_epoch": result.best_epoch})
        write_json_report(args.out_history, report)
    best = result.history[result.best_epoch - 1] if result.history else None
    acc = f", val accuracy {best['val_accuracy']:.4f}" if best else ""
    print(f"wrote {args.out_head} (best epoch {result.best_epoch}{acc})")
    return 0


def _cmd_apply(args) -> int:
    head, _ = load_head(args.head)
    projected = apply_head(head, read_bundle(args.bundle))
    write_bundle(args.out, projected)
    print(f"wrote {args.out}")
    return 0


def _cmd_score(args) -> int:
    bundle = read_bundle(args.bundle)
    res = similarity(args.pair[0], args.pair[1], bundle, _sinkhorn_from(args))
    print(f"similarity={res.similarity:.12g} distance={res.distance:.12g}")
    return 0


def _cmd_eval(args) -> int:
    bundle = read_bundle(args.bundle)
    protocol = args.protocol.upper()
    task = None
    pairs = None
    if protocol in ("RETRIEVAL", "TRIPLET"):
        if not args.task:
            raise InvalidInput(f"{args.protocol} needs --task")
        task = load_retrieval_task(args.task) if protocol == "RETRIEVAL" else load_triplet_task(args.task)
    else:
        if not args.pairs:
            raise InvalidInput(f"{args.protocol} needs --pairs")
        pairs = load_pair_labels(args.pairs)
    report = run_protocol(
        protocol, bundle, task=task, pairs=pairs, seed=args.seed, sink_cfg=_sinkhorn_from(args)
    )
    write_json_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


def _cmd_sensitivity(args) -> int:
    grids = load_grids(args.grids)
    # one engine pass for the fits and the trend, which share their pairs
    scores = grid_scores(grids, read_bundle(args.bundle), _sinkhorn_from(args))
    report = analyze_grids(grids, scores, n_boot=args.n_boot, seed=args.seed)
    write_json_report(args.out, report)
    if args.out_trend:
        factor_names = sorted({g.factor_name for g in grids})
        trends = {name: similarity_trend(grids, name, scores) for name in factor_names}
        write_trend_csv(args.out_trend, trends)
    print(f"wrote {args.out}")
    return 0


def _cmd_aggregate_votes(args) -> int:
    summaries = aggregate_votes(load_votes(args.votes), threshold=args.threshold)
    write_jsonl(args.out, (asdict(s) for s in summaries))
    n_pos = sum(s.binary for s in summaries)
    print(f"wrote {args.out} ({n_pos} positive / {len(summaries) - n_pos} negative)")
    return 0


def _cmd_inspect(args) -> int:
    if not args.bundle and not args.manifests:
        raise InvalidInput("nothing to inspect; pass --bundle and/or --manifests")
    if args.bundle:
        bundle = read_bundle(args.bundle)
        total_rows = sum(arr.shape[0] for arr in bundle.items.values())
        print(f"bundle {args.bundle}")
        print(f"  token_kind {bundle.token_kind}  dim {bundle.dim}")
        print(f"  items {len(bundle)}  total rows {total_rows}")
    if args.manifests:
        manifests = load_manifest(args.manifests)
        print(f"manifests {args.manifests}: {len(manifests)} images")
        for field_name, getter in (
            ("dataset", lambda r: r.dataset_id),
            ("subset", lambda r: r.subset),
            ("split", lambda r: r.split),
        ):
            counts: dict[str, int] = {}
            for rec in manifests:
                counts[getter(rec)] = counts.get(getter(rec), 0) + 1
            joined = "  ".join(f"{k}={counts[k]}" for k in sorted(counts))
            print(f"  per {field_name}: {joined}")
        instances = {r.instance_id for r in manifests}
        print(f"  instances {len(instances)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instasim",
        description="Instance-identity similarity toolkit over precomputed embedding bundles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="filter inventory, allocate budget, sample instances")
    _common_flags(p)
    p.add_argument("--inventory", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--filter", help="declarative dataset filter config (JSON)")
    p.add_argument("--manifests", help="image manifest JSONL for instance sampling")
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-instances", help="selected-instance JSONL output")
    p.set_defaults(func=_cmd_curate)

    p = sub.add_parser("mine", help="brute-force hard-negative mining by cosine")
    _common_flags(p)
    p.add_argument("--query-bundle", required=True)
    p.add_argument("--pool-bundle", required=True)
    p.add_argument("--manifests", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("triplets", help="build training triplets from samples + mined negatives")
    _common_flags(p)
    p.add_argument("--instances", required=True)
    p.add_argument("--mined", help="mined-negative JSONL (needed for real-negative kinds)")
    p.add_argument("--manifests", required=True)
    p.add_argument("--mix", default="1:1:1", help="REAL_ONLY:S2A_POSITIVE:S2B_NEGATIVE weights")
    p.add_argument("--total", type=int, help="triplet count (default: one per instance)")
    p.add_argument("--out", required=True)
    p.add_argument("--out-report")
    p.set_defaults(func=_cmd_triplets)

    p = sub.add_parser("train", help="train the dual projection heads")
    _common_flags(p)
    _sinkhorn_flags(p)
    p.add_argument("--manifests", required=True)
    p.add_argument("--cls-bundle", required=True)
    p.add_argument("--patch-bundle")
    p.add_argument("--triplets", required=True)
    p.add_argument("--out-head", required=True)
    p.add_argument("--out-history")
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--grad-accum", type=int, default=4)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--hidden-dim", type=int, default=512)
    p.add_argument("--activation", choices=("gelu", "identity"), default="gelu")
    p.add_argument("--tau", type=float, default=0.07)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--objective", choices=("INFONCE", "HINGE", "BCE"), default="INFONCE")
    p.add_argument(
        "--patch-metric", choices=("SINKHORN", "COSINE_MEANPOOL"), default="SINKHORN"
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("apply", help="project a bundle through a trained head")
    _common_flags(p)
    p.add_argument("--head", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("score", help="similarity and distance of one pair")
    _common_flags(p)
    _sinkhorn_flags(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--pair", nargs=2, metavar=("X", "Y"), required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="run an evaluation protocol, write a JSON report")
    _common_flags(p)
    _sinkhorn_flags(p)
    p.add_argument(
        "protocol", choices=("retrieval", "verification", "triplet", "correlation")
    )
    p.add_argument("--bundle", required=True)
    p.add_argument("--task", help="task JSONL (retrieval, triplet)")
    p.add_argument("--pairs", help="labeled-pair JSONL (verification, correlation)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sensitivity", help="edit-grid regression and bootstrap aggregation")
    _common_flags(p)
    _sinkhorn_flags(p)
    p.add_argument("--grids", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--n-boot", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--out-trend", help="per-level similarity curve CSV")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("aggregate-votes", help="continuous/binary labels from annotator votes")
    _common_flags(p)
    p.add_argument("--votes", required=True)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_aggregate_votes)

    p = sub.add_parser("inspect", help="dump bundle headers and manifest statistics")
    _common_flags(p)
    p.add_argument("--bundle")
    p.add_argument("--manifests")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with solve_counts() as counts:
            status = args.func(args)
    except Error as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    if counts.unconverged:
        print(
            f"warning: {counts.unconverged} of {counts.solves} Sinkhorn solves "
            f"stopped at --max-iters {args.max_iters}",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
