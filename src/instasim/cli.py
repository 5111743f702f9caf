"""Command line interface: one subcommand per pipeline stage.

A call builds the parser of the one subcommand it names; the full tree
of every subcommand is built only for the top-level help, --version, no
arguments and an unknown command name. Help and usage errors print the
same bytes either way.

Exit codes: 0 success, 2 usage errors (argparse), 1 data errors. Data
errors print one machine-parsable line to stderr:

    error: <code>: <message>

where <code> is the exception class name from the error taxonomy.
A command checks its flags and builds its configs before it reads any
input, so a bad flag is reported even when an input file is missing.
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
from dataclasses import asdict, fields

from ._version import __version__
from .bundle import read_bundle, write_bundle
from .curation import (
    _mix_weights,
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
from .heads import ACTIVATIONS, apply_head, load_head, save_head
from .losses import OBJECTIVES, PATCH_METRICS, LossConfig
from .protocols import (
    PROTOCOLS,
    load_retrieval_task,
    load_triplet_task,
    run_protocol,
    score_pairs,
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
from .trainer import TrainConfig, train


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored; no command reads it",
    )


def _sinkhorn_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=SinkhornConfig.epsilon)
    parser.add_argument("--max-iters", type=int, default=SinkhornConfig.max_iters)
    parser.add_argument("--tol", type=float, default=SinkhornConfig.tol)
    parser.add_argument(
        "--max-tokens",
        type=int,
        default=SinkhornConfig.max_tokens,
        help="token rows per PATCH item: train subsamples larger items (seeded); "
        "score, eval and sensitivity reject them",
    )
    parser.add_argument(
        "--no-debias", dest="debiased", action="store_false", help="use the raw entropic cost"
    )


def _config(cls, args, **nested):
    """A ``cls`` from the flags named after its fields, plus ``nested``;
    building it checks the flags, so a bad value fails even a run that
    never uses it."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**flags, **nested)


def _report_envelope(command: str, seed: int, params: dict) -> dict:
    return report_envelope(seed, {"command": command, "seed": int(seed), **params})


def _cmd_curate(args) -> int:
    if args.out_instances and not args.manifests:
        raise InvalidInput("--out-instances needs --manifests to sample instances from")
    if args.budget < 1:
        raise InvalidInput(f"budget must be positive, got {args.budget}")
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
    if args.k < 1:
        raise InvalidInput(f"k must be >= 1, got {args.k}")
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
    try:
        mix = tuple(float(x) for x in args.mix.split(":"))
    except ValueError:
        raise InvalidInput(f"--mix weights must be numbers, got {args.mix!r}") from None
    if len(mix) != 3:
        raise InvalidInput(f"--mix needs three colon-separated weights, got {args.mix!r}")
    if args.total is not None and args.total < 0:
        raise InvalidInput(f"total must be >= 0, got {args.total}")
    _mix_weights(mix)
    samples, _ = load_samples(args.instances)
    mined = load_mined(args.mined) if args.mined else {}
    manifests = load_manifest(args.manifests)
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
    cfg = _config(
        TrainConfig, args, loss=_config(LossConfig, args), sinkhorn=_config(SinkhornConfig, args)
    )
    manifests = load_manifest(args.manifests)
    cls_bundle = read_bundle(args.cls_bundle)
    patch_bundle = read_bundle(args.patch_bundle) if args.patch_bundle else None
    triplets = load_triplets(args.triplets)
    result = train(manifests, cls_bundle, triplets, cfg, patch_bundle=patch_bundle)
    # every field but the seed, which the envelope hashes on its own; the
    # Sinkhorn fields join the hash with the next re-pin of the golden hashes
    params = {k: v for k, v in asdict(cfg).items() if k not in ("seed", "loss", "sinkhorn")}
    params.update({"lambda" if k == "lam" else k: v for k, v in asdict(cfg.loss).items()})
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
    sink_cfg = _config(SinkhornConfig, args)
    sim = float(score_pairs(read_bundle(args.bundle), [tuple(args.pair)], sink_cfg)[0])
    print(f"similarity={sim:.12g} distance={1.0 - sim:.12g}")
    return 0


def _cmd_eval(args) -> int:
    protocol = args.protocol.upper()
    by_task = protocol in ("RETRIEVAL", "TRIPLET")
    if by_task:
        if not args.task:
            raise InvalidInput(f"{args.protocol} needs --task")
        if args.pairs is not None:
            raise InvalidInput(f"{args.protocol} reads --task, not --pairs")
    else:
        if not args.pairs:
            raise InvalidInput(f"{args.protocol} needs --pairs")
        if args.task is not None:
            raise InvalidInput(f"{args.protocol} reads --pairs, not --task")
    sink_cfg = _config(SinkhornConfig, args)
    bundle = read_bundle(args.bundle)
    task = pairs = None
    if by_task:
        task = load_retrieval_task(args.task) if protocol == "RETRIEVAL" else load_triplet_task(args.task)
    else:
        pairs = load_pair_labels(args.pairs)
    report = run_protocol(protocol, bundle, task=task, pairs=pairs, seed=args.seed, sink_cfg=sink_cfg)
    write_json_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


def _cmd_sensitivity(args) -> int:
    sink_cfg = _config(SinkhornConfig, args)
    if args.n_boot < 1:
        raise InvalidInput(f"n_boot must be >= 1, got {args.n_boot}")
    grids = load_grids(args.grids)
    # one engine pass for the fits and the trend, which share their pairs
    scores = grid_scores(grids, read_bundle(args.bundle), sink_cfg)
    report = analyze_grids(grids, scores, n_boot=args.n_boot, seed=args.seed)
    write_json_report(args.out, report)
    if args.out_trend:
        factor_names = sorted({g.factor_name for g in grids})
        trends = {name: similarity_trend(grids, name, scores) for name in factor_names}
        write_trend_csv(args.out_trend, trends)
    print(f"wrote {args.out}")
    return 0


def _cmd_aggregate_votes(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise InvalidInput(f"threshold must be in [0,1], got {args.threshold}")
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
        print(f"bundle {args.bundle}")
        print(f"  token_kind {bundle.token_kind}  dim {bundle.dim}")
        print(f"  items {len(bundle)}  total rows {len(bundle.matrix)}")
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


def _curate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--inventory", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--filter", help="declarative dataset filter config (JSON)")
    p.add_argument("--manifests", help="image manifest JSONL for instance sampling")
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-instances", help="selected-instance JSONL output")


def _mine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--query-bundle", required=True)
    p.add_argument("--pool-bundle", required=True)
    p.add_argument("--manifests", required=True)
    p.add_argument("--k", type=int, default=1, help="negatives per query, at least 1")
    p.add_argument("--out", required=True)


def _triplets_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instances", required=True)
    p.add_argument("--mined", help="mined-negative JSONL (needed for real-negative kinds)")
    p.add_argument("--manifests", required=True)
    p.add_argument("--mix", default="1:1:1", help="REAL_ONLY:S2A_POSITIVE:S2B_NEGATIVE weights")
    p.add_argument("--total", type=int, help="triplet count (default: one per instance)")
    p.add_argument("--out", required=True)
    p.add_argument("--out-report")


def _train_flags(p: argparse.ArgumentParser) -> None:
    _sinkhorn_flags(p)
    p.add_argument("--manifests", required=True)
    p.add_argument("--cls-bundle", required=True)
    p.add_argument("--patch-bundle")
    p.add_argument("--triplets", required=True)
    p.add_argument("--out-head", required=True)
    p.add_argument("--out-history")
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--grad-accum", type=int, default=TrainConfig.grad_accum)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--hidden-dim", type=int, default=TrainConfig.hidden_dim)
    p.add_argument("--activation", choices=ACTIVATIONS, default=TrainConfig.activation)
    p.add_argument("--tau", type=float, default=LossConfig.tau)
    p.add_argument("--lambda", dest="lam", type=float, default=LossConfig.lam)
    p.add_argument("--margin", type=float, default=LossConfig.margin)
    p.add_argument("--objective", choices=OBJECTIVES, default=LossConfig.objective)
    p.add_argument("--patch-metric", choices=PATCH_METRICS, default=LossConfig.patch_metric)


def _apply_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--head", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)


def _score_flags(p: argparse.ArgumentParser) -> None:
    _sinkhorn_flags(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--pair", nargs=2, metavar=("X", "Y"), required=True)


def _eval_flags(p: argparse.ArgumentParser) -> None:
    _sinkhorn_flags(p)
    p.add_argument("protocol", choices=[name.lower() for name in PROTOCOLS])
    p.add_argument("--bundle", required=True)
    p.add_argument("--task", help="task JSONL (retrieval, triplet)")
    p.add_argument("--pairs", help="labeled-pair JSONL (verification, correlation)")
    p.add_argument("--out", required=True)


def _sensitivity_flags(p: argparse.ArgumentParser) -> None:
    _sinkhorn_flags(p)
    p.add_argument("--grids", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--n-boot", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--out-trend", help="per-level similarity curve CSV")


def _aggregate_votes_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--votes", required=True)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--out", required=True)


def _inspect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle")
    p.add_argument("--manifests")


# name -> (help line, flags after the common ones, handler), in help order
_COMMANDS = {
    "curate": ("filter inventory, allocate budget, sample instances", _curate_flags, _cmd_curate),
    "mine": ("brute-force hard-negative mining by cosine", _mine_flags, _cmd_mine),
    "triplets": (
        "build training triplets from samples + mined negatives", _triplets_flags, _cmd_triplets
    ),
    "train": ("train the dual projection heads", _train_flags, _cmd_train),
    "apply": ("project a bundle through a trained head", _apply_flags, _cmd_apply),
    "score": ("similarity and distance of one pair", _score_flags, _cmd_score),
    "eval": ("run an evaluation protocol, write a JSON report", _eval_flags, _cmd_eval),
    "sensitivity": (
        "edit-grid regression and bootstrap aggregation", _sensitivity_flags, _cmd_sensitivity
    ),
    "aggregate-votes": (
        "continuous/binary labels from annotator votes",
        _aggregate_votes_flags,
        _cmd_aggregate_votes,
    ),
    "inspect": ("dump bundle headers and manifest statistics", _inspect_flags, _cmd_inspect),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``instasim`` parser with the subparser of ``command`` alone, or
    with all of them when ``command`` names none.

    ``main`` builds only the subparser the call runs. The full tree is
    built for what needs every command: the top-level help, --version, no
    arguments and an unknown command name. Both print the same bytes:
    in one-command mode the subcommand metavar lists every command, as
    the full tree's usage line does.
    """
    parser = argparse.ArgumentParser(
        prog="instasim",
        description="Instance-identity similarity toolkit over precomputed embedding bundles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    if command in _COMMANDS:
        # the usage line still lists every command; the full tree sets no
        # metavar, since it would replace `command` in "arguments are required"
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
        names = [command]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _COMMANDS
    for name in names:
        help_line, flags, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        _common_flags(p)
        flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
