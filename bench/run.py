"""instasim benchmark: one command per workload, or all of them.

    python3 bench/run.py --workload cls_pipeline --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --trace 0     # every workload, one table
    python3 bench/run.py --workload all --trace 1     # per-layer metrics
    python3 bench/run.py --record-golden              # re-pin bench/golden.json

Run from the root of a source checkout; the package is imported from
``src/``. Each run:

1. generates the workload's inputs from ``--seed`` under
   ``.bench_work/<workload>/`` (the program only ever reads these files);
2. times set-up (importing ``instasim.cli`` and reading every input file
   once) in fresh processes, several times, and takes the median;
3. starts a worker process that calls each CLI stage through
   ``instasim.cli.main()`` in-process, repeating the stage sequence for
   ``--seconds``, and reports its own peak RSS. With ``--trace 1`` the
   worker alternates untraced and traced repetitions; the traced ones
   record spans (see spans.py) and give the per-layer metrics;
4. checks every stage exit code, the report counts against the generated
   sizes, byte identity of every output across repetitions (traced
   included), and the golden values in ``golden.json`` on a fixed small
   input;
5. prints an info line (environment, input sizes), a table of every
   metric with its unit, and as the last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are in reference seconds. On a shared 2-vCPU x86-64 virtual
machine, CPU speed (CPU time as well as wall time) swings by up to 1.6x,
within seconds and for minutes at a time. The worker runs a fixed
pure-Python calibration kernel before every timed stage and after the
last one (see ``worker.calibrate``), and each stage's time is scaled by
``REF_CAL_S`` over the mean of the two calibration times next to it. In
ten 55-second runs per workload on that machine, one seed each, the
median stage-sequence time spread (interquartile range over median) by
0.10 raw and 0.067 scaled on ``cls_pipeline``, and by 0.27 raw and 0.041
scaled on ``patch``. Set-up is scaled the same way, in each fresh
process. Every reported time is the
median over repetitions (set-up: over fresh processes); ``wall_s`` is
the median of the stage sequence's total. The raw median
(``wall_raw_s``) and the host's speed relative to the reference
(``host_speed``) are reported beside them, and the info line lists every
repetition's raw wall time.

Worker processes run with one BLAS thread, unless the caller's
environment sets another count. Peak RSS on ``cls_pipeline`` lands on
about 189 or 200 MB at random, decided in the first O(n^2) Kendall of
each process; the two modes are 6% apart.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

from spans import LAYERS
from worker import REF_CAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every stage gets this --seed: the workload seed varies the inputs only,
# so runs on different seeds ask for the same work.
PROGRAM_SEED = 0
# A run, set-up probes and worker included, ends within this many seconds.
RUN_LIMIT_S = 170.0

# Which end-to-end metric each per-layer metric should move, and on which
# workload.
LAYER_TABLE = [
    ("sinkhorn.sinkhorn_divergence.{calls,self_s,iters_mean,unconverged}",
     "pairs_per_s, sensitivity_s, eval_s", "patch (0 calls on cls_pipeline)"),
    ("sinkhorn.divergence_grad.{calls,self_s,unconverged}", "train_triplets_per_s, train_s",
     "patch (its train stage only)"),
    ("losses.patch_loss.{calls,self_s}", "train_triplets_per_s, train_s", "patch"),
    ("protocols.similarity.{calls,self_s,unique_ratio}", "pairs_per_s", "cls_pipeline, patch"),
    ("metrics.{kendall_tau_b,spearman_rho,average_precision,roc_auc}.self_s",
     "eval_s, peak_rss_mb", "cls_pipeline"),
    ("curation.{mine_hard_negatives,build_triplets,sample_instances}.self_s",
     "mine_s, wall_s", "cls_pipeline"),
    ("heads.{mlp_forward,mlp_backward,adamw_step,apply_head}.{calls,self_s}",
     "train_triplets_per_s", "cls_pipeline (higher per-triplet cost on patch)"),
    ("losses.cls_loss.{calls,self_s}, trainer.train_step.{calls,self_s}",
     "train_triplets_per_s", "cls_pipeline"),
    ("sensitivity.{fit_instance,similarity_trend,bootstrap_aggregate}.self_s",
     "sensitivity_s", "patch, cls_pipeline"),
    ("bundle.{read_bundle,write_bundle}.{self_s,bytes}, records.load_*.self_s, "
     "reporting.write_json_report.self_s", "setup_s, wall_s", "both"),
]

SPAN_METRICS = {
    "sinkhorn.sinkhorn_divergence": ("calls", "self_s", "iters_mean", "unconverged"),
    "sinkhorn.divergence_grad": ("calls", "self_s", "unconverged"),
    "losses.patch_loss": ("calls", "self_s"),
    "protocols.similarity": ("calls", "self_s", "unique_ratio"),
    "metrics.kendall_tau_b": ("self_s",),
    "metrics.spearman_rho": ("self_s",),
    "metrics.average_precision": ("self_s",),
    "metrics.roc_auc": ("self_s",),
    "curation.mine_hard_negatives": ("self_s",),
    "curation.build_triplets": ("self_s",),
    "curation.sample_instances": ("self_s",),
    "heads.mlp_forward": ("calls", "self_s"),
    "heads.mlp_backward": ("calls", "self_s"),
    "heads.adamw_step": ("calls", "self_s"),
    "heads.apply_head": ("calls", "self_s"),
    "losses.cls_loss": ("calls", "self_s"),
    "trainer.train_step": ("calls", "self_s"),
    "sensitivity.fit_instance": ("self_s",),
    "sensitivity.similarity_trend": ("self_s",),
    "sensitivity.bootstrap_aggregate": ("self_s",),
    "bundle.read_bundle": ("self_s", "bytes"),
    "bundle.write_bundle": ("self_s", "bytes"),
    "records.load_manifest": ("self_s",),
    "records.load_triplets": ("self_s",),
    "records.load_pair_labels": ("self_s",),
    "reporting.write_json_report": ("self_s",),
}
STAGE_KINDS = ("mine", "train", "eval", "sensitivity")


def _units(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac", "_speed")):
        return "ratio"
    return "count"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _env(seed: int, threads: int) -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
        "seed": seed,
        "program_seed": PROGRAM_SEED,
        "threads": threads,
    }


def _worker(mode: str, plan_path: str, deadline: float) -> dict:
    """Run the worker in its own process and return its result file."""
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    if os.path.exists(plan["result"]):
        os.remove(plan["result"])
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, plan_path],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not os.path.exists(plan["result"]):
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(plan["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics from the fastest traced repetition, so that its
    layer self times add up to its wall time. Counts repeat exactly in
    every traced repetition."""
    best = min(summaries, key=lambda s: s["workload"]["total_s"])
    out = {}
    for name, fields in SPAN_METRICS.items():
        agg = best.get(name, {})
        calls = agg.get("calls", 0)
        for field in fields:
            if field == "iters_mean":
                val = agg.get("iters", 0) / calls if calls else 0.0
            elif field == "unique_ratio":
                val = agg.get("distinct_pairs", 0) / calls if calls else 0.0
            else:
                val = agg.get(field, 0)
            out[f"{name}.{field}"] = val
    for layer in LAYERS + ("cli",):
        out[f"layer.{layer}.self_s"] = sum(
            v["self_s"] for k, v in best.items() if k.startswith(layer + "."))
    out["trace.wall_s"] = best["workload"]["total_s"]
    out["trace.unaccounted_s"] = out["trace.wall_s"] - sum(out[f"layer.{m}.self_s"] for m in LAYERS)
    return out


def _ref(seconds: float, cal_s: float) -> float:
    """A time measured next to a calibration time, in reference seconds."""
    return seconds * REF_CAL_S / cal_s


def _stage_metrics(workload: dict, reps: list[dict], train_triplets: int) -> dict:
    """Medians over the repetitions, in reference seconds: of the whole
    stage sequence (wall_s) and of each stage kind."""
    kinds = {s["name"]: s["kind"] for s in workload["stages"]}
    ref = [{n: _ref(t, r["cal_s"][n]) for n, t in r["stages"].items()} for r in reps]
    kind_s = {k: statistics.median(sum(t for n, t in rep.items() if kinds[n] == k) for rep in ref)
              for k in STAGE_KINDS}
    scoring = kind_s["eval"] + kind_s["sensitivity"]
    return {
        "wall_s": statistics.median(sum(rep.values()) for rep in ref),
        **{f"{k}_s": v for k, v in kind_s.items()},
        "pairs_per_s": workload["pairs"] / scoring if scoring else 0.0,
        "train_triplets_per_s": train_triplets / kind_s["train"] if kind_s["train"] else 0.0,
        "wall_raw_s": statistics.median(r["wall_s"] for r in reps),
        "host_speed": REF_CAL_S / statistics.median(c for r in reps for c in r["cal_s"].values()),
    }


def run_one(args) -> int:
    import workloads

    deadline = time.monotonic() + RUN_LIMIT_S
    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    t_gen = time.perf_counter()
    wl = workloads.generate(args.workload, args.seed, args.scale, os.path.join(work_dir, "inputs"))
    gold = workloads.generate(args.workload, 0, "tiny", os.path.join(work_dir, "golden"))
    gen_s = time.perf_counter() - t_gen
    threads = min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)
    plan = {
        "src": SRC, "work_dir": work_dir, "seed": PROGRAM_SEED, "seconds": args.seconds,
        "trace": args.trace, "threads": threads, "result": os.path.join(work_dir, "result.json"),
        "workload": asdict(wl), "golden": asdict(gold),
    }
    plan_path = os.path.join(work_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    setups = [_worker("setup", plan_path, deadline) for _ in range(SETUP_PROBES)]
    res = _worker("run", plan_path, deadline)

    untraced = [r for r in res["reps"] if not r["traced"]]
    stage = _stage_metrics(plan["workload"], untraced, res["train_triplets"])
    failed = len(res["failures"])
    end_to_end = {
        "setup_s": statistics.median(_ref(p["setup_s"], p["cal_s"]) for p in setups),
        "wall_s": stage.pop("wall_s"),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        metrics = {**stage, "failed_ops_frac": failed / res["attempted"], **_layer_metrics(res["layers"])}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - min(r["wall_s"] for r in untraced)
    else:
        metrics = end_to_end
    units = {k: _units(k) for k in metrics}
    info = {
        "workload": args.workload, "scale": args.scale, "env": {**_env(args.seed, threads), **res["env"]},
        "inputs": {**wl.sizes, "pairs_requested": wl.pairs, "recur_share": wl.recur_share,
                   "repeat_share": wl.repeat_share, "train_triplets_x_epochs": res["train_triplets"]},
        "generate_s": gen_s, "setup_runs_raw_s": [p["setup_s"] for p in setups],
        "reps": len(untraced), "traced_reps": len(res["layers"]),
        "rep_wall_raw_s": [r["wall_s"] for r in untraced],
        "end_to_end": {**end_to_end, **stage, "failed_ops_frac": failed / res["attempted"]},
        "failures": res["failures"][:20],
    }
    with open(os.path.join(work_dir, "info.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    print("info " + json.dumps(info, sort_keys=True))
    _print_table(args.workload, info, metrics, units, failed, res["attempted"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _print_table(workload, info, metrics, units, failed, attempted) -> None:
    print(f"== {workload}: {info['reps']} untraced, {info['traced_reps']} traced repetitions")
    shown = dict(info["end_to_end"])
    shown.update(metrics)
    for name, val in shown.items():
        unit = _units(name)
        note = f"  ({failed} of {attempted} operations)" if name == "failed_ops_frac" else ""
        print(f"  {name:48s} {val:14.6g} {unit}{note}")
    for what in info["failures"]:
        print(f"  FAILED: {what}")


def run_all(args) -> int:
    """Each workload in turn, each in its own run of this script."""
    results = {}
    import workloads

    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}", file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("info ")))
        results[name] = json.loads(lines[-1])
    print("\n== layer to end-to-end table (metric moved, workload)")
    for layer, moves, where in LAYER_TABLE:
        print(f"  {layer}\n      -> {moves} on {where}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def record_golden(args) -> int:
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        work_dir = os.path.join(WORK, "golden-" + name)
        shutil.rmtree(work_dir, ignore_errors=True)
        gold = workloads.generate(name, 0, "tiny", os.path.join(work_dir, "golden"))
        plan = {"src": SRC, "threads": 1, "golden": asdict(gold),
                "result": os.path.join(work_dir, "result.json")}
        plan_path = os.path.join(work_dir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        golden[name] = _worker("record", plan_path, time.monotonic() + RUN_LIMIT_S)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.join(HERE, 'golden.json')}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help="cls_pipeline, patch or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "instasim", "__init__.py")):
        print(f"error: no instasim package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_golden:
        return record_golden(args)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
