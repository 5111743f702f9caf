"""Benchmark worker: runs one workload's CLI stages in this process.

run.py starts it in a process of its own, in one of three modes:

    python3 bench/worker.py setup PLAN    time importing instasim.cli and
                                          reading the workload's input files
    python3 bench/worker.py run PLAN      repeat the stage sequence for the
                                          plan's time budget, check every
                                          output, write the plan's result file
    python3 bench/worker.py record PLAN   run the golden inputs once and store
                                          their output values in golden.json

Only the standard library is imported before the set-up clock starts.
Every stage is ``instasim.cli.main(argv)`` called in-process.

Host speed. On a shared virtual machine the CPU's speed changes by up to
1.6x, within seconds and for minutes at a time, and it slows interpreted
Python and numpy alike. Each timed stage and each set-up is therefore
bracketed by a short, fixed pure-Python calibration kernel. run.py
divides every time by the calibration time next to it and multiplies by
``REF_CAL_S``: times read as seconds on a host where the kernel takes
``REF_CAL_S``. The raw times are reported beside them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
# Golden values match when |got - golden| <= ATOL + RTOL * |golden|.
GOLDEN_RTOL = 1e-5
GOLDEN_ATOL = 1e-5
# The calibration kernel's loop count, and its time on the 2-vCPU x86-64
# virtual machine the benchmark was tuned on (CPython 3.11).
CAL_LOOPS = 100_000
REF_CAL_S = 0.0125


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now: integer
    arithmetic and dict updates, the interpreter work that dominates the
    package's per-pair loops. It touches no instasim code, and every
    value it makes is a cached small int, so it allocates nothing and
    the heap the program left behind cannot slow it."""
    table = dict.fromkeys(range(256), 0)
    x = 1
    t0 = time.perf_counter()
    for _ in itertools.repeat(None, CAL_LOOPS):
        x = (x * 7 + 3) & 255
        table[x] = table.get(x ^ 85, x) & 255
    return time.perf_counter() - t0


def _loaders() -> dict:
    from instasim import bundle, curation, protocols, records, sensitivity

    return {
        "bundle": bundle.read_bundle,
        "manifest": records.load_manifest,
        "triplets": records.load_triplets,
        "pair_labels": records.load_pair_labels,
        "inventory": curation.load_inventory,
        "retrieval_task": protocols.load_retrieval_task,
        "triplet_task": protocols.load_triplet_task,
        "grids": sensitivity.load_grids,
    }


def setup(plan: dict) -> dict:
    before = calibrate()
    t0 = time.perf_counter()
    import instasim.cli  # noqa: F401

    loaders = _loaders()
    for kind, path in plan["workload"]["reads"]:
        loaders[kind](path)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "cal_s": (before + calibrate()) / 2}


class Checks:
    """Every stage invocation and output check is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_stages(workload: dict, seed: int, threads: int, checks: Checks, recorder=None,
               cal: bool = False) -> dict:
    """One pass over the workload's stages; returns wall and per-stage
    seconds. With ``cal``, the calibration kernel runs before each stage
    and after the last, and each stage gets the mean of the two next to
    it; ``wall_s`` then counts the stages only."""
    from instasim import cli

    extra = ["--seed", str(seed), "--threads", str(threads)]
    outer = recorder.span("workload") if recorder else contextlib.nullcontext()
    stage_s = {}
    cals = []
    with outer:
        t0 = time.perf_counter()
        for stage in workload["stages"]:
            if cal:
                cals.append(calibrate())
            log = io.StringIO()
            inner = recorder.span(f"cli.{stage['name']}") if recorder else contextlib.nullcontext()
            s0 = time.perf_counter()
            with inner, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                try:
                    rc = cli.main(stage["argv"] + extra)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
                except Exception as exc:  # a traceback is a failed stage, not a dead run
                    rc = f"{type(exc).__name__}: {exc}"
            stage_s[stage["name"]] = time.perf_counter() - s0
            checks(rc == 0, f"stage {stage['name']} exited {rc!r}: {log.getvalue().strip()[-300:]}")
        wall = time.perf_counter() - t0
    if not cal:
        return {"wall_s": wall, "stages": stage_s}
    cals.append(calibrate())
    return {"wall_s": sum(stage_s.values()), "stages": stage_s,
            "cal_s": {name: (cals[i] + cals[i + 1]) / 2 for i, name in enumerate(stage_s)}}


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _output_hashes(workload: dict) -> dict:
    return {p: _sha256(p) for stage in workload["stages"] for p in stage["outputs"]}


def _observed(path: str, key: str):
    if key == "lines":
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if key == "history_len":
        return len(report["history"])
    if key == "n_fits":
        return len(report["per_instance"])
    if key == "n_pairs":
        return len(report["detail"]["pairs"])
    return report.get("metrics", {}).get(key, report.get(key))


def check_counts(workload: dict, checks: Checks) -> None:
    """Report counts against the sizes the generator wrote."""
    for path, expected in workload["expect"].items():
        for key, want in expected.items():
            try:
                got = _observed(path, key)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                got = f"unreadable ({exc})"
            checks(got == want, f"{os.path.basename(path)}: {key} is {got!r}, expected {want!r}")


def count_train_triplets(workload: dict) -> int:
    if workload["train_triplets"] >= 0:
        return workload["train_triplets"]
    from instasim.records import load_manifest, load_triplets

    spec = workload["count_train"]
    split = {r.image_id: r.split for r in load_manifest(spec["manifests"])}
    n_train = sum(1 for t in load_triplets(spec["triplets"]) if split[t.anchor] == "train")
    return n_train * spec["epochs"]


# ---------------------------------------------------------------------------
# golden values


def _flatten(obj, prefix: str, out: dict) -> dict:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            _flatten(val, f"{prefix}.{i}" if prefix else str(i), out)
    else:
        out[prefix] = obj
    return out


def fingerprint(path: str) -> dict | None:
    """The values golden.json pins for one output file. Binary outputs
    (checkpoints, bundles) are left out: their float bits may change
    with summation order while every reported value stays put."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("tool_version", None)
        return _flatten(report, "", {})
    if path.endswith(".csv"):
        with open(path, encoding="utf-8") as fh:
            rows = [line.strip().split(",") for line in fh][1:]
        return {f"{r[0]}@{r[1]}": [float(r[2]), int(r[3])] for r in rows}
    if path.endswith(".jsonl"):
        return {"sha256": _sha256(path)}
    return None


def _matches(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_matches, got, want))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isfinite(got) and abs(got - want) <= GOLDEN_ATOL + GOLDEN_RTOL * abs(want)
    return got == want


def check_golden(workload: dict, golden: dict, checks: Checks) -> None:
    for stage in workload["stages"]:
        for path in stage["outputs"]:
            name = os.path.basename(path)
            if name not in golden:
                continue
            try:
                got = fingerprint(path)
            except (OSError, ValueError, IndexError) as exc:
                checks(False, f"golden {name}: unreadable ({exc})")
                continue
            bad = [k for k, v in golden[name].items() if k not in got or not _matches(got[k], v)]
            checks(not bad, f"golden {name}: {len(bad)} values differ, first {bad[:3]}")


# ---------------------------------------------------------------------------


def _env() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def run(plan: dict) -> dict:
    import instasim.cli  # noqa: F401

    workload, seed, threads = plan["workload"], plan["seed"], plan["threads"]
    checks = Checks()
    reps: list[dict] = []
    layers: list[dict] = []
    reference = None
    recorder = None
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in ([False, True] if plan["trace"] else [False]):
            if traced:
                from spans import Recorder, tracing

                recorder = Recorder()
                with tracing(recorder):
                    rep = run_stages(workload, seed, threads, checks, recorder)
                layers.append(recorder.summary())
            else:
                rep = run_stages(workload, seed, threads, checks, cal=True)
            rep["traced"] = traced
            reps.append(rep)
            hashes = _output_hashes(workload)
            if reference is None:
                reference = hashes
                check_counts(workload, checks)
            else:
                label = "traced" if traced else "untraced"
                for path, digest in hashes.items():
                    checks(digest == reference[path],
                           f"{os.path.basename(path)} of {label} repetition {len(reps)} differs from the first")
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > plan["seconds"]:
            break
    if recorder is not None:
        recorder.write(os.path.join(plan["work_dir"], "spans.jsonl"))

    train_triplets = count_train_triplets(workload)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    gold = plan["golden"]
    run_stages(gold, 0, threads, checks)
    check_golden(gold, golden[gold["name"]], checks)
    return {
        "reps": reps,
        "layers": layers,
        "train_triplets": train_triplets,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _env(),
    }


def record(plan: dict) -> dict:
    """Run the golden inputs once and return their pinned output values."""
    import instasim.cli  # noqa: F401

    gold = plan["golden"]
    checks = Checks()
    run_stages(gold, 0, plan["threads"], checks)
    if checks.failures:
        raise SystemExit(f"golden run failed: {checks.failures}")
    out = {}
    for stage in gold["stages"]:
        for path in stage["outputs"]:
            fp = fingerprint(path)
            if fp is not None:
                out[os.path.basename(path)] = fp
    return out


def main(argv: list[str]) -> int:
    mode, plan_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    result = {"setup": setup, "run": run, "record": record}[mode](plan)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
