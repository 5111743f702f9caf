"""End-to-end coverage of the command line surface.

Every command is driven in-process through ``main(argv)`` against a
small synthetic corpus whose geometry makes the expected numbers easy
to state: each instance owns a private 2-plane of a 16-dim space, so
within-instance cosines are cos(angle deltas) and cross-instance
cosines are exactly zero. One test also invokes the installed
``instasim`` console script as a subprocess.
"""
import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from instasim import cli
from instasim._version import __version__
from instasim.bundle import make_bundle, read_bundle, write_bundle
from instasim.cli import main
from instasim.curation import load_mined, load_samples, save_mined, save_samples, InstanceSample
from instasim.errors import InvalidInput
from instasim.heads import init_dual_head, load_head, save_head
from instasim.losses import LossConfig
from instasim.records import (
    Triplet,
    load_manifest,
    load_triplets,
    manifest_index,
    save_triplets,
    validate_triplets,
)
from instasim.reporting import config_hash
from instasim.sinkhorn import SinkhornConfig, sinkhorn_divergence
from instasim.trainer import TrainConfig, TrainResult


def run_cli(*argv):
    """Invoke main() in-process, returning (exit_code, stdout, stderr).

    argparse terminates with SystemExit for --version and usage errors;
    those are folded into the returned code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
    return code, out.getvalue(), err.getvalue()


def _jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


DIM = 16
# instance -> the 2-plane (u, w) its images live in
PLANES = {
    "A1": (0, 1),
    "A2": (2, 3),
    "A3": (4, 5),
    "B1": (6, 7),
    "B2": (8, 9),
    "A1-edit": (10, 11),
    "B1-edit": (12, 13),
}


def _plane_vec(u, w, angle):
    v = np.zeros(DIM)
    v[u] = np.cos(angle)
    v[w] = np.sin(angle)
    return v


def _mix_vec(axis, cos_to_axis, ortho_axis):
    """Unit vector with a prescribed cosine against basis axis ``axis``."""
    v = np.zeros(DIM)
    v[axis] = cos_to_axis
    v[ortho_axis] = np.sqrt(1.0 - cos_to_axis**2)
    return v


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliworld")

    manifest_rows = [
        {"image_id": "a1-0", "instance_id": "A1", "dataset_id": "alpha", "subset": "S1", "split": "train"},
        {"image_id": "a1-1", "instance_id": "A1", "dataset_id": "alpha", "subset": "S1", "split": "train"},
        {"image_id": "a1-e0", "instance_id": "A1", "dataset_id": "alpha", "subset": "S2a", "split": "train"},
        {
            "image_id": "a1-bad",
            "instance_id": "A1-edit",
            "dataset_id": "alpha",
            "subset": "S2b",
            "split": "train",
            "edit_meta": {"source_instance": "A1"},
        },
        {"image_id": "a2-0", "instance_id": "A2", "dataset_id": "alpha", "subset": "S1", "split": "train"},
        {"image_id": "a2-1", "instance_id": "A2", "dataset_id": "alpha", "subset": "S1", "split": "train"},
        {"image_id": "a3-0", "instance_id": "A3", "dataset_id": "alpha", "subset": "S1", "split": "val"},
        {"image_id": "a3-1", "instance_id": "A3", "dataset_id": "alpha", "subset": "S1", "split": "val"},
        {"image_id": "b1-0", "instance_id": "B1", "dataset_id": "beta", "subset": "S1", "split": "train"},
        {"image_id": "b1-1", "instance_id": "B1", "dataset_id": "beta", "subset": "S1", "split": "train"},
        {
            "image_id": "b1-bad",
            "instance_id": "B1-edit",
            "dataset_id": "beta",
            "subset": "S2b",
            "split": "train",
            "edit_meta": {"source_instance": "B1"},
        },
        {"image_id": "b2-0", "instance_id": "B2", "dataset_id": "beta", "subset": "S1", "split": "train"},
        {"image_id": "b2-1", "instance_id": "B2", "dataset_id": "beta", "subset": "S1", "split": "train"},
    ]
    manifests = root / "manifests.jsonl"
    _jsonl(manifests, manifest_rows)

    # images of an instance sit at angles 0.0 / 0.2 (S1) and 0.35 (S2a)
    # inside the instance's private plane; the S2b identity edits keep
    # cosine cos(0.3) to their source instance but live on fresh axes.
    vecs = {}
    for inst, suffix_angles in (
        ("A1", [("a1-0", 0.0), ("a1-1", 0.2), ("a1-e0", 0.35)]),
        ("A2", [("a2-0", 0.0), ("a2-1", 0.2)]),
        ("A3", [("a3-0", 0.0), ("a3-1", 0.2)]),
        ("B1", [("b1-0", 0.0), ("b1-1", 0.2)]),
        ("B2", [("b2-0", 0.0), ("b2-1", 0.2)]),
    ):
        u, w = PLANES[inst]
        for image_id, angle in suffix_angles:
            vecs[image_id] = _plane_vec(u, w, angle)
    vecs["a1-bad"] = _mix_vec(PLANES["A1"][0], np.cos(0.3), PLANES["A1-edit"][0])
    vecs["b1-bad"] = _mix_vec(PLANES["B1"][0], np.cos(0.3), PLANES["B1-edit"][0])

    cls_path = root / "cls.idse"
    write_bundle(cls_path, make_bundle("CLS", DIM, vecs))

    # aux bundle: graded candidates g0..g4 against a1-0 plus two planted
    # sensitivity grids, all with exact prescribed cosines.
    aux = {"a1-0": vecs["a1-0"], "a2-0": vecs["a2-0"]}
    for label, c in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
        aux[f"g{label}"] = _mix_vec(0, c, 14)
    for prefix, axis in (("s-a1", 0), ("s-a2", 2)):
        aux[f"{prefix}-f1"] = _mix_vec(axis, 0.9, 15)  # factor 1, identity 0
        aux[f"{prefix}-f2"] = _mix_vec(axis, 0.8, 15)  # factor 2, identity 0
        aux[f"{prefix}-i1"] = _mix_vec(axis, 0.4, 15)  # factor 1, identity 1
    aux_path = root / "aux.idse"
    write_bundle(aux_path, make_bundle("CLS", DIM, aux))

    rng = np.random.default_rng(7)
    patch_path = root / "patch.idse"
    write_bundle(
        patch_path,
        make_bundle(
            "PATCH", DIM, {"a1-0": rng.normal(size=(3, DIM)), "a1-1": rng.normal(size=(4, DIM))}
        ),
    )

    inventory = root / "inventory.json"
    inventory.write_text(
        json.dumps({"alpha": 3, "beta": {"categories": {"cars": 1, "planes": 1}}})
    )
    filter_cfg = root / "filter.json"
    filter_cfg.write_text(
        json.dumps([{"dataset_id": "beta", "action": "keep_categories", "categories": ["cars"]}])
    )

    samples = [
        InstanceSample("A1", "alpha", "a1-0", "a1-1"),
        InstanceSample("A2", "alpha", "a2-0", "a2-1"),
        InstanceSample("A3", "alpha", "a3-0", "a3-1"),
        InstanceSample("B1", "beta", "b1-0", "b1-1"),
        InstanceSample("B2", "beta", "b2-0", "b2-1"),
    ]
    samples_path = root / "samples.jsonl"
    save_samples(samples_path, samples)

    mined_path = root / "mined.jsonl"
    save_mined(
        mined_path,
        {"a1-0": ["a2-0"], "a2-0": ["a1-0"], "a3-0": ["b2-1"], "b1-0": ["a3-1"], "b2-0": ["b1-1"]},
    )

    train_triplets = root / "train-triplets.jsonl"
    save_triplets(
        train_triplets,
        [
            Triplet("a1-0", "a1-1", "a2-0", "MINED_REAL"),
            Triplet("a2-0", "a2-1", "b1-0", "MINED_REAL"),
            Triplet("b1-0", "b1-1", "b1-bad", "IDENTITY_EDIT"),
            Triplet("b2-0", "b2-1", "a1-0", "MINED_REAL"),
            Triplet("a3-0", "a3-1", "b2-0", "MINED_REAL"),
        ],
    )

    head_path = root / "init-head.ckpt"
    save_head(head_path, init_dual_head(DIM, hidden_dim=4, seed=3), seed=3, config_hash="0" * 16)

    retrieval_task = root / "retrieval.jsonl"
    _jsonl(
        retrieval_task,
        [
            {"gallery": ["a1-1", "a2-1", "a3-1", "b1-1", "b2-1"]},
            {"query": "a1-0", "relevant": ["a1-1"]},
            {"query": "b1-0", "relevant": ["b1-1"]},
        ],
    )
    triplet_task = root / "triplet-task.jsonl"
    _jsonl(
        triplet_task,
        [
            {"anchor": "a1-0", "positive": "a1-1", "negative": "a2-0", "mode": "EASY"},
            {"anchor": "b1-0", "positive": "b1-1", "negative": "b1-bad", "mode": "HARD"},
            {"anchor": "a2-0", "positive": "a2-1", "negative": "a1-bad", "mode": "HARD"},
            {"anchor": "a1-0", "positive": "a2-0", "negative": "a1-bad", "mode": "HARD"},
        ],
    )
    verif_pairs = root / "verification.jsonl"
    _jsonl(
        verif_pairs,
        [
            {"ref_id": "a1-0", "cand_id": "a1-1", "label": 1},
            {"ref_id": "a2-0", "cand_id": "a2-1", "label": 1},
            {"ref_id": "a1-0", "cand_id": "a2-0", "label": 0},
            {"ref_id": "a1-0", "cand_id": "b1-0", "label": 0},
            {"ref_id": "b1-0", "cand_id": "b2-1", "label": 0},
        ],
    )
    corr_pairs = root / "correlation.jsonl"
    _jsonl(
        corr_pairs,
        [{"ref_id": "a1-0", "cand_id": f"g{label}", "label": label} for label in range(5)],
    )

    # two grids following similarity = 1 - 0.1*factor - 0.5*identity
    grids_path = root / "grids.jsonl"
    _jsonl(
        grids_path,
        [
            {
                "anchor": anchor,
                "points": [
                    {"image_id": f"{p}-f1", "identity_change": 0, "factor_change": 1, "factor_name": "blur"},
                    {"image_id": f"{p}-f2", "identity_change": 0, "factor_change": 2, "factor_name": "blur"},
                    {"image_id": f"{p}-i1", "identity_change": 1, "factor_change": 1, "factor_name": "blur"},
                ],
            }
            for anchor, p in (("a1-0", "s-a1"), ("a2-0", "s-a2"))
        ],
    )

    votes_path = root / "votes.jsonl"
    _jsonl(
        votes_path,
        [
            {"pair_id": "p-four", "votes": [1, 1, 1, 1, 0]},
            {"pair_id": "p-all", "votes": [1, 1, 1, 1, 1]},
            {"pair_id": "p-split", "votes": [1, 0, 0]},
        ],
    )

    return SimpleNamespace(
        root=root,
        manifests=manifests,
        cls_bundle=cls_path,
        aux_bundle=aux_path,
        patch_bundle=patch_path,
        vecs=vecs,
        inventory=inventory,
        filter_cfg=filter_cfg,
        samples=samples_path,
        mined=mined_path,
        train_triplets=train_triplets,
        init_head=head_path,
        retrieval_task=retrieval_task,
        triplet_task=triplet_task,
        verif_pairs=verif_pairs,
        corr_pairs=corr_pairs,
        grids=grids_path,
        votes=votes_path,
    )


@pytest.fixture(scope="module")
def tokens(world, tmp_path_factory):
    """A PATCH bundle with three noisy tokens around every image's CLS
    vector, so each world task has a PATCH counterpart."""
    rng = np.random.default_rng(3)
    items = {**read_bundle(world.cls_bundle).items, **read_bundle(world.aux_bundle).items}
    path = tmp_path_factory.mktemp("tokens") / "tokens.idse"
    write_bundle(
        path,
        make_bundle("PATCH", DIM, {k: v + 0.3 * rng.normal(size=(3, DIM)) for k, v in items.items()}),
    )
    return path


def _f32_cosine(a, b):
    a = np.asarray(a, dtype=np.float32).astype(np.float64)
    b = np.asarray(b, dtype=np.float32).astype(np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestTopLevel:
    def test_version_prints_and_exits_zero(self):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert out.strip() == f"instasim {__version__}"

    def test_no_subcommand_is_a_usage_error(self):
        code, _, err = run_cli()
        assert code == 2
        assert "usage:" in err

    def test_unknown_flag_is_a_usage_error(self, world):
        code, _, _ = run_cli("score", "--bundle", world.cls_bundle, "--pair", "a", "b", "--frobnicate")
        assert code == 2

    def test_bad_protocol_choice_is_a_usage_error(self, world):
        code, _, err = run_cli("eval", "RETRIEVAL", "--bundle", world.cls_bundle, "--out", "x")
        assert code == 2
        assert "invalid choice" in err

    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only: it would add to every command's start-up
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, instasim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def _captured(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            call(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


# the fewest flags each command parses with; the last pair is a required flag
MINIMAL_ARGV = {
    "curate": ["--inventory", "i", "--budget", "1", "--out-report", "r"],
    "mine": ["--query-bundle", "q", "--pool-bundle", "p", "--manifests", "m", "--out", "o"],
    "triplets": ["--instances", "i", "--manifests", "m", "--out", "o"],
    "train": ["--manifests", "m", "--cls-bundle", "c", "--triplets", "t", "--out-head", "h"],
    "apply": ["--head", "h", "--bundle", "b", "--out", "o"],
    "score": ["--pair", "x", "y", "--bundle", "b"],
    "eval": ["retrieval", "--bundle", "b", "--out", "o"],
    "sensitivity": ["--grids", "g", "--bundle", "b", "--out", "o"],
    "aggregate-votes": ["--votes", "v", "--out", "o"],
    "inspect": [],
}
BAD_CHOICES = {
    "eval": [["RETRIEVAL", "--bundle", "b", "--out", "o"]],
    "train": [MINIMAL_ARGV["train"] + [flag, "nope"]
              for flag in ("--activation", "--objective", "--patch-metric")],
}


def _usage_cases():
    yield ["--version"]
    yield ["-h"]
    yield []
    yield ["bogus"]
    for command, argv in MINIMAL_ARGV.items():
        yield [command, "-h"]
        if argv:
            yield [command, *argv[:-2]]
        yield [command, "--frobnicate", *argv]
        yield [command, *argv, "trailing"]
        for bad in BAD_CHOICES.get(command, []):
            yield [command, *bad]


class TestOneSubparserPerCall:
    """``main`` builds only the subparser it runs, and prints what the
    full parser prints."""

    def test_minimal_argv_names_every_command(self):
        assert list(MINIMAL_ARGV) == list(cli._COMMANDS)

    @pytest.mark.parametrize("argv", list(_usage_cases()), ids=" ".join)
    def test_same_bytes_as_the_full_parser(self, argv):
        want = _captured(lambda a: cli.build_parser().parse_args(a), argv)
        assert _captured(main, argv) == want

    def test_no_command_names_the_missing_argument(self):
        code, out, err = _captured(main, [])
        assert (code, out) == (2, "")
        assert err.endswith("instasim: error: the following arguments are required: command\n")

    @pytest.mark.parametrize("argv, calls", [
        (["inspect", "--manifests", "{manifests}"], 1),
        (["-h"], 10),
    ])
    def test_add_parser_calls(self, argv, calls, world, monkeypatch):
        made = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            made.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        run_cli(*(a.format(manifests=world.manifests) for a in argv))
        assert len(made) == calls

    def test_no_argv_reads_sys_argv(self, world, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["instasim", "inspect", "--manifests", str(world.manifests)])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main() == 0
        assert out.getvalue().startswith(f"manifests {world.manifests}: 13 images\n")


class TestCurate:
    def test_report_allocation_and_instance_sampling(self, world, tmp_path):
        report_path = tmp_path / "curation.json"
        instances_path = tmp_path / "instances.jsonl"
        code, out, err = run_cli(
            "curate",
            "--inventory", world.inventory,
            "--budget", 5,
            "--manifests", world.manifests,
            "--out-report", report_path,
            "--out-instances", instances_path,
        )
        assert code == 0, err
        assert out.strip() == f"wrote {report_path}"
        report = json.loads(report_path.read_text())
        assert report["allocation"] == {"alpha": 3, "beta": 2}
        assert report["inventory"] == {"alpha": 3, "beta": 2}
        assert report["sampling_shortfall"] == {}
        assert report["n_selected"] == 5
        assert report["n_train_instances"] == 3
        assert report["n_val_instances"] == 2
        for key in ("format_version", "tool_version", "seed", "config_hash"):
            assert key in report

        samples, split = load_samples(instances_path)
        assert len(samples) == 5
        assert sorted(split) == ["A1", "A2", "A3", "B1", "B2"]
        for s in samples:
            assert s.anchor != s.positive

    def test_filter_rules_shrink_the_inventory(self, world, tmp_path):
        report_path = tmp_path / "curation.json"
        code, _, err = run_cli(
            "curate",
            "--inventory", world.inventory,
            "--filter", world.filter_cfg,
            "--budget", 4,
            "--out-report", report_path,
        )
        assert code == 0, err
        report = json.loads(report_path.read_text())
        assert report["inventory"] == {"alpha": 3, "beta": 1}
        assert report["allocation"] == {"alpha": 3, "beta": 1}
        assert "n_selected" not in report

    def test_over_budget_fails_with_inventory_error(self, world, tmp_path):
        code, _, err = run_cli(
            "curate",
            "--inventory", world.inventory,
            "--budget", 99,
            "--out-report", tmp_path / "r.json",
        )
        assert code == 1
        assert err.startswith("error: InsufficientInventory:")

    def test_out_instances_without_manifests_is_a_data_error(self, world, tmp_path):
        report_path, instances_path = tmp_path / "curation.json", tmp_path / "instances.jsonl"
        code, out, err = run_cli(
            "curate",
            "--inventory", world.inventory,
            "--budget", 5,
            "--out-report", report_path,
            "--out-instances", instances_path,
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: InvalidInput: --out-instances needs --manifests to sample instances from\n"
        )
        assert not report_path.exists() and not instances_path.exists()


class TestMine:
    def test_nearest_other_instance_negatives(self, world, tmp_path):
        out_path = tmp_path / "mined.jsonl"
        code, _, err = run_cli(
            "mine",
            "--query-bundle", world.cls_bundle,
            "--pool-bundle", world.cls_bundle,
            "--manifests", world.manifests,
            "--k", 2,
            "--out", out_path,
        )
        assert code == 0, err
        mined = load_mined(out_path)
        assert sorted(mined) == sorted(world.vecs)
        # the identity edit keeps cosine cos(0.3) to a1-0; every other
        # instance is orthogonal, so ties resolve by ascending id
        assert mined["a1-0"] == ["a1-bad", "a2-0"]
        assert mined["a1-1"] == ["a1-bad", "a2-0"]
        assert mined["a2-0"] == ["a1-0", "a1-1"]

    def test_pool_ids_missing_from_manifests_fail(self, world, tmp_path):
        code, _, err = run_cli(
            "mine",
            "--query-bundle", world.aux_bundle,
            "--pool-bundle", world.aux_bundle,
            "--manifests", world.manifests,
            "--out", tmp_path / "m.jsonl",
        )
        assert code == 1
        assert err.startswith("error: MissingItem:")

    # a PATCH query set, a PATCH pool, two PATCH bundles with unequal row
    # counts (world.patch_bundle) and two with equal ones (tokens)
    @pytest.mark.parametrize(
        "query, pool",
        [("patch_bundle", "cls_bundle"), ("cls_bundle", "patch_bundle"),
         ("patch_bundle", "patch_bundle"), ("tokens", "tokens")],
    )
    def test_patch_bundles_are_rejected(self, world, tokens, tmp_path, query, pool):
        paths = {**vars(world), "tokens": tokens}
        out_path = tmp_path / "mined.jsonl"
        code, _, err = run_cli(
            "mine",
            "--query-bundle", paths[query],
            "--pool-bundle", paths[pool],
            "--manifests", world.manifests,
            "--out", out_path,
        )
        assert code == 1
        assert err.startswith("error: InvalidInput:")
        assert len(err.splitlines()) == 1
        assert not out_path.exists()


class TestTriplets:
    def test_build_writes_triplets_and_report(self, world, tmp_path):
        out_path = tmp_path / "triplets.jsonl"
        report_path = tmp_path / "triplets-report.json"
        code, out, err = run_cli(
            "triplets",
            "--instances", world.samples,
            "--mined", world.mined,
            "--manifests", world.manifests,
            "--mix", "1:1:1",
            "--total", 5,
            "--out", out_path,
            "--out-report", report_path,
        )
        assert code == 0, err
        triplets = load_triplets(out_path)
        validate_triplets(triplets, manifest_index(load_manifest(world.manifests)))
        report = json.loads(report_path.read_text())
        assert report["n_triplets"] == len(triplets)
        assert len(triplets) + sum(report["shortfall"].values()) == 5
        by_kind = {
            kind: sum(1 for t in triplets if t.hard_negative_kind == kind)
            for kind in ("MINED_REAL", "IDENTITY_EDIT")
        }
        assert report["kinds"] == by_kind
        assert f"({len(triplets)} triplets)" in out

        # byte-determinism of the builder through the CLI
        rerun_path = tmp_path / "triplets-rerun.jsonl"
        code, _, _ = run_cli(
            "triplets",
            "--instances", world.samples,
            "--mined", world.mined,
            "--manifests", world.manifests,
            "--mix", "1:1:1",
            "--total", 5,
            "--out", rerun_path,
        )
        assert code == 0
        assert rerun_path.read_bytes() == out_path.read_bytes()

    def test_mix_needs_three_weights(self, world, tmp_path):
        # three finite, non-negative numbers: a missing weight, a word, NaN,
        # infinities and an overflowing sum all fail before any output is
        # written, on one stderr line
        out_path = tmp_path / "t.jsonl"
        for mix in ("2:1", "1:x:1", "nan:1:1", "1:1:inf", "inf:1:1", "1e308:1e308:1"):
            code, _, err = run_cli(
                "triplets",
                "--instances", world.samples,
                "--mined", world.mined,
                "--manifests", world.manifests,
                "--mix", mix,
                "--out", out_path,
            )
            assert code == 1, mix
            assert err.startswith("error: InvalidInput:"), (mix, err)
            assert err.count("\n") == 1, (mix, err)
            assert not out_path.exists(), mix

    def test_mined_image_missing_from_manifests_is_a_data_error(self, world, tmp_path):
        mined = tmp_path / "mined.jsonl"
        mined.write_text('{"anchor": "a1-0", "negatives": ["ghost"]}\n')
        code, _, err = run_cli(
            "triplets",
            "--instances", world.samples,
            "--mined", mined,
            "--manifests", world.manifests,
            "--out", tmp_path / "t.jsonl",
        )
        assert code == 1
        assert err.startswith("error: MissingItem:")
        assert "ghost" in err

    @pytest.mark.parametrize("which", ["mined", "instances"])
    def test_repeated_record_is_a_duplicate_id(self, world, tmp_path, which):
        # a repeated mined anchor or sampled instance fails; before, the
        # last line won
        paths = {"mined": world.mined, "instances": world.samples}
        first = paths[which].read_text().splitlines()[0]
        dup = tmp_path / f"{which}.jsonl"
        dup.write_text(paths[which].read_text() + first + "\n")
        n_lines = len(dup.read_text().splitlines())
        paths[which] = dup
        code, _, err = run_cli(
            "triplets",
            "--instances", paths["instances"],
            "--mined", paths["mined"],
            "--manifests", world.manifests,
            "--out", tmp_path / "t.jsonl",
        )
        assert code == 1
        assert err.startswith(f"error: DuplicateId: {dup}:{n_lines}: duplicate ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "t.jsonl").exists()

    def test_non_object_sample_line_is_a_format_error(self, world, tmp_path):
        samples = tmp_path / "samples.jsonl"
        samples.write_text(world.samples.read_text() + '["A9", "alpha", "a9-0", "a9-1"]\n')
        code, _, err = run_cli(
            "triplets",
            "--instances", samples,
            "--manifests", world.manifests,
            "--out", tmp_path / "t.jsonl",
        )
        assert code == 1
        assert err.startswith("error: FormatError:")
        assert "samples.jsonl:6:" in err


class TestTrainApplyScore:
    def test_train_writes_checkpoint_and_history(self, world, tmp_path):
        head_path = tmp_path / "head.ckpt"
        hist_path = tmp_path / "history.json"
        argv = (
            "train",
            "--manifests", world.manifests,
            "--cls-bundle", world.cls_bundle,
            "--triplets", world.train_triplets,
            "--out-head", head_path,
            "--out-history", hist_path,
            "--epochs", 2,
            "--hidden-dim", 8,
            "--batch-size", 4,
            "--grad-accum", 1,
            "--lambda", 0,
        )
        code, out, err = run_cli(*argv)
        assert code == 0, err
        assert "best epoch" in out

        head, meta = load_head(head_path)
        assert meta["seed"] == 0
        assert head.cls_head.W1.shape == (DIM, 8)

        history = json.loads(hist_path.read_text())
        assert history["best_epoch"] in (1, 2)
        assert [h["epoch"] for h in history["history"]] == [1, 2]
        for h in history["history"]:
            assert np.isfinite(h["train_loss"])
            assert 0.0 <= h["val_accuracy"] <= 1.0

        rerun = tmp_path / "head-rerun.ckpt"
        argv = tuple(rerun if a is head_path else a for a in argv)
        code, _, _ = run_cli(*(a for a in argv if a is not hist_path and a != "--out-history"))
        assert code == 0
        assert rerun.read_bytes() == head_path.read_bytes()

    def test_train_missing_bundle_item_is_a_data_error(self, world, tmp_path):
        code, _, err = run_cli(
            "train",
            "--manifests", world.manifests,
            "--cls-bundle", world.aux_bundle,
            "--triplets", world.train_triplets,
            "--out-head", tmp_path / "h.ckpt",
            "--lambda", 0,
        )
        assert code == 1
        assert err.startswith("error: MissingItem:")

    def test_train_rejects_a_negative_from_the_anchor_instance(self, world, tmp_path):
        triplets = tmp_path / "bad-triplets.jsonl"
        save_triplets(
            triplets,
            [
                Triplet("a1-0", "a1-1", "a1-e0", "MINED_REAL"),
                Triplet("a3-0", "a3-1", "b2-0", "MINED_REAL"),
            ],
        )
        head_path = tmp_path / "h.ckpt"
        code, out, err = run_cli(
            "train",
            "--manifests", world.manifests,
            "--cls-bundle", world.cls_bundle,
            "--triplets", triplets,
            "--out-head", head_path,
            "--lambda", 0,
        )
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"error: InvalidInput: [^\n]*shares the anchor's instance[^\n]*\n", err)
        assert not head_path.exists()

    def test_apply_projects_every_item(self, world, tmp_path):
        out_path = tmp_path / "projected.idse"
        code, _, err = run_cli(
            "apply",
            "--head", world.init_head,
            "--bundle", world.cls_bundle,
            "--out", out_path,
        )
        assert code == 0, err
        projected = read_bundle(out_path)
        raw = read_bundle(world.cls_bundle)
        assert projected.token_kind == "CLS"
        assert projected.dim == DIM
        assert sorted(projected.items) == sorted(raw.items)
        assert not np.allclose(projected.get("a1-0"), raw.get("a1-0"))

    def test_score_prints_the_quantized_cosine(self, world):
        code, out, err = run_cli("score", "--bundle", world.cls_bundle, "--pair", "a1-0", "a1-1")
        assert code == 0, err
        expected = _f32_cosine(world.vecs["a1-0"], world.vecs["a1-1"])
        assert out == f"similarity={expected:.12g} distance={1.0 - expected:.12g}\n"
        assert abs(expected - np.cos(0.2)) < 1e-6

    def test_score_patch_route_matches_direct_divergence(self, world):
        code, out, err = run_cli(
            "score",
            "--bundle", world.patch_bundle,
            "--pair", "a1-0", "a1-1",
            "--epsilon", 0.2,
            "--max-iters", 3000,
            "--tol", 1e-7,
        )
        assert code == 0, err
        got = float(out.split()[0].split("=")[1])
        bundle = read_bundle(world.patch_bundle)
        A = bundle.get("a1-0").astype(np.float64)
        B = bundle.get("a1-1").astype(np.float64)
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        B /= np.linalg.norm(B, axis=1, keepdims=True)
        cfg = SinkhornConfig(epsilon=0.2, max_iters=3000, tol=1e-7)
        expected = -sinkhorn_divergence(A, B, cfg).value
        assert got == pytest.approx(expected, rel=1e-9)

    def test_score_of_a_patch_set_with_itself_is_positive_zero(self, world):
        code, out, err = run_cli(
            "score", "--bundle", world.patch_bundle, "--pair", "a1-0", "a1-0"
        )
        assert code == 0, err
        assert out == "similarity=0 distance=1\n"

    def test_score_over_max_tokens_names_the_flag(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "big.idse"
        items = {"x": rng.normal(size=(10, 8)), "y": rng.normal(size=(3, 8))}
        write_bundle(path, make_bundle("PATCH", 8, items))
        for pair in (("x", "y"), ("y", "x")):
            code, out, err = run_cli("score", "--bundle", path, "--pair", *pair, "--max-tokens", 4)
            assert code == 1 and out == ""
            # the error names the item, whichever side of the pair it is on
            assert err == (
                "error: InvalidInput: item 'x' has 10 token rows, over the 4 cap "
                "that --max-tokens sets\n"
            )

    @pytest.mark.parametrize("command", ["train", "score", "eval triplet", "sensitivity"])
    def test_max_tokens_help_gives_both_meanings(self, command):
        code, out, _ = run_cli(*command.split(), "--help")
        assert code == 0
        assert "train subsamples larger items (seeded); score, eval and sensitivity reject them" in (
            " ".join(out.split())
        )

    def test_score_unknown_image_is_a_data_error(self, world):
        code, _, err = run_cli("score", "--bundle", world.cls_bundle, "--pair", "a1-0", "nope")
        assert code == 1
        assert err.startswith("error: MissingItem:")


class TestEval:
    def test_retrieval_metrics_are_perfect_on_separated_instances(self, world, tmp_path):
        out_path = tmp_path / "retrieval.json"
        code, _, err = run_cli(
            "eval", "retrieval",
            "--bundle", world.cls_bundle,
            "--task", world.retrieval_task,
            "--out", out_path,
        )
        assert code == 0, err
        report = json.loads(out_path.read_text())
        assert report["protocol"] == "RETRIEVAL"
        assert report["metrics"]["map"] == 1.0
        assert report["metrics"]["mean_ndcg"] == 1.0
        assert report["metrics"]["mean_auc"] == 1.0
        assert report["metrics"]["n_queries"] == 2
        assert set(report) == {
            "format_version", "tool_version", "protocol", "seed", "config_hash",
            "metrics", "detail",
        }

    def test_verification_separates_instances(self, world, tmp_path):
        out_path = tmp_path / "verification.json"
        code, _, err = run_cli(
            "eval", "verification",
            "--bundle", world.cls_bundle,
            "--pairs", world.verif_pairs,
            "--out", out_path,
        )
        assert code == 0, err
        report = json.loads(out_path.read_text())
        assert set(report["metrics"]) == {"ap", "auc"}
        assert report["metrics"]["ap"] == 1.0
        assert report["metrics"]["auc"] == 1.0
        assert len(report["detail"]["pairs"]) == 5

    def test_triplet_accuracy_is_reported_per_mode(self, world, tmp_path):
        out_path = tmp_path / "triplet.json"
        code, _, err = run_cli(
            "eval", "triplet",
            "--bundle", world.cls_bundle,
            "--task", world.triplet_task,
            "--out", out_path,
        )
        assert code == 0, err
        metrics = json.loads(out_path.read_text())["metrics"]
        assert metrics["accuracy"]["EASY"] == 1.0
        assert metrics["accuracy"]["HARD"] == pytest.approx(2.0 / 3.0)
        assert metrics["overall_accuracy"] == 0.75
        assert metrics["n_triplets"] == 4

    def test_correlation_recovers_the_monotone_labels(self, world, tmp_path):
        out_path = tmp_path / "correlation.json"
        code, _, err = run_cli(
            "eval", "correlation",
            "--bundle", world.aux_bundle,
            "--pairs", world.corr_pairs,
            "--out", out_path,
        )
        assert code == 0, err
        metrics = json.loads(out_path.read_text())["metrics"]
        assert metrics["spearman"] == pytest.approx(1.0, rel=1e-12)
        assert metrics["kendall_tau_b"] == pytest.approx(1.0, rel=1e-12)
        assert metrics["n_pairs"] == 5

    def test_retrieval_without_task_is_a_data_error(self, world, tmp_path):
        code, _, err = run_cli(
            "eval", "retrieval", "--bundle", world.cls_bundle, "--out", tmp_path / "x.json"
        )
        assert code == 1
        assert err.startswith("error: InvalidInput:")
        assert "--task" in err

    def test_verification_without_pairs_is_a_data_error(self, world, tmp_path):
        code, _, err = run_cli(
            "eval", "verification", "--bundle", world.cls_bundle, "--out", tmp_path / "x.json"
        )
        assert code == 1
        assert "--pairs" in err

    @pytest.mark.parametrize("protocol", ["verification", "correlation"])
    def test_pair_protocol_given_a_task_is_a_data_error(self, protocol, world, tmp_path):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            "eval", protocol,
            "--bundle", world.cls_bundle,
            "--pairs", world.verif_pairs,
            "--task", world.retrieval_task,
            "--out", out_path,
        )
        assert (code, out) == (1, "")
        assert err == f"error: InvalidInput: {protocol} reads --pairs, not --task\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("protocol, task", [
        ("retrieval", "retrieval_task"), ("triplet", "triplet_task"),
    ])
    def test_task_protocol_given_pairs_is_a_data_error(self, protocol, task, world, tmp_path):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            "eval", protocol,
            "--bundle", world.cls_bundle,
            "--task", getattr(world, task),
            "--pairs", world.verif_pairs,
            "--out", out_path,
        )
        assert (code, out) == (1, "")
        assert err == f"error: InvalidInput: {protocol} reads --task, not --pairs\n"
        assert not out_path.exists()

    def test_patch_verification_scores_a_set_with_itself_as_positive_zero(self, world, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        _jsonl(pairs, [
            {"ref_id": "a1-0", "cand_id": "a1-0", "label": 1},
            {"ref_id": "a1-0", "cand_id": "a1-1", "label": 0},
        ])
        out_path = tmp_path / "verification.json"
        code, _, err = run_cli(
            "eval", "verification",
            "--bundle", world.patch_bundle,
            "--pairs", pairs,
            "--out", out_path,
        )
        assert code == 0, err
        rows = json.loads(out_path.read_text())["detail"]["pairs"]
        assert rows[0]["cand_id"] == "a1-0"
        assert rows[0]["score"] == 0.0 and not np.signbit(rows[0]["score"])

    def test_zero_norm_patch_row_is_a_data_error(self, tmp_path):
        Z = np.ones((3, 4), dtype=np.float32)
        Z[1] = 0.0
        bundle_path = tmp_path / "patch.bin"
        write_bundle(bundle_path, make_bundle("PATCH", 4, {"ok": np.ones((2, 4)), "zero": Z}))
        pairs = tmp_path / "pairs.jsonl"
        _jsonl(pairs, [
            {"ref_id": "ok", "cand_id": "ok", "label": 1},
            {"ref_id": "ok", "cand_id": "zero", "label": 0},
        ])
        out_path = tmp_path / "verification.json"
        code, _, err = run_cli(
            "eval", "verification", "--bundle", bundle_path, "--pairs", pairs, "--out", out_path
        )
        assert code == 1
        assert err.startswith("error: InvalidInput: zero-norm patch row")
        assert not out_path.exists()

    def test_zero_norm_cls_item_is_a_data_error(self, tmp_path):
        bundle_path = tmp_path / "cls.bin"
        write_bundle(bundle_path, make_bundle("CLS", 4, {"ok": np.ones(4), "zero": np.zeros(4)}))
        pairs = tmp_path / "pairs.jsonl"
        _jsonl(pairs, [
            {"ref_id": "ok", "cand_id": "ok", "label": 1},
            {"ref_id": "ok", "cand_id": "zero", "label": 0},
        ])
        out_path = tmp_path / "verification.json"
        code, _, err = run_cli(
            "eval", "verification", "--bundle", bundle_path, "--pairs", pairs, "--out", out_path
        )
        assert code == 1
        assert err.startswith("error: InvalidInput: zero-norm vector")
        assert not out_path.exists()

    def test_reports_are_identical_across_thread_counts(self, world, tmp_path):
        paths = []
        for threads in (1, 8):
            out_path = tmp_path / f"verif-t{threads}.json"
            code, _, _ = run_cli(
                "eval", "verification",
                "--bundle", world.cls_bundle,
                "--pairs", world.verif_pairs,
                "--threads", threads,
                "--out", out_path,
            )
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSensitivityCli:
    def test_grid_regression_recovers_planted_slopes(self, world, tmp_path):
        out_path = tmp_path / "sensitivity.json"
        trend_path = tmp_path / "trend.csv"
        code, _, err = run_cli(
            "sensitivity",
            "--grids", world.grids,
            "--bundle", world.aux_bundle,
            "--n-boot", 64,
            "--out", out_path,
            "--out-trend", trend_path,
        )
        assert code == 0, err
        report = json.loads(out_path.read_text())
        assert set(report) == {
            "format_version", "tool_version", "config_hash", "seed",
            "per_instance", "factors", "identity", "n_boot",
        }
        assert report["n_boot"] == 64
        assert len(report["per_instance"]) == 2
        for row in report["per_instance"]:
            # planted model: similarity = 1 - 0.1*factor - 0.5*identity
            assert row["beta0"] == pytest.approx(1.0, abs=1e-5)
            assert row["beta_factor"] == pytest.approx(-0.1, abs=1e-5)
            assert row["beta_identity"] == pytest.approx(-0.5, abs=1e-5)
            assert row["r2"] > 0.999999
        blur = report["factors"]["blur"]
        assert blur["n_instances"] == 2
        assert blur["mean"] == pytest.approx(0.1, abs=1e-5)
        assert blur["ci_low"] <= blur["mean"] <= blur["ci_high"]
        assert report["identity"]["mean"] == pytest.approx(0.5, abs=1e-5)

        lines = trend_path.read_text().strip().split("\n")
        assert lines[0] == "factor,level,mean_similarity,count"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], float(r[1]), int(r[3])) for r in rows] == [
            ("blur", 1.0, 4),
            ("blur", 2.0, 2),
        ]
        assert float(rows[0][2]) == pytest.approx(0.65, abs=1e-5)
        assert float(rows[1][2]) == pytest.approx(0.8, abs=1e-5)

    def test_rerun_is_byte_identical(self, world, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out_path = tmp_path / f"sens-{tag}.json"
            code, _, _ = run_cli(
                "sensitivity",
                "--grids", world.grids,
                "--bundle", world.aux_bundle,
                "--n-boot", 32,
                "--out", out_path,
            )
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    def test_lone_carriage_return_in_a_factor_name_fails_before_any_report(
        self, world, tmp_path
    ):
        grids = tmp_path / "grids.jsonl"
        grids.write_text(Path(world.grids).read_text().replace('"blur"', '"blur\\rsharp"'))
        out_path, trend_path = tmp_path / "sensitivity.json", tmp_path / "trend.csv"
        code, out, err = run_cli(
            "sensitivity",
            "--grids", grids,
            "--bundle", world.aux_bundle,
            "--out", out_path,
            "--out-trend", trend_path,
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: FormatError: {grids}:1: factor_name ")
        assert not out_path.exists() and not trend_path.exists()


class TestUnconvergedWarning:
    """eval, score, sensitivity and train say on stderr when a Sinkhorn
    solve stopped at --max-iters, and stay silent when every solve
    converged."""

    WARNING = re.compile(r"warning: (\d+) of (\d+) Sinkhorn solves stopped at --max-iters 1\n")

    def _argv(self, stage, world, tokens, out_dir):
        report = ["--out", out_dir / "report.json"]
        if stage == "eval":
            return ["eval", "verification", "--bundle", tokens, "--pairs", world.verif_pairs, *report]
        if stage == "sensitivity":
            return ["sensitivity", "--grids", world.grids, "--bundle", tokens, "--n-boot", 8, *report]
        return [
            "train",
            "--manifests", world.manifests,
            "--cls-bundle", world.cls_bundle,
            "--patch-bundle", tokens,
            "--triplets", world.train_triplets,
            "--out-head", out_dir / "head.ckpt",
            "--epochs", 1,
            "--hidden-dim", 4,
            "--lambda", 0.5,
        ]

    @pytest.mark.parametrize("stage", ["eval", "sensitivity", "train"])
    def test_starved_run_warns_and_converged_run_does_not(self, stage, world, tokens, tmp_path):
        argv = self._argv(stage, world, tokens, tmp_path)
        code, _, err = run_cli(*argv)
        assert code == 0 and err == ""
        code, _, err = run_cli(*argv, "--max-iters", 1)
        assert code == 0
        match = self.WARNING.fullmatch(err)
        assert match, err
        stopped, solves = int(match[1]), int(match[2])
        assert 1 <= stopped <= solves
        # one self term per item plus one cross term per pair of distinct sets
        assert solves == {"eval": 6 + 5, "sensitivity": 8 + 6}.get(stage, solves)

    def test_score_warns_like_eval(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "pair.idse"
        write_bundle(
            path, make_bundle("PATCH", 8, {"x": rng.normal(size=(4, 8)), "y": rng.normal(size=(5, 8))})
        )
        argv = ["score", "--bundle", path, "--pair", "x", "y"]
        code, _, err = run_cli(*argv)
        assert code == 0 and err == ""
        # two self terms and one cross term
        code, _, err = run_cli(*argv, "--max-iters", 1)
        assert code == 0
        assert err == "warning: 3 of 3 Sinkhorn solves stopped at --max-iters 1\n"

    def test_failed_command_prints_its_error_and_no_warning(self, world, tokens, tmp_path):
        argv = self._argv("eval", world, tokens, tmp_path)
        argv[argv.index("--out") + 1] = tmp_path / "missing" / "r.json"
        code, _, err = run_cli(*argv, "--max-iters", 1)
        assert code == 1
        assert re.fullmatch(r"error: IoError: [^\n]*\n", err), err


class TestNonFiniteSettings:
    """A NaN or infinite numeric flag is an InvalidInput before any
    solve or training step, and no output is written."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval triplet", "--epsilon", "inf"),
            ("eval triplet", "--tol", "inf"),
            ("eval retrieval", "--epsilon", "nan"),
            ("train", "--lambda", "nan"),
            ("train", "--lambda", "inf"),
            ("train", "--tau", "inf"),
            ("train", "--margin", "nan"),
            ("train", "--lr", "inf"),
            ("train", "--weight-decay", "nan"),
        ],
    )
    def test_exits_1_with_one_error_line_and_no_output(
        self, command, flag, value, world, tokens, tmp_path
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if command == "train":
            argv = [
                "train",
                "--manifests", world.manifests,
                "--cls-bundle", world.cls_bundle,
                "--patch-bundle", tokens,
                "--triplets", world.train_triplets,
                "--out-head", out_dir / "head.ckpt",
                "--out-history", out_dir / "history.json",
                "--epochs", 1,
                "--hidden-dim", 4,
            ]
        elif command == "eval triplet":
            argv = ["eval", "triplet", "--bundle", tokens, "--task", world.triplet_task]
        else:
            argv = ["eval", "retrieval", "--bundle", world.cls_bundle, "--task", world.retrieval_task]
        if command != "train":
            argv += ["--out", out_dir / "report.json"]
        code, _, err = run_cli(*argv, flag, value)
        assert code == 1
        assert re.fullmatch(r"error: InvalidInput: [^\n]*\n", err), err
        # the error names the setting, not a symptom such as an unserializable report
        assert re.search(rf"\b{flag[2:].replace('-', '_')}\b", err), err
        assert list(out_dir.iterdir()) == []


class TestFlagsBuildTheConfigs:
    """Every command builds its configs from the flags named after their
    fields, with the config types' own defaults."""

    def _argv(self, command, world, out_dir):
        if command == "train":
            return [
                "train",
                "--manifests", world.manifests,
                "--cls-bundle", world.cls_bundle,
                "--triplets", world.train_triplets,
                "--out-head", out_dir / "head.ckpt",
            ]
        if command == "score":
            return ["score", "--bundle", world.cls_bundle, "--pair", "a1-0", "a1-1"]
        if command == "eval":
            return ["eval", "verification", "--bundle", world.cls_bundle,
                    "--pairs", world.verif_pairs, "--out", out_dir / "r.json"]
        return ["sensitivity", "--grids", world.grids, "--bundle", world.cls_bundle,
                "--out", out_dir / "r.json"]

    # the library function each command hands its config to
    CALLEE = {"train": "train", "score": "score_pairs", "eval": "run_protocol",
              "sensitivity": "grid_scores"}

    def _built(self, monkeypatch, command, argv):
        """The config the command passes on, caught before any work."""
        seen = []

        def catch(*args, **kwargs):
            seen.extend(a for a in (*args, *kwargs.values())
                        if isinstance(a, (TrainConfig, SinkhornConfig)))
            raise InvalidInput("caught")

        monkeypatch.setattr(cli, self.CALLEE[command], catch)
        code, _, err = run_cli(*argv)
        assert (code, err) == (1, "error: InvalidInput: caught\n")
        (cfg,) = seen
        return cfg

    @pytest.mark.parametrize("command", ["train", "score", "eval", "sensitivity"])
    def test_required_flags_alone_give_the_default_config(
        self, command, world, tmp_path, monkeypatch
    ):
        cfg = self._built(monkeypatch, command, self._argv(command, world, tmp_path))
        assert cfg == (TrainConfig() if command == "train" else SinkhornConfig())

    @pytest.mark.parametrize("command", ["train", "score", "eval", "sensitivity"])
    def test_no_debias_clears_debiased(self, command, world, tmp_path, monkeypatch):
        argv = self._argv(command, world, tmp_path) + ["--no-debias"]
        cfg = self._built(monkeypatch, command, argv)
        sink = cfg.sinkhorn if command == "train" else cfg
        assert sink == SinkhornConfig(debiased=False)

    def test_train_flags_set_every_field(self, world, tmp_path, monkeypatch):
        argv = self._argv("train", world, tmp_path) + [
            "--seed", 4, "--lr", 0.01, "--weight-decay", 0.1, "--batch-size", 2,
            "--grad-accum", 3, "--epochs", 5, "--hidden-dim", 6, "--activation", "identity",
            "--tau", 0.5, "--lambda", 0.25, "--margin", 0.2, "--objective", "HINGE",
            "--patch-metric", "COSINE_MEANPOOL", "--epsilon", 0.1, "--max-iters", 7,
            "--tol", 1e-4, "--max-tokens", 9, "--no-debias",
        ]
        assert self._built(monkeypatch, "train", argv) == TrainConfig(
            lr=0.01, weight_decay=0.1, batch_size=2, grad_accum=3, epochs=5, seed=4,
            hidden_dim=6, activation="identity",
            loss=LossConfig(tau=0.5, lam=0.25, margin=0.2, objective="HINGE",
                            patch_metric="COSINE_MEANPOOL"),
            sinkhorn=SinkhornConfig(epsilon=0.1, max_iters=7, tol=1e-4, max_tokens=9,
                                    debiased=False),
        )

    @pytest.mark.parametrize("flags", [
        [],
        ["--seed", 4, "--lr", 0.01, "--weight-decay", 0.1, "--batch-size", 2, "--grad-accum", 3,
         "--epochs", 5, "--hidden-dim", 6, "--activation", "identity", "--tau", 0.5,
         "--lambda", 0.25, "--margin", 0.2, "--objective", "HINGE",
         "--patch-metric", "COSINE_MEANPOOL", "--epsilon", 0.1, "--no-debias"],
    ], ids=["defaults", "non-defaults"])
    def test_train_hash_is_that_of_the_hand_kept_parameters(
        self, flags, world, tmp_path, monkeypatch
    ):
        head = init_dual_head(DIM, hidden_dim=2, seed=0)
        monkeypatch.setattr(cli, "train", lambda *a, **k: TrainResult(head, head, 0, []))
        code, _, err = run_cli(*self._argv("train", world, tmp_path), *flags)
        assert code == 0, err
        cfg = self._built(monkeypatch, "train", self._argv("train", world, tmp_path) + flags)
        # the parameter list the train command kept by hand before it was derived from the fields
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
        want = config_hash({"command": "train", "seed": cfg.seed, **params})
        assert load_head(tmp_path / "head.ckpt")[1]["config_hash"] == want


class TestVotesAndInspect:
    def test_aggregate_votes_applies_the_strict_threshold(self, world, tmp_path):
        out_path = tmp_path / "labels.jsonl"
        code, out, err = run_cli("aggregate-votes", "--votes", world.votes, "--out", out_path)
        assert code == 0, err
        assert "(1 positive / 2 negative)" in out
        rows = [json.loads(line) for line in out_path.read_text().strip().split("\n")]
        assert [r["pair_id"] for r in rows] == ["p-all", "p-four", "p-split"]
        by_id = {r["pair_id"]: r for r in rows}
        assert by_id["p-all"]["binary"] == 1
        assert by_id["p-four"] == {"pair_id": "p-four", "label": 0.8, "agreement": 0.8, "binary": 0}
        assert by_id["p-split"]["binary"] == 0

    def test_duplicate_pair_id_is_rejected(self, tmp_path):
        votes = tmp_path / "votes.jsonl"
        _jsonl(votes, [{"pair_id": "p", "votes": [1]}, {"pair_id": "p", "votes": [0]}])
        code, _, err = run_cli("aggregate-votes", "--votes", votes, "--out", tmp_path / "o.jsonl")
        assert code == 1
        assert err.startswith("error: DuplicateId:")

    def test_inspect_prints_bundle_and_manifest_summary(self, world):
        code, out, err = run_cli(
            "inspect", "--bundle", world.cls_bundle, "--manifests", world.manifests
        )
        assert code == 0, err
        assert "token_kind CLS" in out
        assert "items 13" in out
        assert "13 images" in out
        assert "alpha=8  beta=5" in out
        assert "S1=10  S2a=1  S2b=2" in out
        assert "train=11  val=2" in out
        assert "instances 7" in out

    def test_inspect_without_inputs_is_a_data_error(self):
        code, _, err = run_cli("inspect")
        assert code == 1
        assert err.startswith("error: InvalidInput:")


class TestConsoleScript:
    def test_installed_entry_point_scores_a_pair(self, world):
        exe = shutil.which("instasim")
        if exe is None:
            pytest.skip("instasim entry point not on PATH")
        proc = subprocess.run(
            [exe, "score", "--bundle", str(world.cls_bundle), "--pair", "a1-0", "a1-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("similarity=")
        version = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert version.stdout.strip() == f"instasim {__version__}"
