"""Seeded fuzzing of every file reader: only instasim errors may escape.

Each case starts from a valid file written by the package's own savers,
damages it (truncation, flipped bytes, a deleted field, a value of the
wrong type) and loads it again. The loader may accept the damaged file
or raise an ``instasim.errors.Error``; any other exception is a bug.
Mutations come from a fixed numpy seed, so a failure names a case that
reproduces.
"""
import json

import numpy as np
import pytest

from instasim import reporting
from instasim.bundle import make_bundle, read_bundle, write_bundle
from instasim.curation import (
    InstanceSample,
    apply_filters,
    load_filter_rules,
    load_inventory,
    load_mined,
    load_samples,
    save_mined,
    save_samples,
)
from instasim.errors import Error
from instasim.heads import init_dual_head, load_head, save_head
from instasim.protocols import load_retrieval_task, load_triplet_task
from instasim.records import (
    ImageManifest,
    PairLabel,
    Triplet,
    load_manifest,
    load_pair_labels,
    load_triplets,
    load_votes,
    save_manifest,
    save_pair_labels,
    save_triplets,
)
from instasim.reporting import iter_jsonl, write_json_report, write_jsonl
from instasim.sensitivity import load_grids

SEED = 1729
ROUNDS = 40  # damaged files per format and mutation kind

# Replacement values for the type-swap mutation: every JSON type, plus
# values that break careless numeric handling.
SWAPS = [None, True, 0, -1, 2.5, 10**400, float("nan"), "", "x", [], ["x"], [1], {}, {"x": 1}]

INVENTORY = {"A": 3, "B": {"categories": {"x": 2, "y": 1}}}


def _point(image_id, factor, identity):
    return {
        "image_id": image_id,
        "identity_change": identity,
        "factor_change": factor,
        "factor_name": "blur",
    }


def _write_valid(name, path):
    """Write a small valid file of the given format to ``path``."""
    if name == "bundle":
        items = {"a": np.ones((2, 2)), "b": np.arange(6.0).reshape(3, 2)}
        write_bundle(path, make_bundle("PATCH", 2, items))
    elif name == "checkpoint":
        save_head(path, init_dual_head(3, hidden_dim=2, out_dim=2, seed=0), seed=1, config_hash="ab")
    elif name == "manifest":
        save_manifest(path, [
            ImageManifest("i1", "inst1", "D", "S1", "train"),
            ImageManifest("i2", "inst1", "D", "S2b", "val", {"source_instance": "inst1", "k": 1.5}),
        ])
    elif name == "triplets":
        save_triplets(path, [
            Triplet("a", "b", "c", "MINED_REAL"),
            Triplet("d", "e", "f", "IDENTITY_EDIT"),
        ])
    elif name == "pair_labels":
        save_pair_labels(path, [PairLabel("a", "b", 1.0), PairLabel("a", "c", 3.0)])
    elif name == "votes":
        write_jsonl(path, [{"pair_id": "p1", "votes": [1, 0, 1]}, {"pair_id": "p2", "votes": [0]}])
    elif name == "retrieval_task":
        write_jsonl(path, [
            {"gallery": ["g1", "g2", "g3"]},
            {"query": "q1", "relevant": ["g1"]},
            {"query": "q2", "relevant": ["g2", "g3"]},
        ])
    elif name == "triplet_task":
        write_jsonl(path, [
            {"anchor": "a", "positive": "b", "negative": "c", "mode": "EASY"},
            {"anchor": "d", "positive": "e", "negative": "f", "mode": "HARD"},
        ])
    elif name == "samples":
        save_samples(
            path,
            [InstanceSample("i1", "DS", "a1", "p1"), InstanceSample("i2", "DS", "a2", "p2")],
            {"i1": "train", "i2": "val"},
        )
    elif name == "mined":
        save_mined(path, {"a1": ["n1", "n2"], "a2": ["n3"]})
    elif name == "grids":
        write_jsonl(path, [
            {"anchor": "a", "points": [_point("x", 1.0, 0.0), _point("y", 0.0, 1.0)]},
            {"anchor": "b", "points": [_point("z", 0.5, 0.5)]},
        ])
    elif name == "inventory":
        write_json_report(path, INVENTORY)
    elif name == "filter_rules":
        write_json_report(path, [
            {"dataset_id": "A", "action": "drop"},
            {"dataset_id": "B", "action": "keep_categories", "categories": ["x"]},
        ])
    else:
        raise AssertionError(name)


LOADERS = {
    "bundle": read_bundle,
    "checkpoint": load_head,
    "manifest": load_manifest,
    "triplets": load_triplets,
    "pair_labels": load_pair_labels,
    "votes": load_votes,
    "retrieval_task": load_retrieval_task,
    "triplet_task": load_triplet_task,
    "samples": load_samples,
    "mined": load_mined,
    "grids": load_grids,
    "inventory": load_inventory,
    # the rules are only useful applied, so the fuzz covers that too
    "filter_rules": lambda p: apply_filters(INVENTORY, load_filter_rules(p)),
}
JSON_DOCS = {"inventory", "filter_rules"}


def _slots(node):
    """Every (container, key) under ``node``: dict keys and list indices."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return []
    out = []
    for key in keys:
        out.append((node, key))
        out.extend(_slots(node[key]))
    return out


def _mutate_structure(doc, kind, rng) -> None:
    """Delete a dict field or swap one value's type, in place."""
    slots = _slots(doc)
    if kind == "delete":
        slots = [(c, k) for c, k in slots if isinstance(c, dict)]
        if slots:
            container, key = slots[rng.integers(len(slots))]
            del container[key]
    else:
        container, key = slots[rng.integers(len(slots))]
        container[key] = SWAPS[rng.integers(len(SWAPS))]


def _json_mutation(name, blob, kind, rng) -> bytes:
    if name == "checkpoint":
        hlen = int.from_bytes(blob[:4], "little")
        header = [json.loads(blob[4 : 4 + hlen])]
        _mutate_structure(header, kind, rng)
        raw = json.dumps(header[0]).encode()
        return len(raw).to_bytes(4, "little") + raw + blob[4 + hlen :]
    if name in JSON_DOCS:
        doc = [json.loads(blob)]
        _mutate_structure(doc, kind, rng)
        return json.dumps(doc[0]).encode()
    rows = [json.loads(line) for line in blob.decode().splitlines()]
    _mutate_structure(rows, kind, rng)
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


def _damage(name, blob, kind, rng) -> bytes:
    if kind == "truncate":
        return blob[: rng.integers(len(blob))]
    if kind == "flip":
        out = bytearray(blob)
        for pos in rng.integers(len(out), size=rng.integers(1, 4)):
            out[pos] ^= int(rng.integers(1, 256))
        return bytes(out)
    if name == "bundle":
        # no JSON inside: a deleted field is a span of bytes cut out, a
        # swapped type is a span overwritten with random bytes
        start = int(rng.integers(len(blob)))
        stop = start + int(rng.integers(1, 9))
        filler = rng.integers(256, size=stop - start, dtype=np.uint8).tobytes()
        return blob[:start] + (filler if kind == "swap" else b"") + blob[stop:]
    return _json_mutation(name, blob, kind, rng)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_damaged_files_raise_only_tool_errors(tmp_path, name):
    path = tmp_path / f"{name}.bin"
    _write_valid(name, path)
    LOADERS[name](path)  # the undamaged file loads
    blob = path.read_bytes()
    rng = np.random.default_rng([SEED, sorted(LOADERS).index(name)])
    for kind in ("truncate", "flip", "delete", "swap"):
        for round_no in range(ROUNDS):
            damaged = _damage(name, blob, kind, rng)
            path.write_bytes(damaged)
            try:
                LOADERS[name](path)
            except Error:
                pass
            except Exception as exc:  # noqa: BLE001 - the point of the test
                pytest.fail(
                    f"{name}, {kind} round {round_no}: {type(exc).__name__}: {exc}\n"
                    f"input: {damaged[:300]!r}"
                )



JSONL_NAMES = sorted(set(LOADERS) - JSON_DOCS - {"bundle", "checkpoint"})


def _outcome(load, path):
    try:
        return "ok", repr(load(path))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _no_scan(line, idx):
    raise StopIteration(idx)


@pytest.mark.parametrize("name", JSONL_NAMES)
def test_jsonl_fast_path_matches_json_loads(tmp_path, monkeypatch, name):
    """Every damaged JSONL file of the fuzz above gives the same objects,
    or the same error, with the scanner fast path on and forced off."""
    path = tmp_path / f"{name}.jsonl"
    _write_valid(name, path)
    blob = path.read_bytes()
    rng = np.random.default_rng([SEED, sorted(LOADERS).index(name)])
    readers = (lambda p: list(iter_jsonl(p)), LOADERS[name])
    for kind in ("truncate", "flip", "delete", "swap"):
        for round_no in range(ROUNDS):
            path.write_bytes(_damage(name, blob, kind, rng))
            fast = [_outcome(read, path) for read in readers]
            with monkeypatch.context() as patched:
                patched.setattr(reporting, "_scan_once", _no_scan)
                slow = [_outcome(read, path) for read in readers]
            assert fast == slow, f"{name}, {kind} round {round_no}"
