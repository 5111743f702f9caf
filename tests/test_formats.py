"""Binary bundle format, JSONL record loaders, and report canonicalization."""
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from instasim.bundle import MAGIC, EmbeddingBundle, make_bundle, read_bundle, write_bundle
from instasim.errors import (
    CorruptBundle,
    DuplicateId,
    FormatError,
    InvalidInput,
    IoError,
    MissingItem,
)
from instasim.records import (
    ImageManifest,
    Triplet,
    load_manifest,
    load_pair_labels,
    load_triplets,
    load_votes,
    save_manifest,
    save_triplets,
    validate_triplets,
)
from instasim.curation import load_filter_rules, load_inventory, load_mined, load_samples
from instasim.heads import init_dual_head, save_head
from instasim.protocols import load_retrieval_task, load_triplet_task
from instasim import reporting
from instasim.reporting import (
    canonical_json,
    config_hash,
    iter_jsonl,
    write_json_report,
    write_jsonl,
)
from instasim.sensitivity import load_grids

from oracles import iter_jsonl_per_line

JSONL_LOADERS = [
    load_manifest,
    load_triplets,
    load_pair_labels,
    load_votes,
    load_retrieval_task,
    load_triplet_task,
    load_samples,
    load_mined,
    load_grids,
]


class TestBundleRoundTrip:
    def test_bit_exact_roundtrip(self, tmp_path, rng):
        items = {
            "b": rng.normal(size=(3, 5)).astype(np.float32),
            "a": rng.normal(size=(1, 5)).astype(np.float32),
            "unicode-ид": rng.normal(size=(2, 5)).astype(np.float32),
        }
        bundle = make_bundle("PATCH", 5, items)
        path = tmp_path / "p.idse"
        write_bundle(path, bundle)
        back = read_bundle(path)
        assert back.token_kind == "PATCH"
        assert back.dim == 5
        assert set(back.items) == set(items)
        for k in items:
            assert back.items[k].dtype == np.float32
            assert (back.items[k] == items[k]).all()

    def test_file_bytes_independent_of_insertion_order(self, tmp_path, rng):
        arrays = {f"id{i}": rng.normal(size=(1, 4)).astype(np.float32) for i in range(6)}
        fwd = make_bundle("CLS", 4, dict(sorted(arrays.items())))
        rev = make_bundle("CLS", 4, dict(sorted(arrays.items(), reverse=True)))
        write_bundle(tmp_path / "fwd.idse", fwd)
        write_bundle(tmp_path / "rev.idse", rev)
        assert (tmp_path / "fwd.idse").read_bytes() == (tmp_path / "rev.idse").read_bytes()

    def test_rewrite_is_idempotent(self, tmp_path, cls_bundle):
        write_bundle(tmp_path / "a.idse", cls_bundle)
        write_bundle(tmp_path / "b.idse", read_bundle(tmp_path / "a.idse"))
        assert (tmp_path / "a.idse").read_bytes() == (tmp_path / "b.idse").read_bytes()


class TestBundleValidation:
    def test_cls_requires_single_row(self):
        with pytest.raises(InvalidInput):
            make_bundle("CLS", 3, {"x": np.zeros((2, 3))})

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInput):
            make_bundle("CLS", 3, {"x": np.zeros((1, 4))})

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            make_bundle("CLS", 2, {"x": np.array([[1.0, np.nan]])})

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            make_bundle("TOKENS", 2, {"x": np.zeros((1, 2))})

    def test_empty_id(self):
        with pytest.raises(InvalidInput):
            make_bundle("CLS", 2, {"": np.zeros((1, 2))})

    def test_missing_item_lookup(self, cls_bundle):
        with pytest.raises(MissingItem):
            cls_bundle.get("nope")


class TestBundleCorruption:
    def _write(self, tmp_path, rng):
        path = tmp_path / "c.idse"
        items = {"a": rng.normal(size=(2, 3)).astype(np.float32)}
        write_bundle(path, make_bundle("PATCH", 3, items))
        return path

    def test_bad_magic(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_future_version_rejected(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(CorruptBundle):
            read_bundle(path)

    def test_trailing_garbage(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CorruptBundle):
            read_bundle(path)

    def test_non_finite_payload(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        blob = bytearray(path.read_bytes())
        blob[-4:] = struct.pack("<f", np.inf)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptBundle):
            read_bundle(path)

    def test_truncated_header(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        path.write_bytes(path.read_bytes()[:14])
        with pytest.raises(CorruptBundle):
            read_bundle(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_bundle(tmp_path / "does_not_exist.idse")


class TestBundleMatrix:
    N, DIM = 1696, 256  # the bench's CLS bundle

    def _cls_file(self, tmp_path, rng):
        items = {f"img{j:05d}": rng.normal(size=(1, self.DIM)) for j in range(self.N)}
        path = tmp_path / "big.idse"
        write_bundle(path, make_bundle("CLS", self.DIM, items))
        return path

    def test_read_peaks_at_the_file_bytes(self, tmp_path, rng):
        path = self._cls_file(tmp_path, rng)
        payload = self.N * self.DIM * 4
        tracemalloc.start()
        try:
            bundle = read_bundle(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the matrix is a view of the buffer the file was read into; ids,
        # index and offsets take about 140 bytes an item at rest and 200 at
        # peak, and a per-item array would add its own header on top
        assert peak < os.path.getsize(path) + 256 * self.N
        assert kept < payload + 160 * self.N
        assert bundle.matrix.shape == (self.N, self.DIM)
        assert all(np.may_share_memory(bundle.items[k], bundle.matrix) for k in bundle.items)

    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    def test_write_peaks_at_one_payload_over_the_bundle(self, tmp_path, rng, order):
        bundle = read_bundle(self._cls_file(tmp_path, rng))
        if order == "reversed":
            # the raw constructor keeps the order, so the rows are gathered
            bundle = EmbeddingBundle("CLS", self.DIM, dict(reversed(list(bundle.items.items()))))
        tracemalloc.start()
        try:
            write_bundle(tmp_path / "out.idse", bundle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.N * self.DIM * 4 + 256 * self.N
        assert (tmp_path / "out.idse").read_bytes() == (tmp_path / "big.idse").read_bytes()

    @pytest.mark.parametrize("id_len", [1, 2, 3, 4])
    def test_payload_after_any_header_length_reads_aligned(self, tmp_path, rng, id_len):
        items = {"x" * id_len: rng.normal(size=(3, 5)), "y": rng.normal(size=(2, 5))}
        bundle = make_bundle("PATCH", 5, items)
        write_bundle(tmp_path / "a.idse", bundle)
        back = read_bundle(tmp_path / "a.idse")
        assert back.matrix.flags.aligned and back.matrix.flags.writeable
        assert back.matrix.tobytes() == bundle.matrix.tobytes()

    def test_empty_id_on_read_is_corrupt(self, tmp_path):
        path = tmp_path / "empty_id.idse"
        header = MAGIC + struct.pack("<IBII", 1, 0, 2, 1) + struct.pack("<H", 0) + struct.pack("<I", 1)
        path.write_bytes(header + struct.pack("<2f", 1.0, 2.0))
        with pytest.raises(CorruptBundle, match="empty item id"):
            read_bundle(path)

    def test_rows_are_exact_float64_gathers(self, cls_bundle):
        ids = sorted(cls_bundle.items)[::-1]
        U = cls_bundle.rows(ids)
        assert U.dtype == np.float64
        for row, image_id in zip(U, ids):
            assert (row == cls_bundle.get(image_id).astype(np.float64).ravel()).all()
        with pytest.raises(MissingItem, match="'nope'"):
            cls_bundle.rows([ids[0], "nope"])

    def test_deleted_item_is_not_written(self, tmp_path, patch_bundle):
        gone = sorted(patch_bundle.items)[1]
        kept = {k: v for k, v in patch_bundle.items.items() if k != gone}
        del patch_bundle.items[gone]
        assert gone not in patch_bundle.items and len(patch_bundle) == len(kept)
        write_bundle(tmp_path / "a.idse", patch_bundle)
        write_bundle(tmp_path / "b.idse", make_bundle("PATCH", patch_bundle.dim, kept))
        assert (tmp_path / "a.idse").read_bytes() == (tmp_path / "b.idse").read_bytes()

    def test_constructor_keeps_float64_rows(self):
        rows = {"b": np.array([0.1, 0.2]), "a": np.array([[0.3, 0.4]])}
        bundle = EmbeddingBundle("CLS", 2, rows)
        assert bundle.matrix.dtype == np.float64
        assert list(bundle.items) == ["b", "a"]
        assert bundle.rows(["a", "b"]).tolist() == [[0.3, 0.4], [0.1, 0.2]]


def _jsonl_outcome(read, path):
    try:
        return "ok", repr(list(read(path)))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


class TestJsonlDecoding:
    CASES = {
        # each line is invalid on its own, though joined as one array
        # they would parse as three objects
        "joined_array": b'{"a":[1\n2]}\n{"c":1},{"d":2}\n',
        "line_separators": '{"s": "a\u0085b\u2028c\u2029d"}\n{"t": 1}\n'.encode(),
        "bom": b'\xef\xbb\xbf{"a": 1}\n',
        "crlf": b'{"a": 1}\r\n{"b": 2}\r\n',
        "whitespace_only": b'{"a": 1}\n  \t \n\x0c\n{"b": 2}\n   ',
        "blank_then_bad": b'\n\n{"a": 1}\n\n[1]\n',
        "blank_then_extra_data": b'\n{"a": 1} x\n',
        "no_final_newline": b'{"a": 1}\n{"b": 2}',
        "unicode_whitespace_around": ' \u2028{"a": 1}\u0085 \n'.encode(),
        "scalar_line": b'{"a": 1}\n3\n',
        "bad_utf8_late": b'{"a": 1}\n{"b": "caf\xe9"}\n',
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_objects_or_error_as_the_line_reader(self, tmp_path, case):
        path = tmp_path / "f.jsonl"
        path.write_bytes(self.CASES[case])
        assert _jsonl_outcome(iter_jsonl, path) == _jsonl_outcome(iter_jsonl_per_line, path)

    def test_joined_array_lines_fail_at_line_1(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(self.CASES["joined_array"])
        with pytest.raises(FormatError, match=r"f\.jsonl:1: invalid JSON"):
            list(iter_jsonl(path))

    def test_line_separators_inside_strings_load(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"image_id": "a\u2028b", "instance_id": "i\u0085", "dataset_id": "D",
               "subset": "S1", "split": "train", "edit_meta": {"note": "x\u2029y"}}
        path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        (rec,) = load_manifest(path)
        assert (rec.image_id, rec.instance_id, rec.edit_meta) == ("a\u2028b", "i\u0085", {"note": "x\u2029y"})

    def test_bom_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(self.CASES["bom"])
        with pytest.raises(FormatError, match=r"f\.jsonl:1: invalid JSON: Unexpected UTF-8 BOM"):
            list(iter_jsonl(path))
        path.write_bytes(self.CASES["crlf"])
        assert list(iter_jsonl(path)) == [(1, {"a": 1}), (2, {"b": 2})]
        path.write_bytes(self.CASES["whitespace_only"])
        assert list(iter_jsonl(path)) == [(1, {"a": 1}), (4, {"b": 2})]
        path.write_bytes(self.CASES["blank_then_bad"])
        with pytest.raises(FormatError, match=r"f\.jsonl:5: expected a JSON object"):
            list(iter_jsonl(path))

    def test_valid_lines_skip_json_loads(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        save_manifest(path, [ImageManifest(f"i{j}", "a", "D", "S1", "train") for j in range(3)])

        def fail(line, path, lineno):
            raise AssertionError(f"line {lineno} left the scanner")

        monkeypatch.setattr(reporting, "_parse_line", fail)
        assert [r.image_id for r in load_manifest(path)] == ["i0", "i1", "i2"]


class TestManifestRecords:
    def test_manifest_roundtrip(self, tmp_path):
        recs = [
            ImageManifest("i2", "inst1", "D", "S1", "train", {}),
            ImageManifest("i1", "inst1", "D", "S2a", "train", {"edit": "recolor"}),
        ]
        path = tmp_path / "m.jsonl"
        save_manifest(path, recs)
        back = load_manifest(path)
        assert back == recs

    def test_duplicate_image_id_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"image_id": "i1", "instance_id": "a", "dataset_id": "D", "subset": "S1", "split": "train"}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        from instasim.records import manifest_index

        with pytest.raises(DuplicateId):
            manifest_index(load_manifest(path))

    def test_bad_subset_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = {"image_id": "i1", "instance_id": "a", "dataset_id": "D", "subset": "S9", "split": "train"}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(FormatError):
            load_manifest(path)


class TestCurationRecords:
    def test_duplicate_mined_anchor_rejected(self, tmp_path):
        path = tmp_path / "mined.jsonl"
        write_jsonl(path, [{"anchor": "a", "negatives": ["b"]}, {"anchor": "a", "negatives": ["c"]}])
        with pytest.raises(DuplicateId, match=r"mined\.jsonl:2: duplicate anchor 'a'"):
            load_mined(path)

    def test_duplicate_sample_instance_rejected(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        row = {"instance_id": "i1", "dataset_id": "D", "anchor": "a", "positive": "p"}
        write_jsonl(path, [{**row, "split": "train"}, {**row, "anchor": "b", "split": "val"}])
        with pytest.raises(DuplicateId, match=r"samples\.jsonl:2: duplicate instance_id 'i1'"):
            load_samples(path)


class TestTripletRecords:
    def test_roundtrip(self, tmp_path):
        trips = [Triplet("a", "b", "c", "MINED_REAL"), Triplet("d", "e", "f", "IDENTITY_EDIT")]
        path = tmp_path / "t.jsonl"
        save_triplets(path, trips)
        assert load_triplets(path) == trips

    def test_validate_triplets_catches_shared_instance_negative(self):
        manifests = [
            ImageManifest("a", "inst1", "D", "S1", "train", {}),
            ImageManifest("b", "inst1", "D", "S1", "train", {}),
            ImageManifest("c", "inst1", "D", "S1", "train", {}),
        ]
        from instasim.records import manifest_index

        idx = manifest_index(manifests)
        with pytest.raises(InvalidInput):
            validate_triplets([Triplet("a", "b", "c", "MINED_REAL")], idx)

    def test_validate_triplets_anchor_positive_same_instance(self):
        manifests = [
            ImageManifest("a", "inst1", "D", "S1", "train", {}),
            ImageManifest("b", "inst2", "D", "S1", "train", {}),
            ImageManifest("c", "inst3", "D", "S1", "train", {}),
        ]
        from instasim.records import manifest_index

        idx = manifest_index(manifests)
        with pytest.raises(InvalidInput):
            validate_triplets([Triplet("a", "b", "c", "MINED_REAL")], idx)

    def test_identity_edit_negative_must_be_s2b(self):
        manifests = [
            ImageManifest("a", "inst1", "D", "S1", "train", {}),
            ImageManifest("b", "inst1", "D", "S1", "train", {}),
            ImageManifest("c", "inst2", "D", "S1", "train", {}),
        ]
        from instasim.records import manifest_index

        idx = manifest_index(manifests)
        with pytest.raises(InvalidInput):
            validate_triplets([Triplet("a", "b", "c", "IDENTITY_EDIT")], idx)


class TestVoteRecords:
    def test_load(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text(json.dumps({"pair_id": "p", "votes": [1, 0, 1]}) + "\n")
        recs = load_votes(path)
        assert recs[0].votes == (1, 0, 1)

    def test_non_binary_vote_rejected(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text(json.dumps({"pair_id": "p", "votes": [1, 2]}) + "\n")
        with pytest.raises(FormatError):
            load_votes(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "v.jsonl"
        line = json.dumps({"pair_id": "p", "votes": [1]})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(DuplicateId):
            load_votes(path)


class TestPairLabels:
    def test_label_range_enforced(self, tmp_path):
        path = tmp_path / "pl.jsonl"
        path.write_text(json.dumps({"ref_id": "a", "cand_id": "b", "label": 5.0}) + "\n")
        with pytest.raises(FormatError):
            load_pair_labels(path)


class TestReporting:
    def test_canonical_json_sorted_and_compact(self):
        s = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
        assert s == '{"a":[1,2],"b":1,"c":{"x":1,"y":0}}'

    def test_nan_rejected(self):
        with pytest.raises(InvalidInput):
            canonical_json({"x": float("nan")})

    def test_canonical_json_equals_the_json_dumps_form(self):
        objs = [
            {"z": [1.5, -0.0, 1e-300, 2**70], "a": {"é": "\u2028\n", "b": None}, "m": True},
            [{"k": 3}, "ü", 0.1, [], {}],
            {"1": 1, "10": 2, "2": [False, 1.0 / 3.0]},
            "plain",
            7,
        ]
        for obj in objs:
            want = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
            assert canonical_json(obj) == want

    def test_non_finite_nested_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(InvalidInput):
                canonical_json({"a": [1, {"b": bad}]})

    def test_config_hash_stable_under_key_order(self):
        h1 = config_hash({"alpha": 1, "beta": "x"})
        h2 = config_hash({"beta": "x", "alpha": 1})
        assert h1 == h2
        assert len(h1) == 64 and all(c in "0123456789abcdef" for c in h1)

    def test_config_hash_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_write_json_report_trailing_newline(self, tmp_path):
        path = tmp_path / "r.json"
        write_json_report(path, {"z": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "z": 1}

    def test_write_failure_wrapped(self, tmp_path):
        with pytest.raises(IoError):
            write_json_report(tmp_path / "no_dir" / "r.json", {})


class TestEncoding:
    @pytest.mark.parametrize("loader", JSONL_LOADERS, ids=lambda f: f.__name__)
    def test_non_utf8_jsonl_is_a_format_error_with_line(self, tmp_path, loader):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n" + b'{"id": "caf\xe9"}\n')
        with pytest.raises(FormatError, match=r"bad\.jsonl:2:"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_inventory, load_filter_rules], ids=lambda f: f.__name__)
    def test_non_utf8_json_is_a_format_error(self, tmp_path, loader):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"caf\xe9": 1}')
        with pytest.raises(FormatError):
            loader(path)


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if ".tmp" in p.name)


def _writers():
    bundle = make_bundle("CLS", 2, {"a": np.ones((1, 2))})
    head = init_dual_head(2, hidden_dim=2, seed=0)
    return {
        "report": lambda p: write_json_report(p, {"a": 1}),
        "jsonl": lambda p: write_jsonl(p, [{"a": 1}, {"b": 2}]),
        "bundle": lambda p: write_bundle(p, bundle),
        "head": lambda p: save_head(p, head),
    }


class TestAtomicWrites:
    def test_failed_report_keeps_the_previous_bytes(self, tmp_path):
        path = tmp_path / "r.json"
        write_json_report(path, {"x": 1.5})
        before = path.read_bytes()
        with pytest.raises(InvalidInput):
            write_json_report(path, {"x": float("nan")})
        assert path.read_bytes() == before
        assert _leftovers(tmp_path) == []

    def test_non_finite_jsonl_row_is_rejected_and_nothing_is_replaced(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"x": 1}])
        before = path.read_bytes()
        with pytest.raises(InvalidInput):
            write_jsonl(path, [{"x": 2}, {"x": float("inf")}])
        assert path.read_bytes() == before
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("kind", ["jsonl", "bundle", "head"])
    def test_missing_directory_is_an_io_error(self, tmp_path, kind):
        with pytest.raises(IoError):
            _writers()[kind](tmp_path / "no_dir" / "out")
        assert not (tmp_path / "no_dir").exists()

    @pytest.mark.parametrize("kind", ["report", "jsonl", "bundle", "head"])
    def test_new_file_mode_follows_the_umask(self, tmp_path, kind):
        old = os.umask(0o027)
        try:
            _writers()[kind](tmp_path / "out")
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(old)
        mode = (tmp_path / "out").stat().st_mode & 0o777
        assert mode == (tmp_path / "plain").stat().st_mode & 0o777 == 0o640
        assert _leftovers(tmp_path) == []
