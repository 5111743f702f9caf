"""Curation pipeline: allocation, sampling, mining, triplets, votes."""
import json

import numpy as np
import pytest

from instasim.bundle import make_bundle
from instasim.curation import (
    InstanceSample,
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
from instasim.errors import (
    FormatError,
    InsufficientInventory,
    InvalidInput,
    MissingItem,
    NoCandidates,
)
from instasim.records import (
    SOURCE_INSTANCE_KEY,
    ImageManifest,
    VoteRecord,
    manifest_index,
    validate_triplets,
)

from oracles import mine_hard_negatives_full_sort


def _manifest(image_id, instance_id, dataset="MET", subset="S1", split="train", meta=None):
    return ImageManifest(
        image_id=image_id,
        instance_id=instance_id,
        dataset_id=dataset,
        subset=subset,
        split=split,
        edit_meta=meta or {},
    )


class TestBalancedAllocate:
    def test_two_small_datasets_split_evenly(self):
        assert balanced_allocate({"A": 5, "B": 5}, 10) == {"A": 5, "B": 5}

    def test_tiny_dataset_freezes_and_rest_absorbs(self):
        assert balanced_allocate({"A": 2, "B": 100}, 10) == {"A": 2, "B": 8}

    def test_two_round_redistribution(self):
        # budget 11000 over 8 datasets gives 1375 each; the two small
        # ones freeze at full inventory and the leftover 9366 splits
        # evenly over the remaining six
        inv = {"MET": 734, "ILIAS": 900}
        inv.update({f"D{i}": 5000 for i in range(6)})
        alloc = balanced_allocate(inv, 11000)
        assert alloc["MET"] == 734
        assert alloc["ILIAS"] == 900
        assert all(alloc[f"D{i}"] == 1561 for i in range(6))
        assert sum(alloc.values()) == 11000

    def test_remainder_goes_to_ascending_ids(self):
        alloc = balanced_allocate({"a": 100, "b": 100, "c": 100}, 11)
        assert alloc == {"a": 4, "b": 4, "c": 3}

    def test_properties_on_random_inventories(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            inv = {f"ds{i}": int(rng.integers(1, 50)) for i in range(n)}
            total = sum(inv.values())
            budget = int(rng.integers(1, total + 1))
            alloc = balanced_allocate(inv, budget)
            assert sum(alloc.values()) == budget
            assert all(0 <= alloc[d] <= inv[d] for d in inv)
            # datasets not capped by inventory share the budget evenly
            free = [alloc[d] for d in inv if alloc[d] < inv[d]]
            if free:
                assert max(free) - min(free) <= 1

    def test_insufficient_inventory(self):
        with pytest.raises(InsufficientInventory):
            balanced_allocate({"A": 3, "B": 4}, 8)

    def test_bad_budget_and_counts(self):
        with pytest.raises(InvalidInput):
            balanced_allocate({"A": 3}, 0)
        with pytest.raises(InvalidInput):
            balanced_allocate({"A": 0}, 1)

    def test_category_detail_counts_as_instances(self):
        inv = {"A": {"instances": 4, "categories": {"x": 1, "y": 3}}, "B": 6}
        assert inventory_counts(inv) == {"A": 4, "B": 6}
        assert balanced_allocate(inv, 10) == {"A": 4, "B": 6}


class TestInventoryAndFilters:
    def test_load_inventory(self, tmp_path):
        path = tmp_path / "inv.json"
        path.write_text(json.dumps({"A": 3, "B": {"categories": {"x": 2, "y": 5}}}))
        inv = load_inventory(path)
        assert inv["A"] == 3
        assert inv["B"]["instances"] == 7

    def test_load_inventory_rejects_bad_entries(self, tmp_path):
        path = tmp_path / "inv.json"
        for bad in (
            '{"A": 0}',
            '{"A": "three"}',
            "[]",
            "{}",
            '{"A": true}',
            '{"ds0": {"instances": true}}',
            '{"ds1": {"categories": {"a": true, "b": 2}}}',
        ):
            path.write_text(bad)
            with pytest.raises(FormatError):
                load_inventory(path)
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_inventory(path)

    def test_drop_rule(self):
        inv = {"A": 5, "B": 5}
        assert apply_filters(inv, [{"dataset_id": "A", "action": "drop"}]) == {"B": 5}
        assert inv["A"] == 5

    def test_keep_and_drop_categories(self):
        inv = {"A": {"instances": 10, "categories": {"x": 4, "y": 6}}}
        kept = apply_filters(
            inv, [{"dataset_id": "A", "action": "keep_categories", "categories": ["x"]}]
        )
        assert kept["A"] == {"instances": 4, "categories": {"x": 4}}
        dropped = apply_filters(
            inv, [{"dataset_id": "A", "action": "drop_categories", "categories": ["x"]}]
        )
        assert dropped["A"] == {"instances": 6, "categories": {"y": 6}}

    def test_filtering_away_everything_removes_dataset(self):
        inv = {"A": {"instances": 4, "categories": {"x": 4}}, "B": 2}
        out = apply_filters(
            inv, [{"dataset_id": "A", "action": "drop_categories", "categories": ["x"]}]
        )
        assert out == {"B": 2}

    def test_filter_errors(self):
        inv = {"A": 5}
        with pytest.raises(FormatError):
            apply_filters(inv, [{"dataset_id": "Z", "action": "drop"}])
        with pytest.raises(FormatError):
            apply_filters(
                inv, [{"dataset_id": "A", "action": "keep_categories", "categories": ["x"]}]
            )
        inv2 = {"A": {"instances": 3, "categories": {"x": 3}}}
        with pytest.raises(FormatError):
            apply_filters(
                inv2, [{"dataset_id": "A", "action": "keep_categories", "categories": ["nope"]}]
            )

    def test_load_filter_rules(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{"dataset_id": "A", "action": "drop"}]))
        assert load_filter_rules(path) == [{"dataset_id": "A", "action": "drop"}]
        path.write_text(json.dumps([{"dataset_id": "A", "action": "keep_categories"}]))
        with pytest.raises(FormatError):
            load_filter_rules(path)
        path.write_text(json.dumps({"dataset_id": "A"}))
        with pytest.raises(FormatError):
            load_filter_rules(path)
        for bad in (
            [{"dataset_id": ["A"], "action": "drop"}],
            [{"dataset_id": "A", "action": ["drop"]}],
            [{"dataset_id": "A", "action": "keep_categories", "categories": [{"x": 1}]}],
        ):
            path.write_text(json.dumps(bad))
            with pytest.raises(FormatError):
                load_filter_rules(path)


def _sampling_corpus():
    manifests = []
    for i in range(6):
        n_images = 1 if i == 5 else 3  # one instance too small to sample
        for j in range(n_images):
            manifests.append(_manifest(f"A_i{i}_img{j}", f"A_i{i}", dataset="DS_A"))
    for i in range(3):
        manifests.append(_manifest(f"B_i{i}_img0", f"B_i{i}", dataset="DS_B"))
        manifests.append(_manifest(f"B_i{i}_img1", f"B_i{i}", dataset="DS_B"))
    return manifests


class TestSampling:
    def test_allocation_is_honoured(self):
        samples, shortfall = sample_instances({"DS_A": 3, "DS_B": 2}, _sampling_corpus(), seed=0)
        assert shortfall == {}
        by_ds = {}
        for s in samples:
            by_ds.setdefault(s.dataset_id, []).append(s)
        assert len(by_ds["DS_A"]) == 3
        assert len(by_ds["DS_B"]) == 2

    def test_anchor_and_positive_are_distinct_same_instance_images(self):
        samples, _ = sample_instances({"DS_A": 5, "DS_B": 3}, _sampling_corpus(), seed=1)
        for s in samples:
            assert s.anchor != s.positive
            assert s.anchor.startswith(s.instance_id)
            assert s.positive.startswith(s.instance_id)

    def test_single_image_instances_are_skipped(self):
        # DS_A has 6 instances but only 5 with two usable images
        samples, shortfall = sample_instances({"DS_A": 6}, _sampling_corpus(), seed=0)
        assert len(samples) == 5
        assert shortfall == {"DS_A": 1}
        assert all(s.instance_id != "A_i5" for s in samples)

    def test_non_s1_images_are_ignored(self):
        manifests = [
            _manifest("x0", "X"),
            _manifest("x1", "X", subset="S2a"),
            _manifest("x2", "X", subset="S2b", meta={SOURCE_INSTANCE_KEY: "X"}),
        ]
        samples, shortfall = sample_instances({"MET": 1}, manifests, seed=0)
        assert samples == []
        assert shortfall == {"MET": 1}

    def test_deterministic_and_seed_sensitive(self):
        manifests = _sampling_corpus()
        a1, _ = sample_instances({"DS_A": 3}, manifests, seed=4)
        a2, _ = sample_instances({"DS_A": 3}, manifests, seed=4)
        b, _ = sample_instances({"DS_A": 3}, manifests, seed=5)
        assert a1 == a2
        assert a1 != b

    def test_samples_round_trip(self, tmp_path):
        samples, _ = sample_instances({"DS_A": 3, "DS_B": 2}, _sampling_corpus(), seed=0)
        split = assign_splits(samples, seed=0)
        path = tmp_path / "samples.jsonl"
        save_samples(path, samples, split)
        loaded, loaded_split = load_samples(path)
        assert loaded == sorted(samples, key=lambda s: (s.dataset_id, s.instance_id))
        assert loaded_split == split

    @pytest.mark.parametrize(
        "line",
        [
            '["i1", "DS", "a", "p"]',
            '{"instance_id": 1, "dataset_id": "DS", "anchor": "a", "positive": "p"}',
            '{"instance_id": "i1", "dataset_id": "DS", "anchor": ["a"], "positive": "p"}',
            '{"instance_id": "i1", "dataset_id": "DS", "anchor": "a", "positive": "p", "split": 0}',
            '{"instance_id": "i1", "dataset_id": "DS", "anchor": "a"}',
        ],
    )
    def test_malformed_samples_rejected(self, tmp_path, line):
        path = tmp_path / "samples.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(FormatError, match="samples.jsonl:1:"):
            load_samples(path)


class TestAssignSplits:
    def test_ten_to_one_floor(self):
        samples = [
            InstanceSample(f"i{k}", "DS", f"i{k}_a", f"i{k}_b") for k in range(22)
        ]
        split = assign_splits(samples, seed=0)
        counts = {"train": 0, "val": 0}
        for v in split.values():
            counts[v] += 1
        assert counts == {"train": 20, "val": 2}

    def test_proportional_per_dataset(self):
        samples = [
            InstanceSample(f"a{k}", "DS1", "x", "y") for k in range(11)
        ] + [InstanceSample(f"b{k}", "DS2", "x", "y") for k in range(11)]
        split = assign_splits(samples, seed=3)
        for prefix in ("a", "b"):
            train = sum(1 for k, v in split.items() if k.startswith(prefix) and v == "train")
            assert train == 10

    def test_deterministic(self):
        samples = [InstanceSample(f"i{k}", "DS", "x", "y") for k in range(30)]
        assert assign_splits(samples, seed=9) == assign_splits(samples, seed=9)

    def test_bad_ratio(self):
        with pytest.raises(InvalidInput):
            assign_splits([], seed=0, ratio=(0, 1))


class TestMining:
    def _bundles(self, rng, n_inst=4, per_inst=3, dim=8):
        manifests = []
        vecs = {}
        for i in range(n_inst):
            center = rng.normal(size=dim)
            for j in range(per_inst):
                image_id = f"i{i}_img{j}"
                manifests.append(_manifest(image_id, f"i{i}"))
                vecs[image_id] = (center + 0.3 * rng.normal(size=dim)).astype(
                    np.float32
                ).reshape(1, -1)
        bundle = make_bundle("CLS", dim, vecs)
        return manifests, bundle

    def test_matches_brute_force(self, rng):
        for trial in range(20):
            manifests, bundle = self._bundles(rng)
            index = {m.image_id: m.instance_id for m in manifests}
            mined = mine_hard_negatives(bundle, bundle, manifests, k=3)
            for query_id, got in mined.items():
                q = bundle.items[query_id].astype(np.float64).ravel()
                scored = []
                for cand_id, arr in bundle.items.items():
                    if cand_id == query_id or index[cand_id] == index[query_id]:
                        continue
                    v = arr.astype(np.float64).ravel()
                    sim = float(q @ v / (np.linalg.norm(q) * np.linalg.norm(v)))
                    scored.append((-sim, cand_id))
                scored.sort()
                assert got == [cand_id for _, cand_id in scored[:3]], query_id

    def test_tie_break_is_ascending_id(self):
        vecs = {
            "q": np.array([[1.0, 0.0]], dtype=np.float32),
            "zz": np.array([[2.0, 0.0]], dtype=np.float32),
            "aa": np.array([[3.0, 0.0]], dtype=np.float32),
        }
        bundle = make_bundle("CLS", 2, vecs)
        manifests = [
            _manifest("q", "I0"),
            _manifest("zz", "I1"),
            _manifest("aa", "I2"),
        ]
        mined = mine_hard_negatives(bundle, bundle, manifests, k=2)
        assert mined["q"] == ["aa", "zz"]

    def test_equals_full_sort_oracle(self, rng):
        boundary_ties = 0
        for trial in range(40):
            # a few small-integer directions: many duplicated embeddings,
            # so exact ties fall at the k-th place
            base = rng.integers(-1, 2, size=(5, 3)).astype(np.float32)
            base[~base.any(axis=1)] = 1.0
            n = int(rng.integers(4, 25))
            vecs = {f"img{j:02d}": base[rng.integers(0, 5)].reshape(1, -1) for j in range(n)}
            manifests = [
                _manifest(i, f"inst{j if j < 2 else int(rng.integers(0, 4))}")
                for j, i in enumerate(vecs)
            ]
            bundle = make_bundle("CLS", 3, vecs)
            full = mine_hard_negatives_full_sort(bundle, bundle, manifests, k=n)
            for k in (1, 2, 3, n - 1, n, n + 3):
                want = mine_hard_negatives_full_sort(bundle, bundle, manifests, k=k)
                assert mine_hard_negatives(bundle, bundle, manifests, k=k) == want, (trial, k)
                boundary_ties += sum(
                    1
                    for ranked in full.values()
                    if k < len(ranked) and np.array_equal(vecs[ranked[k - 1]], vecs[ranked[k]])
                )
        assert boundary_ties > 100

    def test_same_instance_and_self_excluded(self, rng):
        manifests, bundle = self._bundles(rng, n_inst=2, per_inst=2)
        index = {m.image_id: m.instance_id for m in manifests}
        mined = mine_hard_negatives(bundle, bundle, manifests, k=10)
        for query_id, got in mined.items():
            assert query_id not in got
            assert all(index[n] != index[query_id] for n in got)
            assert len(got) == 2

    def test_no_candidates(self, rng):
        manifests = [_manifest("a", "X"), _manifest("b", "X")]
        vecs = {
            "a": rng.normal(size=(1, 4)).astype(np.float32),
            "b": rng.normal(size=(1, 4)).astype(np.float32),
        }
        bundle = make_bundle("CLS", 4, vecs)
        with pytest.raises(NoCandidates):
            mine_hard_negatives(bundle, bundle, manifests, k=1)

    def test_input_validation(self, rng):
        manifests, bundle = self._bundles(rng)
        other = make_bundle("CLS", 16, {"x": rng.normal(size=(1, 16)).astype(np.float32)})
        with pytest.raises(InvalidInput):
            mine_hard_negatives(bundle, other, manifests, k=1)
        with pytest.raises(InvalidInput):
            mine_hard_negatives(bundle, bundle, manifests, k=0)
        zero = make_bundle(
            "CLS", 4, {"z": np.zeros((1, 4), dtype=np.float32), "w": np.ones((1, 4), dtype=np.float32)}
        )
        zmans = [_manifest("z", "Z"), _manifest("w", "W")]
        with pytest.raises(InvalidInput):
            mine_hard_negatives(zero, zero, zmans, k=1)

    def test_mined_round_trip(self, tmp_path, rng):
        manifests, bundle = self._bundles(rng)
        mined = mine_hard_negatives(bundle, bundle, manifests, k=2)
        path = tmp_path / "mined.jsonl"
        save_mined(path, mined)
        assert load_mined(path) == mined

    @pytest.mark.parametrize(
        "row",
        [
            {"anchor": "a", "negatives": "abc"},
            {"anchor": "a", "negatives": ["b", 3]},
            {"anchor": "a"},
            {"anchor": 7, "negatives": ["b"]},
        ],
    )
    def test_malformed_mined_records_rejected(self, tmp_path, row):
        path = tmp_path / "mined.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError, match="mined.jsonl:1:"):
            load_mined(path)


def _triplet_corpus(n_inst=12):
    """Instances with real pairs, identity-preserving edits (even
    indices) and identity-altering edits (multiples of 3)."""
    manifests = []
    samples = []
    mined = {}
    for i in range(n_inst):
        inst = f"inst{i:02d}"
        a, p = f"{inst}_r0", f"{inst}_r1"
        manifests.append(_manifest(a, inst))
        manifests.append(_manifest(p, inst))
        other = f"inst{(i + 1) % n_inst:02d}_r0"
        samples.append(InstanceSample(inst, "MET", a, p))
        mined[a] = [other]
        if i % 2 == 0:
            manifests.append(_manifest(f"{inst}_e0", inst, subset="S2a"))
            manifests.append(_manifest(f"{inst}_e1", inst, subset="S2a"))
        if i % 3 == 0:
            manifests.append(
                _manifest(
                    f"{inst}_x0", f"{inst}_edit", subset="S2b", meta={SOURCE_INSTANCE_KEY: inst}
                )
            )
    return manifests, samples, mined


class TestBuildTriplets:
    def test_even_mix_quotas(self):
        manifests, samples, mined = _triplet_corpus()
        triplets, shortfall = build_triplets(samples, mined, manifests, total=9)
        assert shortfall == {}
        kinds = {"MINED_REAL": 0, "IDENTITY_EDIT": 0}
        for t in triplets:
            kinds[t.hard_negative_kind] += 1
        # 3 of the 9 are identity-edit negatives, the rest mined real
        assert kinds["IDENTITY_EDIT"] == 3
        assert len(triplets) == 9
        assert len(set(triplets)) == 9
        validate_triplets(triplets, manifest_index(manifests))

    def test_mined_negative_missing_from_manifests(self):
        manifests = [_manifest("a0", "A"), _manifest("a1", "A")]
        samples = [InstanceSample("A", "ds0", "a0", "a1")]
        with pytest.raises(MissingItem, match="ghost"):
            build_triplets(samples, {"a0": ["ghost"]}, manifests, mix=(1.0, 0.0, 0.0))

    def test_largest_remainder_tie_goes_to_declaration_order(self):
        manifests, samples, mined = _triplet_corpus()
        triplets, shortfall = build_triplets(samples, mined, manifests, total=10)
        assert shortfall == {}
        assert len(triplets) == 10
        edits = sum(1 for t in triplets if t.hard_negative_kind == "IDENTITY_EDIT")
        assert edits == 3  # quotas (4, 3, 3) by declaration order

    def test_real_only_mix(self):
        manifests, samples, mined = _triplet_corpus()
        triplets, shortfall = build_triplets(
            samples, mined, manifests, mix=(1.0, 0.0, 0.0), total=12
        )
        assert shortfall == {}
        for t in triplets:
            assert t.hard_negative_kind == "MINED_REAL"
            assert t.anchor.endswith("_r0") and t.positive.endswith("_r1")

    def test_s2a_positive_pairs_use_edits(self):
        manifests, samples, mined = _triplet_corpus()
        triplets, shortfall = build_triplets(
            samples, mined, manifests, mix=(0.0, 1.0, 0.0), total=6
        )
        assert shortfall == {}
        for t in triplets:
            assert t.hard_negative_kind == "MINED_REAL"
            assert "_e" in t.anchor or "_e" in t.positive

    def test_shortfall_reported_not_raised(self):
        manifests, samples, mined = _triplet_corpus(n_inst=4)
        # only ceil(4/3)=2 instances have identity-altering edits
        triplets, shortfall = build_triplets(
            samples, mined, manifests, mix=(0.0, 0.0, 1.0), total=4
        )
        assert len(triplets) == 2
        assert shortfall == {"S2B_NEGATIVE": 2}

    def test_deterministic_and_order_free(self):
        manifests, samples, mined = _triplet_corpus()
        t1, _ = build_triplets(samples, mined, manifests, total=9, seed=2)
        t2, _ = build_triplets(list(reversed(samples)), mined, manifests, total=9, seed=2)
        t3, _ = build_triplets(samples, mined, manifests, total=9, seed=3)
        assert t1 == t2
        assert t1 != t3

    def test_bad_mix_rejected(self):
        manifests, samples, mined = _triplet_corpus()
        with pytest.raises(InvalidInput):
            build_triplets(samples, mined, manifests, mix=(0.0, 0.0, 0.0))
        for mix in [(-1.0, 1.0, 1.0), (np.nan, 1.0, 1.0), (1.0, 1.0, np.inf), (1e308, 1e308, 1.0)]:
            with pytest.raises(InvalidInput):
                build_triplets(samples, mined, manifests, mix=mix)
        with pytest.raises(InvalidInput):
            build_triplets(samples, mined, manifests, total=-1)


class TestAggregateVotes:
    def test_strict_threshold_examples(self):
        recs = [
            VoteRecord("p1", (1, 1, 1, 1, 0)),
            VoteRecord("p2", tuple([1] * 13 + [0] * 3)),
            VoteRecord("p3", (0, 0, 1)),
        ]
        out = {s.pair_id: s for s in aggregate_votes(recs)}
        assert out["p1"].label == 0.8
        assert out["p1"].agreement == 0.8
        assert out["p1"].binary == 0  # strictly above 0.8 required
        assert out["p2"].label == 0.8125
        assert out["p2"].binary == 1
        assert abs(out["p3"].label - 1 / 3) < 1e-15
        assert abs(out["p3"].agreement - 2 / 3) < 1e-15
        assert out["p3"].binary == 0

    def test_sorted_by_pair_id(self):
        recs = [VoteRecord("z", (1,)), VoteRecord("a", (0,))]
        assert [s.pair_id for s in aggregate_votes(recs)] == ["a", "z"]

    def test_unanimous(self):
        out = aggregate_votes([VoteRecord("p", (1, 1, 1))])[0]
        assert out.label == 1.0
        assert out.agreement == 1.0
        assert out.binary == 1

    def test_invalid_votes(self):
        with pytest.raises(InvalidInput):
            aggregate_votes([VoteRecord("p", ())])
        with pytest.raises(InvalidInput):
            aggregate_votes([VoteRecord("p", (0, 2))])
        with pytest.raises(InvalidInput):
            aggregate_votes([VoteRecord("p", (1,))], threshold=1.5)
