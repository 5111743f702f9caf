"""Dataset balancing, instance sampling, hard-negative mining, triplet
construction and annotation-vote aggregation.

The allocation procedure is the iterative redistribution the training
set was built with: each round splits the remaining budget equally
among datasets still in play (floor shares, remainder one-per-dataset
in ascending dataset_id order); datasets whose whole inventory fits
inside their share contribute everything and are frozen, and the
leftover budget is redistributed in the next round.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bundle import EmbeddingBundle
from .errors import (
    DuplicateId,
    FormatError,
    InsufficientInventory,
    InvalidInput,
    MissingItem,
    NoCandidates,
)
from .records import (
    SOURCE_INSTANCE_KEY,
    ImageManifest,
    Triplet,
    VoteRecord,
    _is_count,
    _require_str,
    manifest_index,
)
from .reporting import iter_jsonl, read_json, write_jsonl
from .rng import derived_rng

TRIPLET_KINDS = ("REAL_ONLY", "S2A_POSITIVE", "S2B_NEGATIVE")
S2A_PAIRING_MODES = ("EDITED_POSITIVE", "EDITED_ANCHOR", "BOTH_EDITED")


# ---------------------------------------------------------------------------
# inventory, filtering, allocation


def load_inventory(path) -> dict:
    """Inventory JSON: dataset_id -> count, or -> {"instances": n,
    "categories": {name: count, ...}} when category detail exists."""
    raw = read_json(path)
    if not isinstance(raw, dict) or not raw:
        raise FormatError(f"{path}: inventory must be a non-empty object")
    inv: dict = {}
    for name, val in raw.items():
        if _is_count(val, 1):
            inv[name] = val
        elif isinstance(val, dict):
            cats = val.get("categories")
            if cats is not None:
                if not isinstance(cats, dict) or not all(_is_count(c, 0) for c in cats.values()):
                    raise FormatError(f"{path}: bad categories for {name!r}")
            total = sum(cats.values()) if cats else None
            count = val.get("instances", total)
            if not _is_count(count, 1):
                raise FormatError(f"{path}: bad instance count for {name!r}")
            if total is not None and count != total:
                raise FormatError(
                    f"{path}: {name!r} has {count} instances but its categories sum to {total}"
                )
            inv[name] = {"instances": count, **({"categories": dict(cats)} if cats else {})}
        else:
            raise FormatError(f"{path}: bad inventory entry for {name!r}")
    return inv


def inventory_counts(inv: dict) -> dict[str, int]:
    return {
        name: (val if isinstance(val, int) else val["instances"]) for name, val in inv.items()
    }


def load_filter_rules(path) -> list[dict]:
    rules = read_json(path)
    if not isinstance(rules, list):
        raise FormatError(f"{path}: filter config must be a JSON array")
    for rule in rules:
        if not isinstance(rule, dict) or not isinstance(rule.get("dataset_id"), str):
            raise FormatError(f"{path}: each rule needs a string dataset_id and an action")
        if rule.get("action") not in ("drop", "drop_categories", "keep_categories"):
            raise FormatError(f"{path}: unknown action {rule.get('action')!r}")
        cats = rule.get("categories")
        if rule["action"] != "drop" and not (
            isinstance(cats, list) and all(isinstance(c, str) for c in cats)
        ):
            raise FormatError(f"{path}: {rule['action']} needs a categories list of strings")
    return rules


def apply_filters(inv: dict, rules: list[dict]) -> dict:
    """Apply declarative drop/keep rules, returning a new inventory."""
    out = {
        name: (dict(val) if isinstance(val, dict) else val) for name, val in inv.items()
    }
    for rule in rules:
        name = rule["dataset_id"]
        if name not in out:
            raise FormatError(f"filter rule names unknown dataset {name!r}")
        action = rule["action"]
        if action == "drop":
            del out[name]
            continue
        entry = out[name]
        if not isinstance(entry, dict) or "categories" not in entry:
            raise FormatError(f"dataset {name!r} has no category detail to filter")
        cats = entry["categories"]
        wanted = set(rule["categories"])
        missing = wanted - set(cats)
        if missing:
            raise FormatError(f"dataset {name!r} lacks categories {sorted(missing)}")
        if action == "keep_categories":
            kept = {c: n for c, n in cats.items() if c in wanted}
        else:
            kept = {c: n for c, n in cats.items() if c not in wanted}
        total = sum(kept.values())
        if total < 1:
            del out[name]
        else:
            out[name] = {"instances": total, "categories": kept}
    return out


def balanced_allocate(inv: dict, budget: int) -> dict[str, int]:
    """Iterative equal-share allocation with freezing, exact to the budget.

    Rounds divide the remaining budget equally (floor) among active
    datasets, remainder going one-per-dataset in ascending dataset_id;
    any active dataset whose inventory is at or under its round quota is
    frozen at its inventory and the round recomputes with what is left.
    """
    counts = inventory_counts(inv)
    if budget < 1:
        raise InvalidInput(f"budget must be positive, got {budget}")
    if any(c < 1 for c in counts.values()):
        raise InvalidInput("inventory counts must be >= 1")
    if sum(counts.values()) < budget:
        raise InsufficientInventory(
            f"inventory holds {sum(counts.values())} instances, budget is {budget}"
        )
    allocation: dict[str, int] = {}
    active = sorted(counts)
    remaining = budget
    while active and remaining > 0:
        share, extra = divmod(remaining, len(active))
        quotas = {
            name: share + (1 if i < extra else 0) for i, name in enumerate(active)
        }
        frozen = [name for name in active if counts[name] <= quotas[name]]
        if frozen:
            for name in frozen:
                allocation[name] = counts[name]
                remaining -= counts[name]
            active = [name for name in active if name not in frozen]
        else:
            for name in active:
                allocation[name] = quotas[name]
            remaining = 0
            active = []
    for name in counts:
        allocation.setdefault(name, 0)
    return allocation


# ---------------------------------------------------------------------------
# instance sampling and splits


@dataclass(frozen=True)
class InstanceSample:
    instance_id: str
    dataset_id: str
    anchor: str
    positive: str


def sample_instances(
    allocation: dict[str, int], manifests: list[ImageManifest], seed: int
) -> tuple[list[InstanceSample], dict[str, int]]:
    """Pick allocated instances per dataset and two distinct real images
    for each (anchor + positive), uniformly and deterministically.

    Instances with fewer than two S1 images are skipped and replaced
    from the same dataset when possible; exhaustion is reported in the
    returned shortfall map, not raised.
    """
    by_dataset: dict[str, dict[str, list[str]]] = {}
    for rec in manifests:
        if rec.subset != "S1":
            continue
        by_dataset.setdefault(rec.dataset_id, {}).setdefault(rec.instance_id, []).append(
            rec.image_id
        )

    samples: list[InstanceSample] = []
    shortfall: dict[str, int] = {}
    for dataset_id in sorted(allocation):
        want = allocation[dataset_id]
        if want == 0:
            continue
        instances = by_dataset.get(dataset_id, {})
        eligible = sorted(iid for iid, images in instances.items() if len(images) >= 2)
        rng = derived_rng(seed, "instances", dataset_id)
        perm = rng.permutation(len(eligible))
        chosen = [eligible[i] for i in perm[: min(want, len(eligible))]]
        if len(chosen) < want:
            shortfall[dataset_id] = want - len(chosen)
        for instance_id in chosen:
            images = sorted(instances[instance_id])
            pick = derived_rng(seed, "pair", instance_id).permutation(len(images))[:2]
            samples.append(
                InstanceSample(
                    instance_id=instance_id,
                    dataset_id=dataset_id,
                    anchor=images[pick[0]],
                    positive=images[pick[1]],
                )
            )
    samples.sort(key=lambda s: (s.dataset_id, s.instance_id))
    return samples, shortfall


def assign_splits(samples: list[InstanceSample], seed: int) -> dict[str, str]:
    """Instance-level train/val assignment, 10 : 1 per dataset.

    n_train = floor(10 * n / 11) per dataset, on a seeded shuffle of its
    instance ids.
    """
    by_dataset: dict[str, list[str]] = {}
    for s in samples:
        by_dataset.setdefault(s.dataset_id, []).append(s.instance_id)
    split: dict[str, str] = {}
    for dataset_id in sorted(by_dataset):
        ids = sorted(set(by_dataset[dataset_id]))
        rng = derived_rng(seed, "split", dataset_id)
        perm = rng.permutation(len(ids))
        n_train = len(ids) * 10 // 11
        for pos, idx in enumerate(perm):
            split[ids[idx]] = "train" if pos < n_train else "val"
    return split


def save_samples(path, samples: list[InstanceSample], split: dict[str, str] | None = None) -> None:
    """Selected-instance JSONL, one record per sampled instance."""
    write_jsonl(
        path,
        (
            {**asdict(s), **({"split": split[s.instance_id]} if split is not None else {})}
            for s in sorted(samples, key=lambda x: (x.dataset_id, x.instance_id))
        ),
    )


def load_samples(path) -> tuple[list[InstanceSample], dict[str, str]]:
    """Read a selected-instance file back; returns (samples, split map)."""
    samples: list[InstanceSample] = []
    split: dict[str, str] = {}
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        sample = InstanceSample(
            instance_id=_require_str(obj, "instance_id", path, lineno),
            dataset_id=_require_str(obj, "dataset_id", path, lineno),
            anchor=_require_str(obj, "anchor", path, lineno),
            positive=_require_str(obj, "positive", path, lineno),
        )
        if sample.instance_id in seen:
            raise DuplicateId(f"{path}:{lineno}: duplicate instance_id {sample.instance_id!r}")
        seen.add(sample.instance_id)
        samples.append(sample)
        if "split" in obj:
            split[sample.instance_id] = _require_str(obj, "split", path, lineno)
    return samples, split


def save_mined(path, mined: dict[str, list[str]]) -> None:
    write_jsonl(path, ({"anchor": a, "negatives": mined[a]} for a in sorted(mined)))


def load_mined(path) -> dict[str, list[str]]:
    mined: dict[str, list[str]] = {}
    for lineno, obj in iter_jsonl(path):
        negatives = obj.get("negatives")
        if not isinstance(negatives, list) or not all(isinstance(n, str) for n in negatives):
            raise FormatError(f"{path}:{lineno}: negatives must be an array of strings")
        anchor = _require_str(obj, "anchor", path, lineno)
        if anchor in mined:
            raise DuplicateId(f"{path}:{lineno}: duplicate anchor {anchor!r}")
        mined[anchor] = negatives
    return mined


# ---------------------------------------------------------------------------
# hard-negative mining

# floats that one mining step may hold (512 KiB): a block of query rows,
# its scores against the whole pool, and the pool rows of one matrix
# product each stay within it. So memory does not grow with the query
# count, and OpenBLAS packs at most this many pool floats per product.
# On the bench's 960 queries and 1,696 x 256 pool, 2^14 mined 10-30%
# slower, and 2^18 was faster but its traced peak was 1.5 MiB higher.
MINE_ELEMENTS = 1 << 16


def mine_hard_negatives(
    query_bundle: EmbeddingBundle,
    pool_bundle: EmbeddingBundle,
    manifests: list[ImageManifest],
    k: int = 1,
) -> dict[str, list[str]]:
    """Exact top-k cosine neighbors from a different instance, over two
    CLS bundles.

    Brute force over the full pool; ties broken by ascending image_id.
    Every query gets a list (length <= k); an empty eligible pool for
    any query raises NoCandidates. Queries are checked in sorted order,
    so the first bad query in that order raises.

    ``_ranked`` defines a query's list: one matrix-vector product of its
    unit row with the unit pool rows, ranked by (-score, image_id).
    Queries are screened in blocks, by one matrix product per block of
    queries and run of pool rows, and a product may sum in another order
    and move the last bits of a score. Whatever the order, a computed
    dot product x.y in d dims lies within gamma_d * sum_i |x_i y_i| of
    the exact one, with gamma_d = d*u / (1 - d*u) and u = 2**-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, §3.1). For unit rows the sum is at most about 1, so the
    screen's and ``_ranked``'s scores differ by at most 2 * gamma_d. A
    query keeps the screen's list only when its top k+1 scores are
    finite and each lies more than delta = 8 * d * eps (4x the
    4 * gamma_d needed) above the next: then ``_ranked`` gives the same
    k items in the same order. Any other query (exact or near ties, or
    no more than k eligible items) is ranked by ``_ranked`` itself. So
    the lists do not depend on the BLAS kernel, its tiling or its
    thread count.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if query_bundle.token_kind != "CLS" or pool_bundle.token_kind != "CLS":
        raise InvalidInput(
            f"mining needs CLS bundles, got {query_bundle.token_kind} and {pool_bundle.token_kind}"
        )
    if query_bundle.dim != pool_bundle.dim:
        raise InvalidInput(
            f"bundle dims differ: {query_bundle.dim} vs {pool_bundle.dim}"
        )
    index = manifest_index(manifests)

    def instance_of(image_id: str) -> str:
        if image_id not in index:
            raise MissingItem(f"image {image_id!r} not in manifests")
        return index[image_id].instance_id

    pool_ids = sorted(pool_bundle.items)
    pool_unit = pool_bundle.rows(pool_ids)
    n_pool, dim = pool_unit.shape
    # row norms a block of rows at a time: each row sums as in one call
    # over the whole pool, without a pool-sized squares temporary
    step = max(1, MINE_ELEMENTS // dim)
    norms = np.concatenate(
        [np.linalg.norm(pool_unit[lo : lo + step], axis=1) for lo in range(0, n_pool, step)]
    )
    if np.any(norms == 0.0):
        raise InvalidInput("zero-norm vector in pool bundle")
    pool_unit /= norms[:, None]
    # instances as integer codes; a pool item with the query's own id
    # has the query's instance, so one code comparison excludes it too
    inst_code: dict[str, int] = {}
    pool_code = np.array([inst_code.setdefault(instance_of(i), len(inst_code)) for i in pool_ids])
    n_same = np.bincount(pool_code)

    query_ids = sorted(query_bundle.items)
    rows = max(1, MINE_ELEMENTS // max(n_pool, dim))
    out: dict[str, list[str]] = {}
    for start in range(0, len(query_ids), rows):
        block = query_ids[start : start + rows]
        vecs = query_bundle.rows(block)
        qns, codes = np.empty(len(block)), []
        for r, query_id in enumerate(block):
            qns[r] = np.linalg.norm(vecs[r])
            if qns[r] == 0.0:
                raise InvalidInput(f"zero-norm query vector {query_id!r}")
            code = inst_code.get(instance_of(query_id), -1)
            if code >= 0 and n_same[code] == n_pool:
                raise NoCandidates(f"no different-instance pool items for {query_id!r}")
            codes.append(code)
        certified = np.zeros(len(block), dtype=bool)
        if k < n_pool:
            unit = vecs / qns[:, None]
            top, certified = _screen(unit, np.array(codes), pool_unit, pool_code, k)
        for r, query_id in enumerate(block):
            if certified[r]:
                order = top[r]
            else:
                order = _ranked(pool_unit, pool_code, codes[r], vecs[r] / qns[r], k)
            out[query_id] = [pool_ids[i] for i in order]
    return out


def _screen(
    unit: np.ndarray, codes: np.ndarray, pool_unit: np.ndarray, pool_code: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The top k pool indices of each unit query row (k < pool size), by
    matrix products, and whether ``_ranked`` must give that list."""
    n_pool, dim = pool_unit.shape
    neg = np.empty((len(unit), n_pool))
    step = max(1, MINE_ELEMENTS // dim)
    for c in range(0, n_pool, step):
        np.matmul(unit, pool_unit[c : c + step].T, out=neg[:, c : c + step])
    np.negative(neg, out=neg)
    neg[codes[:, None] == pool_code] = np.inf
    top = np.argpartition(neg, k, axis=1)[:, : k + 1]
    top_neg = np.take_along_axis(neg, top, axis=1)
    # a row whose list is kept has no equal scores, so this sorts it by
    # (-score, index)
    order = np.argsort(top_neg, axis=1)
    top = np.take_along_axis(top, order, axis=1)
    top_neg = np.take_along_axis(top_neg, order, axis=1)
    # gaps only where all k+1 are finite: inf - inf would warn
    finite = top_neg[:, -1] < np.inf
    gaps = np.diff(np.where(finite[:, None], top_neg, 0.0), axis=1)
    return top[:, :k], finite & np.all(gaps > 8 * dim * np.finfo(np.float64).eps, axis=1)


def _ranked(
    pool_unit: np.ndarray, pool_code: np.ndarray, code: int, u: np.ndarray, k: int
) -> np.ndarray:
    """The top k pool indices from an instance other than ``code`` for
    the unit query ``u``, by one matrix-vector product and a sort on
    (-score, index). When more than k items are eligible,
    ``np.partition`` finds the k-th best score and the stable sort runs
    over the items at or above it only, which gives the list a full
    stable sort gives, ties included."""
    sims = pool_unit @ u
    idx = np.flatnonzero(pool_code != code)
    neg = -sims[idx]
    if k < idx.size:
        keep = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
        idx, neg = idx[keep], neg[keep]
    # pool_ids is sorted, so a stable sort on -sims keeps id order on ties
    return idx[np.argsort(neg, kind="stable")[:k]]


# ---------------------------------------------------------------------------
# triplet construction


def _largest_remainder_quotas(mix: tuple[float, float, float], total: int) -> dict[str, int]:
    weights = np.asarray(mix, dtype=np.float64)
    # a NaN or infinite weight, or a sum that overflows, leaves a non-finite
    # sum; Python floats overflow to inf without numpy's RuntimeWarning
    total_weight = sum(weights.tolist())
    if weights.size != len(TRIPLET_KINDS) or np.any(weights < 0) or not 0 < total_weight < np.inf:
        raise InvalidInput(
            f"mix must be {len(TRIPLET_KINDS)} finite, non-negative weights, not all zero"
        )
    exact = weights / total_weight * total
    base = np.floor(exact).astype(int)
    leftover = total - int(base.sum())
    remainders = exact - base
    # ties: kind declaration order
    order = sorted(range(len(TRIPLET_KINDS)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return {kind: int(base[i]) for i, kind in enumerate(TRIPLET_KINDS)}


def build_triplets(
    samples: list[InstanceSample],
    mined: dict[str, list[str]],
    manifests: list[ImageManifest],
    mix: tuple[float, float, float] = (1.0, 1.0, 1.0),
    total: int | None = None,
    seed: int = 0,
) -> tuple[list[Triplet], dict[str, int]]:
    """Build triplets of the three kinds in the requested mix.

    REAL_ONLY: the sampled real pair with the mined nearest different-
    instance real image as negative. S2A_POSITIVE: one of three pairing
    modes (edited positive / edited anchor / both edited) drawn
    uniformly from the instance's identity-preserving edits, mined real
    negative. S2B_NEGATIVE: the real pair with an identity-altering
    edit of the same source instance as negative.

    Kind quotas use largest-remainder rounding of the mix over
    ``total`` (default one triplet per sample). Construction passes
    over the samples repeatedly until quotas fill; an exact triplet is
    never emitted twice, instances lacking the material for a kind are
    passed over, and unmet quotas come back in the shortfall map rather
    than raising.
    """
    total = len(samples) if total is None else total
    if total < 0:
        raise InvalidInput(f"total must be >= 0, got {total}")
    quotas = _largest_remainder_quotas(mix, total)
    index = manifest_index(manifests)

    s2a_by_instance: dict[str, list[str]] = {}
    s2b_by_source: dict[str, list[str]] = {}
    for rec in manifests:
        if rec.subset == "S2a":
            s2a_by_instance.setdefault(rec.instance_id, []).append(rec.image_id)
        elif rec.subset == "S2b":
            source = rec.edit_meta.get(SOURCE_INSTANCE_KEY)
            if isinstance(source, str):
                s2b_by_source.setdefault(source, []).append(rec.image_id)
    for lst in s2a_by_instance.values():
        lst.sort()
    for lst in s2b_by_source.values():
        lst.sort()

    def real_negatives(sample: InstanceSample) -> list[str]:
        negs = mined.get(sample.anchor, [])
        for n in negs:
            if n not in index:
                raise MissingItem(f"mined negative {n!r} of {sample.anchor!r} not in manifests")
        return [n for n in negs if index[n].subset != "S2b"]

    def feasible(sample: InstanceSample, kind: str) -> bool:
        if kind == "REAL_ONLY":
            return bool(real_negatives(sample))
        if kind == "S2A_POSITIVE":
            return bool(s2a_by_instance.get(sample.instance_id)) and bool(
                real_negatives(sample)
            )
        return bool(s2b_by_source.get(sample.instance_id))

    ordered = sorted(samples, key=lambda s: (s.dataset_id, s.instance_id))
    perm = derived_rng(seed, "triplet-order").permutation(len(ordered))
    ordered = [ordered[i] for i in perm]

    triplets: list[Triplet] = []
    seen: set[Triplet] = set()
    remaining = dict(quotas)
    round_no = 0
    while sum(remaining.values()) > 0:
        progress = False
        for sample in ordered:
            if sum(remaining.values()) == 0:
                break
            candidates = [
                kind for kind in TRIPLET_KINDS if remaining[kind] > 0 and feasible(sample, kind)
            ]
            # keep kinds balanced: prefer the largest outstanding quota
            candidates.sort(key=lambda c: (-remaining[c], TRIPLET_KINDS.index(c)))
            for kind in candidates:
                rng = derived_rng(seed, "build", round_no, kind, sample.instance_id)
                t = _make_triplet(sample, kind, rng, round_no, real_negatives, s2a_by_instance, s2b_by_source)
                if t in seen:
                    continue
                seen.add(t)
                triplets.append(t)
                remaining[kind] -= 1
                progress = True
                break
        round_no += 1
        if not progress:
            break
    return triplets, {k: v for k, v in remaining.items() if v > 0}


def _make_triplet(
    sample: InstanceSample,
    kind: str,
    rng: np.random.Generator,
    round_no: int,
    real_negatives,
    s2a_by_instance: dict[str, list[str]],
    s2b_by_source: dict[str, list[str]],
) -> Triplet:
    if kind == "S2B_NEGATIVE":
        edits = s2b_by_source[sample.instance_id]
        negative = edits[rng.integers(len(edits))]
        return Triplet(sample.anchor, sample.positive, negative, "IDENTITY_EDIT")

    negs = real_negatives(sample)
    negative = negs[round_no % len(negs)]
    if kind == "REAL_ONLY":
        return Triplet(sample.anchor, sample.positive, negative, "MINED_REAL")

    edits = s2a_by_instance[sample.instance_id]
    modes = list(S2A_PAIRING_MODES) if len(edits) >= 2 else ["EDITED_POSITIVE", "EDITED_ANCHOR"]
    mode = modes[rng.integers(len(modes))]
    if mode == "EDITED_POSITIVE":
        anchor, positive = sample.anchor, edits[rng.integers(len(edits))]
    elif mode == "EDITED_ANCHOR":
        anchor, positive = edits[rng.integers(len(edits))], sample.positive
    else:
        pick = rng.choice(len(edits), size=2, replace=False)
        anchor, positive = edits[pick[0]], edits[pick[1]]
    return Triplet(anchor, positive, negative, "MINED_REAL")


# ---------------------------------------------------------------------------
# vote aggregation


@dataclass(frozen=True)
class VoteSummary:
    pair_id: str
    label: float
    agreement: float
    binary: int


def aggregate_votes(records: list[VoteRecord], threshold: float = 0.8) -> list[VoteSummary]:
    """Per-pair continuous label, annotator agreement and strict binary label.

    label = mean of votes; agreement = max(p, 1-p); binary = 1 iff
    label > threshold (strictly, so a 4-of-5 pair stays negative at the
    0.8 default). Results are sorted by pair_id.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidInput(f"threshold must be in [0,1], got {threshold}")
    out: list[VoteSummary] = []
    for rec in sorted(records, key=lambda r: r.pair_id):
        if len(rec.votes) == 0:
            raise InvalidInput(f"pair {rec.pair_id!r} has no votes")
        if any(v not in (0, 1) for v in rec.votes):
            raise InvalidInput(f"pair {rec.pair_id!r} has non-binary votes")
        p = sum(rec.votes) / len(rec.votes)
        out.append(
            VoteSummary(
                pair_id=rec.pair_id,
                label=p,
                agreement=max(p, 1.0 - p),
                binary=1 if p > threshold else 0,
            )
        )
    return out
