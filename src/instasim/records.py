"""Line-oriented record types: image manifests, triplets, pair labels, votes.

All four are JSONL files, one object per line, UTF-8. Loaders validate
eagerly and raise FormatError/DuplicateId so a bad file fails at the
door instead of mid-pipeline. Manifest meaning is order-independent;
only the set of records matters.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import DuplicateId, FormatError, InvalidInput
from .reporting import iter_jsonl, write_jsonl

SUBSETS = ("S1", "S2a", "S2b")
SPLITS = ("train", "val", "test")
HARD_NEGATIVE_KINDS = ("MINED_REAL", "IDENTITY_EDIT")

# S2b records use this edit_meta key to name the instance they were
# derived from; the triplet builder matches edits to sources through it.
SOURCE_INSTANCE_KEY = "source_instance"


@dataclass(frozen=True)
class ImageManifest:
    """One image's identity and provenance."""

    image_id: str
    instance_id: str
    dataset_id: str
    subset: str
    split: str
    edit_meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Triplet:
    anchor: str
    positive: str
    hard_negative: str
    hard_negative_kind: str


@dataclass(frozen=True)
class PairLabel:
    """A reference/candidate pair with a human label.

    ``label`` is either binary {0, 1} (verification) or an integer
    rating in [0, 4] (correlation protocols).
    """

    ref_id: str
    cand_id: str
    label: float


@dataclass(frozen=True)
class VoteRecord:
    pair_id: str
    votes: tuple[int, ...]


def _require(obj: dict, key: str, path, lineno: int) -> object:
    if key not in obj:
        raise FormatError(f"{path}:{lineno}: missing field {key!r}")
    return obj[key]


def _is_count(val, least: int) -> bool:
    """An integer (not a boolean) of at least ``least``."""
    return isinstance(val, int) and not isinstance(val, bool) and val >= least


def _require_str(obj: dict, key: str, path, lineno: int) -> str:
    val = _require(obj, key, path, lineno)
    if not isinstance(val, str) or not val:
        raise FormatError(f"{path}:{lineno}: field {key!r} must be a non-empty string")
    return val


def _check_edit_meta(meta: object, path, lineno: int) -> dict:
    if meta is None:
        return {}
    if not isinstance(meta, dict):
        raise FormatError(f"{path}:{lineno}: edit_meta must be an object")
    for key, val in meta.items():
        if not isinstance(key, str):
            raise FormatError(f"{path}:{lineno}: edit_meta keys must be strings")
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise FormatError(
                f"{path}:{lineno}: edit_meta[{key!r}] must be a string or number"
            )
    return dict(meta)


def load_manifest(path) -> list[ImageManifest]:
    """Load and validate an image manifest JSONL file."""
    records: list[ImageManifest] = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        image_id = _require_str(obj, "image_id", path, lineno)
        instance_id = _require_str(obj, "instance_id", path, lineno)
        dataset_id = _require_str(obj, "dataset_id", path, lineno)
        subset = _require_str(obj, "subset", path, lineno)
        split = _require_str(obj, "split", path, lineno)
        if subset not in SUBSETS:
            raise FormatError(f"{path}:{lineno}: unknown subset {subset!r}")
        if split not in SPLITS:
            raise FormatError(f"{path}:{lineno}: unknown split {split!r}")
        if image_id in seen:
            raise DuplicateId(f"{path}:{lineno}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        meta = _check_edit_meta(obj.get("edit_meta"), path, lineno)
        records.append(ImageManifest(image_id, instance_id, dataset_id, subset, split, meta))
    return records


def save_manifest(path, records: list[ImageManifest]) -> None:
    write_jsonl(
        path,
        (
            {
                "image_id": r.image_id,
                "instance_id": r.instance_id,
                "dataset_id": r.dataset_id,
                "subset": r.subset,
                "split": r.split,
                **({"edit_meta": r.edit_meta} if r.edit_meta else {}),
            }
            for r in records
        ),
    )


def manifest_index(records: list[ImageManifest]) -> dict[str, ImageManifest]:
    index: dict[str, ImageManifest] = {}
    for rec in records:
        if rec.image_id in index:
            raise DuplicateId(f"duplicate image_id {rec.image_id!r}")
        index[rec.image_id] = rec
    return index


def load_triplets(path) -> list[Triplet]:
    triplets: list[Triplet] = []
    for lineno, obj in iter_jsonl(path):
        kind = _require_str(obj, "hard_negative_kind", path, lineno)
        if kind not in HARD_NEGATIVE_KINDS:
            raise FormatError(f"{path}:{lineno}: unknown hard_negative_kind {kind!r}")
        triplets.append(
            Triplet(
                anchor=_require_str(obj, "anchor", path, lineno),
                positive=_require_str(obj, "positive", path, lineno),
                hard_negative=_require_str(obj, "hard_negative", path, lineno),
                hard_negative_kind=kind,
            )
        )
    return triplets


def save_triplets(path, triplets: list[Triplet]) -> None:
    write_jsonl(path, (asdict(t) for t in triplets))


def validate_triplets(triplets: list[Triplet], index: dict[str, ImageManifest]) -> None:
    """Check triplet invariants against a manifest index.

    Anchor and positive must share an instance and must not be identity
    edits; the hard negative must come from a different instance, and
    IDENTITY_EDIT negatives must be S2b images.
    """
    for t in triplets:
        for image_id in (t.anchor, t.positive, t.hard_negative):
            if image_id not in index:
                raise InvalidInput(f"triplet references unknown image {image_id!r}")
        a, p, n = index[t.anchor], index[t.positive], index[t.hard_negative]
        if a.instance_id != p.instance_id:
            raise InvalidInput(
                f"anchor {t.anchor!r} and positive {t.positive!r} are different instances"
            )
        if t.anchor == t.positive:
            raise InvalidInput(f"anchor and positive are the same image {t.anchor!r}")
        if a.subset == "S2b" or p.subset == "S2b":
            raise InvalidInput(f"anchor/positive of {t.anchor!r} must not be identity edits")
        if n.instance_id == a.instance_id:
            raise InvalidInput(
                f"hard negative {t.hard_negative!r} shares the anchor's instance"
            )
        if t.hard_negative_kind == "IDENTITY_EDIT" and n.subset != "S2b":
            raise InvalidInput(
                f"IDENTITY_EDIT negative {t.hard_negative!r} is not an S2b image"
            )
        if t.hard_negative_kind == "MINED_REAL" and n.subset == "S2b":
            raise InvalidInput(
                f"MINED_REAL negative {t.hard_negative!r} is an identity edit"
            )


def load_pair_labels(path) -> list[PairLabel]:
    pairs: list[PairLabel] = []
    for lineno, obj in iter_jsonl(path):
        ref_id = _require_str(obj, "ref_id", path, lineno)
        cand_id = _require_str(obj, "cand_id", path, lineno)
        label = _require(obj, "label", path, lineno)
        if isinstance(label, bool) or not isinstance(label, (int, float)):
            raise FormatError(f"{path}:{lineno}: label must be a number")
        if not 0.0 <= label <= 4.0:
            raise FormatError(f"{path}:{lineno}: label {label} outside [0, 4]")
        pairs.append(PairLabel(ref_id=ref_id, cand_id=cand_id, label=float(label)))
    return pairs


def save_pair_labels(path, pairs: list[PairLabel]) -> None:
    write_jsonl(path, (asdict(p) for p in pairs))


def load_votes(path) -> list[VoteRecord]:
    records: list[VoteRecord] = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        pair_id = _require_str(obj, "pair_id", path, lineno)
        votes = _require(obj, "votes", path, lineno)
        if not isinstance(votes, list) or not votes:
            raise FormatError(f"{path}:{lineno}: votes must be a non-empty array")
        for v in votes:
            if isinstance(v, bool) or v not in (0, 1):
                raise FormatError(f"{path}:{lineno}: votes must be 0 or 1")
        if pair_id in seen:
            raise DuplicateId(f"{path}:{lineno}: duplicate pair_id {pair_id!r}")
        seen.add(pair_id)
        records.append(VoteRecord(pair_id=pair_id, votes=tuple(int(v) for v in votes)))
    return records
