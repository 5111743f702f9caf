"""Embedding bundle container plus its binary file format.

A bundle stores one float32 matrix per image id. CLS bundles hold a
single row per item (the class token embedding); PATCH bundles hold a
variable number of token rows. Files are little-endian:

    magic       8 bytes  b"IDSIMEMB"
    version     u32      currently 1, future versions are rejected
    token_kind  u8       0 = CLS, 1 = PATCH
    dim         u32      embedding width, shared by every row
    n_items     u32
    n_items of: u16 id byte length, utf-8 id, u32 row count
    payload     float32  all rows, concatenated in header order

Items are written in sorted-id order, so two logically equal bundles
serialize to identical bytes. Reading back a written bundle reproduces
every float bit-exactly.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptBundle, FormatError, InvalidInput, IoError, MissingItem
from .reporting import atomic_write

MAGIC = b"IDSIMEMB"
FORMAT_VERSION = 1
TOKEN_KINDS = ("CLS", "PATCH")
_KIND_TO_BYTE = {"CLS": 0, "PATCH": 1}
_BYTE_TO_KIND = {v: k for k, v in _KIND_TO_BYTE.items()}


@dataclass
class EmbeddingBundle:
    """In-memory bundle: ``items`` maps image id to a (rows, dim) float32 array."""

    token_kind: str
    dim: int
    items: dict[str, np.ndarray] = field(default_factory=dict)

    def get(self, image_id: str) -> np.ndarray:
        try:
            return self.items[image_id]
        except KeyError:
            raise MissingItem(f"bundle has no item {image_id!r}") from None

    def __len__(self) -> int:
        return len(self.items)


def make_bundle(token_kind: str, dim: int, items: dict[str, np.ndarray]) -> EmbeddingBundle:
    """Validate and coerce arrays to float32, returning a well-formed bundle."""
    if token_kind not in TOKEN_KINDS:
        raise InvalidInput(f"token_kind must be one of {TOKEN_KINDS}, got {token_kind!r}")
    if dim <= 0:
        raise InvalidInput(f"dim must be positive, got {dim}")
    coerced: dict[str, np.ndarray] = {}
    for image_id, arr in items.items():
        if not isinstance(image_id, str) or not image_id:
            raise InvalidInput("item ids must be non-empty strings")
        a = np.asarray(arr, dtype=np.float32)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2 or a.shape[1] != dim:
            raise InvalidInput(
                f"item {image_id!r} has shape {np.asarray(arr).shape}, expected (*, {dim})"
            )
        if a.shape[0] < 1:
            raise InvalidInput(f"item {image_id!r} has zero rows")
        if token_kind == "CLS" and a.shape[0] != 1:
            raise InvalidInput(f"CLS item {image_id!r} must have exactly 1 row, got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise InvalidInput(f"item {image_id!r} contains non-finite values")
        coerced[image_id] = a
    return EmbeddingBundle(token_kind=token_kind, dim=dim, items=coerced)


def write_bundle(path, bundle: EmbeddingBundle) -> None:
    """Serialize a bundle. Raises InvalidInput on bad content, IoError on fs failure."""
    checked = make_bundle(bundle.token_kind, bundle.dim, bundle.items)
    ids = sorted(checked.items)
    header = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    header.append(struct.pack("<B", _KIND_TO_BYTE[checked.token_kind]))
    header.append(struct.pack("<II", checked.dim, len(ids)))
    for image_id in ids:
        raw = image_id.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise InvalidInput(f"item id too long ({len(raw)} bytes)")
        header.append(struct.pack("<H", len(raw)))
        header.append(raw)
        header.append(struct.pack("<I", checked.items[image_id].shape[0]))
    with atomic_write(path, binary=True) as fh:
        fh.write(b"".join(header))
        for image_id in ids:
            fh.write(checked.items[image_id].astype("<f4", copy=False).tobytes())


def read_bundle(path) -> EmbeddingBundle:
    """Parse a bundle file, validating structure and payload."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read bundle {path}: {exc}") from exc

    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a bundle file (bad magic)")
    off = len(MAGIC)
    (version,) = struct.unpack_from("<I", blob, off)
    off += 4
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")

    def need(n: int) -> int:
        if off + n > len(blob):
            raise CorruptBundle(f"{path}: truncated at byte {off}")
        return off + n

    off_end = need(1 + 4 + 4)
    kind_byte, dim, n_items = struct.unpack_from("<BII", blob, off)
    off = off_end
    if kind_byte not in _BYTE_TO_KIND:
        raise CorruptBundle(f"{path}: unknown token kind byte {kind_byte}")
    token_kind = _BYTE_TO_KIND[kind_byte]
    if dim == 0:
        raise CorruptBundle(f"{path}: zero embedding dim")

    ids: list[str] = []
    rows: list[int] = []
    seen: set[str] = set()
    for _ in range(n_items):
        off_end = need(2)
        (id_len,) = struct.unpack_from("<H", blob, off)
        off = off_end
        off_end = need(id_len)
        try:
            image_id = blob[off:off_end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptBundle(f"{path}: undecodable item id") from exc
        off = off_end
        off_end = need(4)
        (n_rows,) = struct.unpack_from("<I", blob, off)
        off = off_end
        if n_rows < 1:
            raise CorruptBundle(f"{path}: item {image_id!r} declares zero rows")
        if token_kind == "CLS" and n_rows != 1:
            raise CorruptBundle(f"{path}: CLS item {image_id!r} declares {n_rows} rows")
        if image_id in seen:
            raise CorruptBundle(f"{path}: duplicate item id {image_id!r}")
        seen.add(image_id)
        ids.append(image_id)
        rows.append(n_rows)

    total_rows = sum(rows)
    expected = total_rows * dim * 4
    if len(blob) - off != expected:
        raise CorruptBundle(
            f"{path}: payload is {len(blob) - off} bytes, header implies {expected}"
        )
    flat = np.frombuffer(blob, dtype="<f4", count=total_rows * dim, offset=off)
    if not np.all(np.isfinite(flat)):
        raise CorruptBundle(f"{path}: payload contains non-finite values")

    items: dict[str, np.ndarray] = {}
    cursor = 0
    for image_id, n_rows in zip(ids, rows):
        block = flat[cursor : cursor + n_rows * dim]
        items[image_id] = block.reshape(n_rows, dim).copy()
        cursor += n_rows * dim
    return EmbeddingBundle(token_kind=token_kind, dim=int(dim), items=items)
