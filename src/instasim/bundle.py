"""Embedding bundle container plus its binary file format.

A bundle stores float32 rows per image id. CLS bundles hold a single
row per item (the class token embedding); PATCH bundles hold a variable
number of token rows. Files are little-endian:

    magic       8 bytes  b"IDSIMEMB"
    version     u32      currently 1, future versions are rejected
    token_kind  u8       0 = CLS, 1 = PATCH
    dim         u32      embedding width, shared by every row
    n_items     u32
    n_items of: u16 id byte length, utf-8 id (non-empty), u32 row count
    payload     float32  all rows, concatenated in header order

Items are written in sorted-id order, so two logically equal bundles
serialize to identical bytes. Reading back a written bundle reproduces
every float bit-exactly.

In memory a bundle is one ``(rows, dim)`` matrix holding every item's
rows in item order, int64 row ``offsets`` (item ``p`` holds rows
``offsets[p]:offsets[p + 1]``) and an ``index`` from id to ``p``; a CLS
item's row is its ``p``. ``items`` and ``get`` give views into the
matrix, and ``rows`` gathers CLS items by index as float64, an exact
cast. ``read_bundle`` reads the file into one buffer and views the
payload in it as the matrix, with no copy, and ``make_bundle`` casts its
arrays into one matrix in sorted-id order, so both lay a bundle out as
its file and ``write_bundle`` writes their matrix in one call.
Finiteness is checked once per matrix.
"""
from __future__ import annotations

import os
import struct
from collections.abc import Mapping

import numpy as np

from .errors import CorruptBundle, FormatError, InvalidInput, IoError, MissingItem
from .reporting import atomic_write

MAGIC = b"IDSIMEMB"
FORMAT_VERSION = 1
TOKEN_KINDS = ("CLS", "PATCH")
_KIND_TO_BYTE = {"CLS": 0, "PATCH": 1}
_BYTE_TO_KIND = {v: k for k, v in _KIND_TO_BYTE.items()}
_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from


class EmbeddingBundle:
    """In-memory bundle: one matrix of every item's rows, row offsets
    and an id index (see the module docstring).

    Built from ``items`` (id -> rows), in their order, it keeps their
    dtype and checks only that each is a ``(rows, dim)`` block;
    ``make_bundle`` checks the rest and casts to float32. ``from_matrix``
    wraps a matrix without copying it.
    """

    def __init__(self, token_kind: str, dim: int, items: Mapping[str, np.ndarray] | None = None):
        items = items or {}
        blocks = [np.atleast_2d(a) for a in items.values()]
        for image_id, a in zip(items, blocks):
            if a.ndim != 2 or a.shape[1] != dim:
                raise InvalidInput(f"item {image_id!r} has shape {a.shape}, expected (*, {dim})")
        self.token_kind = token_kind
        self.dim = dim
        self.matrix = np.concatenate(blocks) if blocks else np.empty((0, dim), np.float32)
        self.offsets = np.cumsum([0, *map(len, blocks)], dtype=np.int64)
        self.index = dict(zip(items, range(len(blocks))))

    @classmethod
    def from_matrix(cls, token_kind: str, ids, matrix: np.ndarray, offsets=None) -> EmbeddingBundle:
        """The items ``ids`` over ``matrix``, in order; ``offsets``
        default to one row per item."""
        bundle = cls(token_kind, matrix.shape[1])
        bundle.matrix = matrix
        bundle.offsets = np.arange(len(ids) + 1) if offsets is None else offsets
        bundle.index = dict(zip(ids, range(len(ids))))
        return bundle

    @property
    def items(self) -> _Items:
        """id -> view of the item's rows; ``del`` drops an item from the
        index (its rows stay in the matrix, unreferenced)."""
        return _Items(self)

    def get(self, image_id: str) -> np.ndarray:
        try:
            p = self.index[image_id]
        except KeyError:
            raise MissingItem(f"bundle has no item {image_id!r}") from None
        return self.matrix[self.offsets[p] : self.offsets[p + 1]]

    def rows(self, ids) -> np.ndarray:
        """The CLS items ``ids``, in order, as float64 rows."""
        try:
            at = [self.index[image_id] for image_id in ids]
        except KeyError as exc:
            raise MissingItem(f"bundle has no item {exc.args[0]!r}") from None
        return self.matrix[self.offsets[at]].astype(np.float64)

    def row_index(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Matrix rows of the items ``ids``, in order, and each item's
        row count."""
        at = np.array([self.index[image_id] for image_id in ids], dtype=np.intp)
        starts = self.offsets[at]
        counts = self.offsets[at + 1] - starts
        firsts = np.cumsum(counts) - counts  # each item's first row in the result
        return np.arange(counts.sum()) + np.repeat(starts - firsts, counts), counts

    def __len__(self) -> int:
        return len(self.index)


class _Items(Mapping):
    """The ``items`` view of a bundle."""

    def __init__(self, bundle: EmbeddingBundle):
        self._bundle = bundle

    def __getitem__(self, image_id: str) -> np.ndarray:
        if image_id not in self._bundle.index:
            raise KeyError(image_id)
        return self._bundle.get(image_id)

    def __delitem__(self, image_id: str) -> None:
        del self._bundle.index[image_id]

    def __iter__(self):
        return iter(self._bundle.index)

    def __len__(self) -> int:
        return len(self._bundle.index)


def _check_kind_dim(token_kind: str, dim: int) -> None:
    if token_kind not in TOKEN_KINDS:
        raise InvalidInput(f"token_kind must be one of {TOKEN_KINDS}, got {token_kind!r}")
    if dim <= 0:
        raise InvalidInput(f"dim must be positive, got {dim}")


def _finite(a: np.ndarray) -> bool:
    """No NaN or infinity in ``a``. Its min and max propagate a NaN and
    hold any infinity, with no array-sized temporary."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _check_finite(ids: list[str], offsets: np.ndarray, matrix: np.ndarray) -> None:
    """InvalidInput naming the first item that holds a NaN or infinity."""
    if not _finite(matrix):
        row = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
        image_id = ids[int(np.searchsorted(offsets, row, side="right")) - 1]
        raise InvalidInput(f"item {image_id!r} contains non-finite values")


def make_bundle(token_kind: str, dim: int, items: dict[str, np.ndarray]) -> EmbeddingBundle:
    """Validate and coerce arrays to float32, returning a well-formed
    bundle over one new matrix in sorted-id order, laid out as its file."""
    _check_kind_dim(token_kind, dim)
    shaped: dict[str, np.ndarray] = {}
    for image_id, arr in items.items():
        if not isinstance(image_id, str) or not image_id:
            raise InvalidInput("item ids must be non-empty strings")
        a = np.asarray(arr)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2 or a.shape[1] != dim:
            raise InvalidInput(f"item {image_id!r} has shape {np.shape(arr)}, expected (*, {dim})")
        if a.shape[0] < 1:
            raise InvalidInput(f"item {image_id!r} has zero rows")
        if token_kind == "CLS" and a.shape[0] != 1:
            raise InvalidInput(f"CLS item {image_id!r} must have exactly 1 row, got {a.shape[0]}")
        shaped[image_id] = a
    ids = sorted(shaped)
    blocks = [shaped[image_id] for image_id in ids]
    # cast straight into the matrix: no float32 copy per item
    matrix = (
        np.concatenate(blocks, dtype=np.float32, casting="unsafe")
        if blocks
        else np.empty((0, dim), np.float32)
    )
    offsets = np.cumsum([0, *map(len, blocks)], dtype=np.int64)
    _check_finite(ids, offsets, matrix)
    return EmbeddingBundle.from_matrix(token_kind, ids, matrix, offsets)


def write_bundle(path, bundle: EmbeddingBundle) -> None:
    """Serialize a bundle. Raises InvalidInput on bad content, IoError on fs failure.

    The items go out in sorted-id order: the matrix itself when it holds
    exactly them in that order, else one gathered copy of their rows."""
    _check_kind_dim(bundle.token_kind, bundle.dim)
    if not all(isinstance(image_id, str) and image_id for image_id in bundle.index):
        raise InvalidInput("item ids must be non-empty strings")
    ids = sorted(bundle.index)
    n = len(ids)
    at = [bundle.index[image_id] for image_id in ids]
    if at == list(range(n)) and bundle.offsets[n] == len(bundle.matrix):
        payload, counts = bundle.matrix, np.diff(bundle.offsets[: n + 1])
    else:
        at, counts = bundle.row_index(ids)
        payload = bundle.matrix[at]
    if (counts < 1).any():
        raise InvalidInput(f"item {ids[int(np.argmax(counts < 1))]!r} has zero rows")
    if bundle.token_kind == "CLS" and (counts != 1).any():
        p = int(np.argmax(counts != 1))
        raise InvalidInput(f"CLS item {ids[p]!r} must have exactly 1 row, got {counts[p]}")
    payload = payload.astype("<f4", copy=False)
    _check_finite(ids, np.cumsum([0, *counts]), payload)
    kind = _KIND_TO_BYTE[bundle.token_kind]
    header = [MAGIC, struct.pack("<IBII", FORMAT_VERSION, kind, bundle.dim, len(ids))]
    for image_id, n_rows in zip(ids, counts.tolist()):
        raw = image_id.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise InvalidInput(f"item id too long ({len(raw)} bytes)")
        header.append(struct.pack("<H", len(raw)) + raw + struct.pack("<I", n_rows))
    with atomic_write(path, binary=True) as fh:
        fh.write(b"".join(header))
        fh.write(np.ascontiguousarray(payload).data)


def read_bundle(path) -> EmbeddingBundle:
    """Parse a bundle file, validating structure and payload.

    The file is read into one byte buffer, and the matrix is a view of
    it. When the header leaves the payload off a 4-byte boundary, the
    payload is read again into the buffer, up to 3 bytes further on."""
    try:
        with open(path, "rb") as fh:
            buf = np.empty(os.fstat(fh.fileno()).st_size + 3, dtype=np.uint8)
            size = fh.readinto(buf)
            token_kind, dim, index, offsets, off = _parse_header(path, memoryview(buf)[:size])
            shift = -off % 4
            if shift:
                fh.seek(off)
                fh.readinto(buf[off + shift : size + shift])
    except OSError as exc:
        raise IoError(f"cannot read bundle {path}: {exc}") from exc
    total_rows = int(offsets[-1])
    expected = total_rows * dim * 4
    if size - off != expected:
        raise CorruptBundle(f"{path}: payload is {size - off} bytes, header implies {expected}")
    matrix = buf[off + shift : size + shift].view("<f4").reshape(total_rows, dim)
    if not _finite(matrix):
        raise CorruptBundle(f"{path}: payload contains non-finite values")
    return EmbeddingBundle.from_matrix(token_kind, index, matrix, offsets)


def _parse_header(path, blob: memoryview):
    """``(token_kind, dim, index, offsets, payload offset)`` of a bundle file."""
    size = len(blob)
    if size < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a bundle file (bad magic)")
    (version,) = _U32(blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    off = len(MAGIC) + 4
    if off + 9 > size:
        raise CorruptBundle(f"{path}: truncated at byte {off}")
    kind_byte, dim, n_items = struct.unpack_from("<BII", blob, off)
    off += 9
    if kind_byte not in _BYTE_TO_KIND:
        raise CorruptBundle(f"{path}: unknown token kind byte {kind_byte}")
    token_kind = _BYTE_TO_KIND[kind_byte]
    if dim == 0:
        raise CorruptBundle(f"{path}: zero embedding dim")

    cls = token_kind == "CLS"
    index: dict[str, int] = {}
    counts: list[int] = []
    for p in range(n_items):
        if off + 2 > size:
            raise CorruptBundle(f"{path}: truncated at byte {off}")
        (id_len,) = _U16(blob, off)
        off += 2
        end = off + id_len
        if end > size:
            raise CorruptBundle(f"{path}: truncated at byte {off}")
        if not id_len:
            raise CorruptBundle(f"{path}: empty item id at byte {off - 2}")
        try:
            image_id = str(blob[off:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptBundle(f"{path}: undecodable item id") from exc
        if end + 4 > size:
            raise CorruptBundle(f"{path}: truncated at byte {end}")
        (n_rows,) = _U32(blob, end)
        off = end + 4
        if not n_rows:
            raise CorruptBundle(f"{path}: item {image_id!r} declares zero rows")
        if cls and n_rows != 1:
            raise CorruptBundle(f"{path}: CLS item {image_id!r} declares {n_rows} rows")
        if image_id in index:
            raise CorruptBundle(f"{path}: duplicate item id {image_id!r}")
        index[image_id] = p
        counts.append(n_rows)
    return token_kind, dim, index, np.cumsum([0, *counts], dtype=np.int64), off
