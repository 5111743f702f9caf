"""Canonical JSON serialization, config hashing and the file primitives.

Reports must be byte-identical across reruns with the same inputs, so
everything funnels through one canonical encoder: sorted keys, compact
separators, no NaN/Infinity, a single trailing newline on disk.

Every loader and saver in the package reads and writes through the
helpers here: ``iter_jsonl``/``read_json`` turn unreadable or malformed
files into IoError/FormatError naming the path (and line), and every
writer goes through ``atomic_write``, so an interrupted or failed write
leaves the previous file untouched. ``iter_jsonl`` decodes a file once
and parses each line with the C JSON scanner; a line the scanner does
not take as one whole object, and every line of a file that is not
valid UTF-8, falls back to ``json.loads`` on that line alone, so every
error keeps its ``path:lineno`` message.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress
from json.scanner import make_scanner

from ._version import __version__
from .errors import FormatError, InvalidInput, IoError

FORMAT_VERSION = 1
# the C scanner behind ``json.loads``: (text, index) -> (value, end)
_scan_once = make_scanner(json.JSONDecoder())
# the one canonical encoder; ``json.dumps`` with these arguments would
# build a new one per call
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj) -> str:
    """Serialize ``obj`` to the canonical JSON text."""
    try:
        return _canonical.encode(obj)
    except ValueError as exc:
        raise InvalidInput(f"report is not serializable: {exc}") from exc


def config_hash(params: dict) -> str:
    """Hash the semantic parameters of a run.

    Execution knobs (thread counts, file paths) must not be passed in:
    the hash identifies what was computed, not where or how fast.
    """
    return hashlib.sha256(canonical_json(params).encode("utf-8")).hexdigest()


def report_envelope(seed: int, params: dict) -> dict:
    """The versioning fields every report starts from."""
    return {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "seed": int(seed),
        "config_hash": config_hash(params),
    }


@contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a file open for writing that replaces ``path`` on success.

    The data goes to a sibling temp file, renamed over ``path`` only when
    the block finishes; on any failure the temp file is removed and the
    old ``path`` survives. OSError surfaces as IoError.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def write_json_report(path, obj) -> None:
    text = canonical_json(obj)
    with atomic_write(path) as fh:
        fh.write(text + "\n")


def write_jsonl(path, rows) -> None:
    """One canonical JSON object per line."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(canonical_json(row) + "\n")


def iter_jsonl(path):
    """Yield ``(lineno, object)`` for every non-blank line of a UTF-8
    JSONL file; a line that is not a JSON object is a FormatError.

    The file is read and decoded once, and split at line feeds only, as
    a binary line reader splits it (``str.splitlines`` would also break
    at U+0085 and U+2028, which JSON strings may hold). Each stripped,
    non-blank line goes through the C scanner, and is kept when its value
    is an object that ends at the line's end. Any other line, and every
    line of a file that is not valid UTF-8, goes through ``_parse_line``:
    ``json.loads`` on the line, whose error names ``path:lineno``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        lines = blob.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = blob.split(b"\n")
    del blob
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):  # _parse_line raises it
            end = -1
        if end != len(line) or not isinstance(obj, dict):
            obj = _parse_line(line, path, lineno)
        yield lineno, obj


def _parse_line(line: str, path, lineno: int) -> dict:
    """One stripped JSONL line, by ``json.loads``."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}:{lineno}: expected a JSON object")
    return obj


def read_json(path):
    """Parse a whole UTF-8 JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
