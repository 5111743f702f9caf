"""Canonical JSON serialization, config hashing and the file primitives.

Reports must be byte-identical across reruns with the same inputs, so
everything funnels through one canonical encoder: sorted keys, compact
separators, no NaN/Infinity, a single trailing newline on disk.

Every loader and saver in the package reads and writes through the
helpers here: ``iter_jsonl``/``read_json`` turn unreadable or malformed
files into IoError/FormatError naming the path (and line), and every
writer goes through ``atomic_write``, so an interrupted or failed write
leaves the previous file untouched.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress

from ._version import __version__
from .errors import FormatError, InvalidInput, IoError

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    """Serialize ``obj`` to the canonical JSON text."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
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
    JSONL file; a line that is not a JSON object is a FormatError."""
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise FormatError(f"{path}:{lineno}: expected a JSON object")
                yield lineno, obj
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_json(path):
    """Parse a whole UTF-8 JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
