"""Deterministic random stream derivation.

Every stochastic choice in the package draws from a generator obtained
here, so a single integer seed pins the whole pipeline. Streams are
derived by hashing the seed together with a string label path, which
keeps independent stages decoupled: adding draws to one stage never
shifts another stage's stream.
"""
from __future__ import annotations

import hashlib

import numpy as np


def derived_rng(seed: int, *labels: object) -> np.random.Generator:
    """Return a Generator for the stream named by ``labels`` under ``seed``.

    The derivation is sha256 over a canonical byte encoding, so it is
    stable across platforms and process invocations.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("ascii"))
    for label in labels:
        h.update(b"\x1f")
        h.update(str(label).encode("utf-8"))
    digest = h.digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "little"))
