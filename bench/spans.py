"""Span recorder for the traced benchmark run.

``tracing(recorder)`` wraps every public function of the package's
layer modules at each name a caller resolves: the defining module's
global (so calls inside the module are seen) and every other
``instasim`` module that imported it by name (``instasim.cli.read_bundle``,
``instasim.losses.divergence_grad``, ``instasim.sensitivity.similarity``
and so on). Each call appends one span to the recorder's in-memory list;
nothing is written until the caller asks for it. Leaving the context
restores the original functions, so traced and untraced repetitions
can alternate in one process.

A span's self time is its duration minus the durations of its child
spans. Calls are single-threaded and nested, so children never overlap
and their durations add up to the time they cover.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "bundle", "records", "curation", "heads", "losses", "trainer",
    "sinkhorn", "protocols", "metrics", "sensitivity", "reporting",
)

# Leaf helpers called once per vector or matrix inside the functions that
# are traced; a span would cost about as much as the call it measures.
# Their time shows up as self time of the caller.
SKIP = frozenset({
    "metrics.cosine_similarity", "metrics.triplet_correct", "heads.gelu", "heads.gelu_grad",
})


def _sinkhorn_counts(result, args, kwargs):
    return {"iters": result.iterations, "unconverged": int(not result.converged)}


def _grad_counts(result, args, kwargs):
    return {"unconverged": int(not result[3])}


def _file_bytes(result, args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


# Counts taken from a call's return value or arguments, per span name.
COUNTS = {
    "sinkhorn.sinkhorn_divergence": _sinkhorn_counts,
    "sinkhorn.divergence_grad": _grad_counts,
    "bundle.read_bundle": _file_bytes,
    "bundle.write_bundle": _file_bytes,
}


class Recorder:
    """Spans as ``[name, parent_index, start, end, counts]`` lists, plus
    the distinct pairs ``protocols.similarity`` was asked to score."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pairs: set[tuple] = set()

    def _open(self, name: str) -> list:
        span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around harness code, such as one CLI stage."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn) if name == "protocols.similarity" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[4] = count(result, args, kwargs)
            if signature is not None:
                # similarity is symmetric; a pair is its two ids in one bundle kind
                if len(args) < 3:
                    args = signature.bind(*args, **kwargs).args
                x, y, bundle = args[:3]
                self.pairs.add((bundle.token_kind, bundle.dim, min(x, y), max(x, y)))
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        self_s = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                self_s[s[1]] -= s[3] - s[2]
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self_s):
            agg = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s[3] - s[2]
            agg["self_s"] += own
            for key, val in (s[4] or {}).items():
                agg[key] = agg.get(key, 0) + val
        if "protocols.similarity" in out:
            out["protocols.similarity"]["distinct_pairs"] = len(self.pairs)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: index, name, parent index, start, end, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, counts) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, t0, t1, counts]) + "\n")


def _targets():
    """(span name, function) for every traced public layer function."""
    for layer in LAYERS:
        mod = sys.modules[f"instasim.{layer}"]
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            yield name, fn


@contextmanager
def tracing(recorder: Recorder):
    """Route every traced function through ``recorder`` while active.
    The package's modules must already be imported."""
    modules = [m for n, m in sys.modules.items() if n == "instasim" or n.startswith("instasim.")]
    patched = []
    for name, fn in list(_targets()):
        wrapper = recorder.wrap(name, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)
