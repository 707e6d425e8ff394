"""Out-of-process tracing: wrap public ``sei`` functions where callers look them up.

A ``Tracer`` replaces a module attribute with a wrapper that records one span
(name, start, end, parent span id) per call and adds record counts taken
from the arguments and the result.  Spans stay in memory until the caller
writes them out.  Nothing inside ``sei`` changes; a name a module no longer
has is skipped, so the layer simply reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable


def _loaded(result) -> dict:
    return {"records_out": len(result)}


def _filtered(result) -> dict:
    kept, dropped = result
    return {"kept": len(kept), "dropped": len(dropped)}


def _hits(result) -> dict:
    return {"hits_out": len(result.hits)}


# layer metric prefix -> ("module:attribute" names it is looked up by, count hook)
WRAPS: dict[str, tuple[tuple[str, ...], Callable | None]] = {
    "cli.main": (("sei.cli:main",), None),
    "pipeline.run_pipeline": (("sei.cli:run_pipeline",), None),
    "pipeline.sha256_file": (("sei.pipeline:sha256_file",), None),
    "pipeline.read_generated": (("sei.pipeline:read_generated",), None),
    "pipeline.score_from_files": (("sei.pipeline:score_from_files",), None),
    "pipeline.fuse_demo_result": (("sei.pipeline:fuse_demo_result",), None),
    "corpus.load_corpus": (("sei.pipeline:load_corpus",), _loaded),
    "corpus.load_embeddings": (("sei.pipeline:load_embeddings",), _loaded),
    "corpus.filter_corpus": (("sei.pipeline:filter_corpus",), _filtered),
    "corpus.save_corpus": (("sei.pipeline:save_corpus",), None),
    "see.see_extract": (("sei.pipeline:see_extract",), None),
    "indications.normalize_indication": (("sei.pipeline:normalize_indication",), None),
    "retrieval.build_index": (("sei.pipeline:build_index",), None),
    "retrieval.save_index": (("sei.pipeline:save_index",), None),
    "retrieval.load_index": (("sei.pipeline:load_index", "sei.retrieval:load_index"), None),
    "retrieval.attach_shc": (("sei.pipeline:attach_shc",), _loaded),
    "retrieval.top_k": (("sei.retrieval:top_k",), _hits),
    "metrics.score_corpus": (("sei.pipeline:score_corpus",), None),
    "metrics.corpus_bleu": (("sei.metrics:corpus_bleu",), None),
    "metrics.rouge_l": (("sei.metrics:rouge_l",), None),
    "metrics.micro_f1": (("sei.metrics:micro_f1",), None),
    "metrics.entity_f1": (("sei.metrics:entity_f1",), None),
    "losses.total_alignment_loss_grad": (("sei.losses:total_alignment_loss_grad",), None),
    "losses.global_alignment_loss_grad": (("sei.losses:global_alignment_loss_grad",), None),
    "losses.local_alignment_loss_grad": (("sei.losses:local_alignment_loss_grad",), None),
    "losses.nll_loss_grad": (("sei.losses:nll_loss_grad",), None),
    "fusion.fuse": (("sei.fusion:fuse", "sei.pipeline:fuse"), None),
    "fusion.fuse_backward": (("sei.fusion:fuse_backward", "sei.pipeline:fuse_backward"), None),
}
# Loaders whose first argument is an input file; their parses are set against
# the number of distinct files they read.
PARSERS = ("corpus.load_corpus", "corpus.load_embeddings")


class Tracer:
    """Span recorder for one process; ``install`` patches, ``restore`` undoes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.inputs: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self.clock(), None, self._stack[-1] if self._stack else None]
            self.counts[f"{name}.calls"] += 1
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = self.clock()
            if name in PARSERS and args:
                self.inputs.add(str(args[0]))
            if count is not None:
                for key, value in count(result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self, wraps: dict = WRAPS) -> None:
        for name, (targets, count) in wraps.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, count))

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
        Path(path).write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}), encoding="utf-8")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _union_length(children.get(i, []))
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """``<name>.s`` (time inside the outermost span of each name) and ``<name>.self_s``."""
    totals: Counter = Counter()
    for i, ((name, start, end, parent), own) in enumerate(zip(spans, self_times(spans))):
        totals[f"{name}.self_s"] += own
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            totals[f"{name}.s"] += end - start
    return dict(totals)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts, plus the parse ratio of the corpus loaders."""
    out: dict[str, float] = dict(layer_totals(tracer.spans))
    out.update(tracer.counts)
    parses = sum(tracer.counts[f"{name}.calls"] for name in PARSERS)
    out["corpus.parses_per_input"] = parses / len(tracer.inputs) if tracer.inputs else 0.0
    return out


def known_metric(name: str) -> bool:
    """Whether ``name`` is something ``layer_metrics`` can report (0 when the layer idles)."""
    if name in ("corpus.parses_per_input", "trace.overhead_frac"):
        return True
    prefix, _, _ = name.rpartition(".")
    return prefix in WRAPS
