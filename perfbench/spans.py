"""Span recorder for the traced benchmark run, and the per-layer metrics.

Tracing wraps the public function of each layer by replacing the module
attribute its caller looks up (``sepcert.cli.certify_unique``,
``numpy.linalg.svd``, ...).  Each call becomes a span with a name, start,
end, parent span and the id of the CLI request it belongs to.  Spans stay in
memory and are written out once, when the traced pass ends.  Untraced passes
never import this module, so they run unpatched code.

A span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

import sepcert.certify
import sepcert.cli
import sepcert.hunter
from sepcert.families import OperatorFamily

CLI = "cli.main"
LOAD = "serialize.load_family"
EMIT = "serialize.emit"
CERTIFY = "certify.certify_unique"
GROUPED = "families.grouped_factors"
RANK = "linalg.numerical_rank"
SVD = "linalg.svd"
LSTSQ = "linalg.lstsq"
HUNT = "hunter.hunt_product"
RECOVER = "hunter.recover_product"


#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "certify.time_s": "s",
    "certify.self_s": "s",
    "certify.subsets": "count",
    "certify.eliminated_frac": "ratio",
    "certify.rank_calls_per_subset": "ratio",
    "families.side_build_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rank_s": "s",
    "linalg.rank_self_s": "s",
    "linalg.svd_calls": "count",
    "linalg.svd_s": "s",
    "linalg.svd_elems": "count",
    "linalg.lstsq_calls": "count",
    "linalg.lstsq_s": "s",
    "hunter.time_s": "s",
    "hunter.self_s": "s",
    "hunter.restarts": "count",
    "hunter.als_iters": "count",
    "hunter.iters_per_restart": "ratio",
    "hunter.recover_s": "s",
    "hunter.retries": "count",
    "hunter.novel_found": "count",
    "serialize.load_s": "s",
    "serialize.emit_s": "s",
    "serialize.emit_bytes": "bytes",
    "cli.self_s": "s",
}


class SpanRecorder:
    """Spans in column form; span ids are row indices, -1 means no parent."""

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, kwargs, result)``
        may return counters to add at this boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.request_id)
            self.end_ns.append(0)
            self._stack.append(span)
            self.start_ns.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_ns[span] = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "parent": self.parent,
            "request": self.request,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "counts": dict(self.counts),
        }


def _svd_count(args, kwargs, result):
    a = np.asarray(args[0])
    return {"svd_elems": int(np.prod(a.shape))}


def _certify_count(args, kwargs, cert):
    return {
        "subsets": cert.subsets_examined,
        "eliminated": cert.subsets_examined - len(cert.witnesses),
    }


def _hunt_count(args, kwargs, result):
    return {"restarts": result.restarts_used}


def _top_hunt_count(args, kwargs, result):
    return {
        "restarts": result.restarts_used,
        "novel_found": int(result.found and result.novel),
    }


@contextlib.contextmanager
def traced(rec: SpanRecorder):
    """Patch the layer boundaries to record into ``rec``; restore on exit."""
    patches = [
        (sepcert.cli, "main", CLI, None),
        (sepcert.cli, "load_family", LOAD, None),
        (sepcert.cli, "_emit", EMIT, None),
        (sepcert.cli, "certify_unique", CERTIFY, _certify_count),
        (OperatorFamily, "grouped_factors", GROUPED, None),
        (sepcert.certify, "numerical_rank", RANK, None),
        (np.linalg, "svd", SVD, _svd_count),
        (np.linalg, "lstsq", LSTSQ, None),
        # The CLI's reference sees each requested hunt, the module's own
        # reference its recursive re-hunts on the unpinned members.
        (sepcert.cli, "hunt_product", HUNT, _top_hunt_count),
        (sepcert.hunter, "hunt_product", HUNT, _hunt_count),
        (sepcert.hunter, "recover_product", RECOVER, None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, count in patches:
            setattr(owner, attr, rec.wrap(name, getattr(owner, attr), count))
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: dict) -> list[int]:
    """Per span, its duration minus the union of its children's intervals (ns)."""
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    children: dict[int, list[int]] = defaultdict(list)
    for span, p in enumerate(parent):
        if p >= 0:
            children[p].append(span)
    out = []
    for span in range(len(start)):
        covered = 0
        reach = start[span]
        for child in sorted(children.get(span, ()), key=start.__getitem__):
            lo, hi = max(start[child], reach), min(end[child], end[span])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[span] - start[span] - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, emit_bytes: int) -> dict[str, float]:
    """Per-layer totals for one traced pass, keyed by benchmark metric name."""
    names, parent = spans["names"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start_ns"], spans["end_ns"])]
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    hunt_top = 0.0
    retries = 0
    for span, name in enumerate(names):
        total[name] += dur[span] * 1e-9
        self_[name] += own[span] * 1e-9
        calls[name] += 1
        if name == HUNT:
            p = parent[span]
            while p >= 0 and names[p] != HUNT:
                p = parent[p]
            if p >= 0:
                retries += 1
            else:
                hunt_top += dur[span] * 1e-9
    counts = spans["counts"]
    subsets = counts.get("subsets", 0)
    restarts = counts.get("restarts", 0)
    return {
        "certify.time_s": total[CERTIFY],
        "certify.self_s": self_[CERTIFY],
        "certify.subsets": subsets,
        "certify.eliminated_frac": _ratio(counts.get("eliminated", 0), subsets),
        "certify.rank_calls_per_subset": _ratio(calls[RANK], subsets),
        "families.side_build_s": total[GROUPED],
        "linalg.rank_calls": calls[RANK],
        "linalg.rank_s": total[RANK],
        "linalg.rank_self_s": self_[RANK],
        "linalg.svd_calls": calls[SVD],
        "linalg.svd_s": total[SVD],
        "linalg.svd_elems": counts.get("svd_elems", 0),
        "linalg.lstsq_calls": calls[LSTSQ],
        "linalg.lstsq_s": total[LSTSQ],
        "hunter.time_s": hunt_top,
        "hunter.self_s": self_[HUNT],
        "hunter.restarts": restarts,
        "hunter.als_iters": calls[RECOVER],
        "hunter.iters_per_restart": _ratio(calls[RECOVER], restarts),
        "hunter.recover_s": total[RECOVER],
        "hunter.retries": retries,
        "hunter.novel_found": counts.get("novel_found", 0),
        "serialize.load_s": total[LOAD],
        "serialize.emit_s": total[EMIT],
        "serialize.emit_bytes": emit_bytes,
        "cli.self_s": self_[CLI],
    }
