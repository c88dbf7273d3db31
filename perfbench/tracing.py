"""Spans around each layer's public calls, recorded from outside.

The traced run wraps methods on the benchmark's own instances — the
server's executor, each tenant's QWorker, the inference pipeline, the
embedder, the classifiers, the router, the backends and the
provisioner — so nothing under ``src/`` changes. A span records its
name, start, end, parent span and request id. The request id rides in
each query's ``timestamp`` (the load generator stamps it); the label
stage reads it from there, the dispatch stage from the labeled batch
it receives, and every span opened further down the same thread
inherits it.

Spans are wall-clock intervals: with the GIL, a span includes time
its thread waited for the interpreter lock. They stay in memory until
the run ends. :func:`analyse` turns them into per-request layer self
times (a span's duration minus the part its child spans cover) and
checks that, per request, the self times of every layer sum to the
latency the client measured. That per-request sum balances by
construction — the server's share is whatever no span covers — so
:func:`busy_between` gives the check that can fail: the label and
dispatch time the spans add up to over a phase, set against the
executor's own per-lane stage clocks in its ``stats()``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from repro.backends import LatencyProxyBackend

clock = time.perf_counter

LABEL, DISPATCH = "label", "dispatch"  # QWorker's two stages
LABEL_WAIT, HANDOFF_WAIT = "executor.label_wait", "executor.handoff_wait"
# each span's layer; "server" is whatever part of a request's latency
# no span covers (wire, framing, event loop, future hand-backs)
LAYER_OF = {
    LABEL_WAIT: "executor",
    HANDOFF_WAIT: "executor",
    LABEL: "qworker",
    DISPATCH: "qworker",
    "pipeline": "pipeline",
    "embedding": "embedding",
    "ml": "ml",
    "router": "router",
    "latency": "latency",
    "minidb": "minidb",
    "forecast": "forecast",
}
# per request, |sum of layer self times - latency| must stay within
# this share of the latency
ACCOUNTING_TOLERANCE = 0.01
# over a phase, the traced label (dispatch) time must match the
# executor's own label (dispatch) seconds within this share
STAGE_TOLERANCE = 0.05


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    rid: int | None
    start: float
    end: float
    rows: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.offers: dict[int, float] = {}  # first try_submit per request
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch_rid: dict[int, int] = {}  # id(labeled batch) -> request

    # -- recording -------------------------------------------------------------

    def _wrap(self, obj, attr: str, name: str, rid_in=None, rows_of=None) -> None:
        inner = getattr(obj, attr)
        local = self._local
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            if rid_in is not None:
                local.rid = rid_in(*args)
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows = rows_of(*args) if rows_of is not None else 0
                spans.append(
                    Span(sid, parent, name, getattr(local, "rid", None), start, end, rows)
                )
            if name == LABEL:
                self._batch_rid[id(result)] = local.rid
            return result

        setattr(obj, attr, traced)

    def install(self, deployment) -> None:
        """Wrap every layer of a running deployment (takes effect for
        calls that start after this returns)."""
        executor = deployment.executor
        submit = executor.try_submit
        offers = self.offers

        def try_submit(application, batch):
            # the server hands the request id over as the batch's time step
            offers.setdefault(batch.time_step, clock())
            return submit(application, batch)

        executor.try_submit = try_submit
        service = deployment.service
        for app in service.application_names():
            worker = service.application(app).worker
            self._wrap(
                worker,
                "label_batch_columnar",
                LABEL,
                rid_in=lambda batch, *_: int(batch[0].labels["timestamp"]),
            )
            self._wrap(
                worker,
                "dispatch_labeled",
                DISPATCH,
                rid_in=lambda batch, *_: self._batch_rid.pop(id(batch), None),
            )
        self._wrap(service.runtime, "run_columnar", "pipeline")
        self._wrap(
            deployment.embedder, "transform", "embedding",
            rows_of=lambda queries: len(queries),
        )
        for classifier in deployment.classifiers:
            self._wrap(
                classifier, "predict_vectors", "ml",
                rows_of=lambda vectors: len(vectors),
            )
        self._wrap(service.router, "dispatch", "router")
        for backend in deployment.backends.values():
            if isinstance(backend, LatencyProxyBackend):
                self._wrap(backend, "execute_templated", "latency")
                backend = backend.inner
            self._wrap(
                backend, "execute_templated", "minidb",
                rows_of=lambda queries, *_: len(queries),
            )
        if deployment.provisioner is not None:
            self._wrap(deployment.provisioner, "tick", "forecast")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def busy_between(tracer: Tracer, name: str, lo: float, hi: float) -> float:
    """Summed duration of the ``name`` spans that ended in ``[lo, hi)``
    — the executor adds a stage's time to its counters as it ends."""
    return sum(s.end - s.start for s in tracer.spans if s.name == name and lo <= s.end < hi)


def peak_concurrency(tracer: Tracer, name: str, lo: float, hi: float) -> int:
    """The most ``name`` spans open at once within ``[lo, hi)``: the
    stage's worker occupancy high-water mark over that window."""
    events = []
    for s in tracer.spans:
        if s.name == name and s.start < hi and s.end >= lo:
            events += [(s.start, 1), (s.end, -1)]
    peak = open_now = 0
    for _, step in sorted(events):  # at a tie an end sorts before a start
        open_now += step
        peak = max(peak, open_now)
    return peak


def analyse(tracer: Tracer, requests: dict) -> dict:
    """Layer self times for ``requests`` (rid -> (sent, replied)).

    Returns ``self_seconds`` per layer, ``busy_seconds`` and ``rows``
    per span name (summed over the requests), per-request arrays of
    the server's self time and the two executor waits, and
    ``accounting``: requests checked, how many balance within
    :data:`ACCOUNTING_TOLERANCE`, the worst relative error, and how
    many requests lacked a label or dispatch span.
    """
    by_rid: dict[int, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.rid in requests:
            by_rid[span.rid].append(span)
    self_seconds: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    rows: dict[str, int] = defaultdict(int)
    per_request: dict[str, list] = defaultdict(list)
    errors, incomplete = [], 0
    for rid, (sent, replied) in requests.items():
        spans = by_rid.get(rid, [])
        label = [s for s in spans if s.name == LABEL]
        dispatch = [s for s in spans if s.name == DISPATCH]
        offered = tracer.offers.get(rid)
        if len(label) != 1 or len(dispatch) != 1 or offered is None:
            incomplete += 1
            continue
        # the executor waits: offer -> label start, label end -> dispatch start
        waits = [
            Span(0, None, LABEL_WAIT, rid, offered, label[0].start, 0),
            Span(0, None, HANDOFF_WAIT, rid, label[0].end, dispatch[0].start, 0),
        ]
        children: dict = defaultdict(list)
        for span in spans:
            children[span.parent].append(span)
        accounted = 0.0
        for span in spans + waits:
            kids = children.get(span.sid, []) if span.sid else []
            own = (span.end - span.start) - _covered(
                [(k.start, k.end) for k in kids], span.start, span.end
            )
            self_seconds[LAYER_OF[span.name]] += own
            busy[span.name] += span.end - span.start
            rows[span.name] += span.rows
            accounted += own
        top = [(s.start, s.end) for s in spans + waits if s.parent is None]
        server = (replied - sent) - _covered(top, sent, replied)
        self_seconds["server"] += server
        accounted += server
        errors.append(abs(accounted - (replied - sent)) / (replied - sent))
        per_request["server_self"].append(server)
        per_request[LABEL_WAIT].append(waits[0].end - waits[0].start)
        per_request[HANDOFF_WAIT].append(waits[1].end - waits[1].start)
    errors_arr = np.asarray(errors or [0.0])
    return {
        "self_seconds": self_seconds,
        "busy_seconds": busy,
        "rows": rows,
        "per_request": per_request,
        "accounting": {
            "checked": len(errors),
            "within_tolerance": int((errors_arr <= ACCOUNTING_TOLERANCE).sum()),
            "max_error": float(errors_arr.max()),
            "incomplete": incomplete,
            "tolerance": ACCOUNTING_TOLERANCE,
        },
    }
