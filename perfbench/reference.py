"""The serial library-path reference and the reply check.

Every reply the server sends must equal what
``QuercService.process_routed`` returns for the same batch on a fresh
service with the same databases, embedder and classifiers — serialized
the way the server serializes (``labeled_to_wire`` /
``report_to_wire``, which leave latency out). The one field allowed to
differ is each query's ``timestamp`` label: the load generator stamps
queries with their request id, so the check requires exactly that id
there and compares the rest.
"""

from __future__ import annotations

import copy
import json

from repro.server.protocol import jsonable, labeled_to_wire, report_to_wire
from repro.workloads import QueryLogRecord, StreamBatch

from perfbench import topology
from perfbench import workloads as W


def compute(inputs: W.Inputs, deployment: topology.Deployment, indices) -> dict:
    """Reference replies for the pool batches in ``indices``, computed
    serially on a fresh service (no latency proxies, no provisioner)."""
    service, _ = topology.make_service(
        inputs,
        deployment.databases,
        deployment.embedder,
        deployment.classifiers,
        proxied=False,
    )
    expected = {}
    try:
        for index in sorted(indices):
            app, queries = inputs.pool[index]
            batch = StreamBatch(
                application=app,
                time_step=index,
                records=tuple(QueryLogRecord(query=q, timestamp=0.0) for q in queries),
            )
            labeled, report = service.process_routed(batch)
            expected[index] = _strip_timestamps(
                {
                    "labeled": jsonable([labeled_to_wire(m) for m in labeled]),
                    "report": jsonable(report_to_wire(report)),
                }
            )[0]
    finally:
        service.close()
    return expected


def _strip_timestamps(body: dict) -> tuple[dict, list]:
    """``body`` without the per-query ``timestamp`` labels, and those
    labels in order."""
    body = copy.deepcopy(body)
    stamps = [item["labels"].pop("timestamp", None) for item in body["labeled"]]
    return body, stamps


def check(payload: bytes, rid: int, expected: dict) -> str | None:
    """``None`` when the reply matches the reference, else why not."""
    try:
        frame = json.loads(payload)
    except ValueError as exc:
        return f"unparseable reply: {exc}"
    if frame.get("type") != "result" or frame.get("id") != rid:
        return f"not a result for request {rid}: {str(frame)[:200]}"
    body, stamps = _strip_timestamps(
        {"labeled": frame.get("labeled") or [], "report": frame.get("report")}
    )
    if any(stamp != rid for stamp in stamps):
        return f"request {rid}: timestamps {stamps[:4]} do not echo the request id"
    if body["report"] != expected["report"]:
        return f"request {rid}: the dispatch report differs from the serial reference"
    for i, (got, want) in enumerate(zip(body["labeled"], expected["labeled"])):
        if got != want:
            return (
                f"request {rid}, query {i} ({want['query'][:60]!r}...): labels "
                f"{got['labels']}, the serial reference has {want['labels']}"
            )
    if len(body["labeled"]) != len(expected["labeled"]):
        return f"request {rid}: {len(body['labeled'])} labeled queries, reference has {len(expected['labeled'])}"
    return None


def corrupt(payload: bytes) -> bytes:
    """A copy of a result payload with its first label value changed —
    the self-test's deliberately wrong reply."""
    frame = json.loads(payload)
    labels = frame["labeled"][0]["labels"]
    name = next(k for k in sorted(labels) if k != "timestamp")
    labels[name] = f"corrupted-{labels[name]}"
    return json.dumps(frame).encode()
