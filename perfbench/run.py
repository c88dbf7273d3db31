"""One serving benchmark: request frame in, labels and MiniDB outcomes out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch_exec --seed 1 --seconds 40 --trace 0

The program is a real ``QuercServer`` on loopback TCP in this process;
the load comes from one child process (``perfbench/loadgen.py``) over
a few connections, so the client's work does not compete for the
server's GIL. A run:

1. makes the workload's inputs from ``--seed`` (``workloads.py``);
2. sets the program up several times — databases, embedder,
   classifiers, service, server accepting connections — and reports
   the median as ``setup_s``; the last set-up serves;
3. warms up for ``WARMUP_SECONDS``, then measures ``--seconds``;
   with ``--trace 1`` it measures a second phase of the same length
   with every layer wrapped (``tracing.py``) and reports the per-layer
   split, the tracing overhead against the first phase and the
   per-request accounting check;
4. checks every reply against the serial library-path reference
   (``reference.py``) and makes sure a corrupted reply is caught.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). The full record —
host, workload properties, generator lateness, every metric — goes to
``.perfbench/results/``; the traced run's spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
DRAIN_SECONDS = 10.0
# an open-loop run is invalid when the generator sent its frames later
# than this after they were due (p99), since a stall would otherwise
# show up as lower offered load instead of higher latency
MAX_GENERATOR_LATE_P99_MS = 25.0
HEADER = struct.Struct(">I")
clock = time.perf_counter


def speed_probe_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes right now (best of
    three): recorded before and after each run, so a spread across runs
    can be set against the host's own speed drift."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        total = 0
        for i in range(300_000):
            total += i
        best = min(best, clock() - start)
    return best * 1e3


def host_block() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# -- server-process resources ----------------------------------------------------------


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS mark at the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(reset_ok: bool) -> float:
    if reset_ok:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Request(NamedTuple):
    """One frame the load generator sent, as it reports it."""

    rid: int
    index: int  # into the workload's pool of batches
    conn: int
    due: float  # open loop: scheduled send time; closed loop: the send time
    sent: float
    replied: float | None
    status: str  # "ok" (a result frame), "error:<code>" or "unanswered"


class Phase:
    """One timed window and the server-side counters at its edges."""

    def __init__(self, start: float, end: float) -> None:
        self.start, self.end = start, end
        self.marked = [0.0, 0.0]  # when each edge's counters were read
        self.cpu = [0.0, 0.0]
        self.stats: list[dict] = [{}, {}]

    def mark(self, edge: int, service) -> None:
        self.marked[edge] = clock()
        self.cpu[edge] = time.process_time()
        self.stats[edge] = service.stats()


def sleep_until(t: float) -> None:
    while True:
        left = t - clock()
        if left <= 0:
            return
        time.sleep(min(left, 0.5))


# -- the load generator ----------------------------------------------------------------


def run_load(inputs, deployment, phases_seconds: list[float], on_boundary) -> tuple:
    """Drive the server from the child process; call ``on_boundary(k)``
    at each phase edge. Returns the requests and {rid: reply payload}."""
    from perfbench import workloads as W

    plan = {
        "host": deployment.address[0],
        "port": deployment.address[1],
        "connections": W.CONNECTIONS,
        "mode": inputs.loop,
        "window": W.CLOSED_WINDOW,
        "pool": inputs.pool,
        "schedule": inputs.schedule,
    }
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "loadgen.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=str(ROOT),
    )
    try:
        child.stdin.write(json.dumps(plan).encode() + b"\n")
        child.stdin.flush()
        if child.stdout.readline().strip() != b"ready":
            raise RuntimeError("load generator failed to connect")
        start = clock() + 0.1
        edges = [start + W.WARMUP_SECONDS]
        for seconds in phases_seconds:
            edges.append(edges[-1] + seconds)
        child.stdin.write(
            json.dumps(
                {
                    "start_at": start,
                    "stop_at": edges[-1],
                    "drain_seconds": DRAIN_SECONDS,
                }
            ).encode()
            + b"\n"
        )
        child.stdin.close()
        for k, edge in enumerate(edges):
            sleep_until(edge)
            on_boundary(k, edge)
        out = child.stdout.read()
        if child.wait(timeout=DRAIN_SECONDS + 30) != 0:
            raise RuntimeError(f"load generator exited with {child.returncode}")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    head, _, body = out.partition(b"\n")
    requests = [Request(*r) for r in json.loads(head)["requests"]]
    replies, offset = {}, 0
    for r in requests:
        if r.replied is None:
            continue
        (length,) = HEADER.unpack_from(body, offset)
        replies[r.rid] = body[offset + HEADER.size : offset + HEADER.size + length]
        offset += HEADER.size + length
    return requests, replies


# -- metrics ---------------------------------------------------------------------------


def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q) * 1e3) if len(values) else 0.0


def delta(stats: list[dict], *path) -> float:
    def get(d):
        for key in path:
            d = (d or {}).get(key)
        return d or 0

    return get(stats[1]) - get(stats[0])


def timed(phase: Phase, requests: list, open_loop: bool) -> list:
    """Requests that belong to ``phase``: by due time in an open loop,
    by send time in a closed one."""
    return [
        r for r in requests if phase.start <= (r.due if open_loop else r.sent) < phase.end
    ]


def end_to_end(phase, requests, inputs, bad: dict, open_loop: bool) -> dict:
    sizes = [len(q) for _, q in inputs.pool]
    window = timed(phase, requests, open_loop)
    good = [r for r in window if r.status == "ok" and r.rid not in bad]
    latencies = [r.replied - (r.due if open_loop else r.sent) for r in good]
    done_queries = sum(
        sizes[r.index]
        for r in requests
        if r.status == "ok" and r.rid not in bad and phase.start <= r.replied < phase.end
    )
    seconds = phase.end - phase.start
    return {
        "attempted": len(window),
        "failed": len(window) - len(good),
        "samples": len(latencies),
        "qps": done_queries / seconds,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p99_ms": percentile_ms(latencies, 99),
        "cpu_ms_per_query": (phase.cpu[1] - phase.cpu[0]) * 1e3 / max(done_queries, 1),
        "error_rate": (len(window) - len(good)) / max(len(window), 1),
    }


def per_layer(phase, requests, inputs, tracer, base: dict, bad: dict) -> tuple:
    """The traced phase's per-layer metrics and accounting check;
    ``base`` is the untraced phase's end-to-end record. Busy and self
    times are summed over the phase's requests and given per query."""
    from perfbench import tracing

    sizes = [len(q) for _, q in inputs.pool]
    window = [r for r in timed(phase, requests, inputs.loop == "open") if r.status == "ok"]
    trace = tracing.analyse(tracer, {r.rid: (r.sent, r.replied) for r in window})
    own, busy, rows = trace["self_seconds"], trace["busy_seconds"], trace["rows"]
    per_req = trace["per_request"]
    queries = max(sum(sizes[r.index] for r in window), 1)

    def ms_per_query(seconds: float) -> float:
        return seconds * 1e3 / queries

    stats = phase.stats

    def ratio(*path_pairs) -> float:
        hits = delta(stats, *path_pairs[0])
        total = sum(delta(stats, *path) for path in path_pairs)
        return hits / total if total else 0.0

    dispatched = sum(delta(stats, "backends", b.name, "dispatched") for b in inputs.backends)
    admitted = sum(delta(stats, "backends", b.name, "admitted") for b in inputs.backends)
    traced = end_to_end(phase, requests, inputs, bad, inputs.loop == "open")
    acct = trace["accounting"]
    # the independent check: the stage time the traced label and
    # dispatch spans add up to over the phase against the executor's
    # own per-lane stage clocks
    lanes = [s["executor"]["lanes"] for s in stats]
    stage_errors = {}
    for stage in (tracing.LABEL, tracing.DISPATCH):
        key = f"{stage}_seconds"
        counted = sum(v[key] for v in lanes[1].values()) - sum(
            v[key] for v in lanes[0].values()
        )
        spans = tracing.busy_between(tracer, stage, *phase.marked)
        stage_errors[stage] = abs(spans - counted) / max(counted, 1e-9)
    acct["stage_errors"] = stage_errors
    acct["stage_tolerance"] = tracing.STAGE_TOLERANCE
    return {
        "server.self_ms.p50": percentile_ms(per_req["server_self"], 50),
        "server.self_ms.p99": percentile_ms(per_req["server_self"], 99),
        "server.bytes_per_query": (
            delta(stats, "server", "bytes_in") + delta(stats, "server", "bytes_out")
        )
        / max(delta(stats, "server", "queries"), 1),
        "executor.label_wait_ms.p50": percentile_ms(per_req[tracing.LABEL_WAIT], 50),
        "executor.label_wait_ms.p99": percentile_ms(per_req[tracing.LABEL_WAIT], 99),
        "executor.handoff_wait_ms.p50": percentile_ms(per_req[tracing.HANDOFF_WAIT], 50),
        "executor.handoff_wait_ms.p99": percentile_ms(per_req[tracing.HANDOFF_WAIT], 99),
        "executor.label_peak": tracing.peak_concurrency(tracer, tracing.LABEL, *phase.marked),
        "executor.dispatch_peak": tracing.peak_concurrency(
            tracer, tracing.DISPATCH, *phase.marked
        ),
        "label.busy_ms": ms_per_query(busy[tracing.LABEL]),
        "dispatch.busy_ms": ms_per_query(busy[tracing.DISPATCH]),
        "pipeline.self_ms": ms_per_query(own["pipeline"]),
        "pipeline.embed_cache_hit_rate": ratio(
            ("runtime", "cache_hits"), ("runtime", "cache_misses")
        ),
        "pipeline.fingerprint_memo_hit_rate": ratio(
            ("runtime", "fingerprint_memo_hits"), ("runtime", "fingerprint_memo_misses")
        ),
        "pipeline.dedup_ratio": 1.0
        - delta(stats, "runtime", "unique_templates")
        / max(delta(stats, "runtime", "queries"), 1),
        "embedding.busy_ms": ms_per_query(busy["embedding"]),
        "embedding.rows": rows["embedding"] / queries,
        "ml.busy_ms": ms_per_query(busy["ml"]),
        "ml.rows": rows["ml"] / queries,
        "router.self_ms": ms_per_query(own["router"]),
        "router.admitted_ratio": admitted / max(dispatched, 1),
        "router.retries": delta(stats, "resilience", "retries"),
        "router.failovers": delta(stats, "resilience", "failovers"),
        "minidb.busy_ms": ms_per_query(busy["minidb"]),
        "minidb.ms_per_query": busy["minidb"] * 1e3 / max(rows["minidb"], 1),
        "minidb.plan_cache.hit_rate": ratio(
            ("plan_cache", "hits"), ("plan_cache", "misses")
        ),
        "minidb.plan_cache.misses": delta(stats, "plan_cache", "misses") / queries,
        "minidb.plan_cache.evicted": delta(stats, "plan_cache", "evicted") / queries,
        "latency.sleep_ms": ms_per_query(own["latency"]),
        "forecast.busy_ms": ms_per_query(busy["forecast"]),
        "forecast.resizes": delta(stats, "executor", "pool", "resizes"),
        "trace.qps": traced["qps"],
        "trace.qps_overhead": 1.0 - traced["qps"] / max(base["qps"], 1e-9),
        "trace.cpu_overhead": traced["cpu_ms_per_query"]
        / max(base["cpu_ms_per_query"], 1e-9)
        - 1.0,
        "trace.accounting_ok_share": acct["within_tolerance"] / max(acct["checked"], 1),
        "trace.accounting_max_error": acct["max_error"],
        "trace.stage_time_error": max(stage_errors.values()),
    }, acct


def properties(requests, inputs, expected: dict, plan_cache: dict) -> dict:
    """Working-set shape of what this run actually sent: distinct
    templates against the plan-cache capacity, the share of queries
    whose template repeats within its batch, the share whose template
    was already sent earlier in the run, and the share of query
    outcomes the reference itself reports as not ok."""
    from repro.sql.normalizer import template_fingerprint

    seen: set = set()
    n = repeat_in_batch = seen_before = 0
    for r in sorted(requests, key=lambda r: r.sent):
        templates = [template_fingerprint(q) for q in inputs.pool[r.index][1]]
        for t in templates:
            n += 1
            repeat_in_batch += templates.count(t) > 1
            seen_before += t in seen
            seen.add(t)
    outcomes = [
        o["ok"]
        for report in (expected[r.index]["report"] for r in requests if r.index in expected)
        for d in report["decisions"]
        for o in d["outcomes"] or []
    ]
    return {
        "queries_sent": n,
        "distinct_templates": len(seen),
        "plan_cache_capacity": plan_cache["capacity"] // plan_cache["backends_with_cache"],
        "share_template_repeats_in_batch": repeat_in_batch / max(n, 1),
        "share_template_seen_earlier": seen_before / max(n, 1),
        "share_outcomes_not_ok": outcomes.count(False) / max(len(outcomes), 1),
    }


# -- the run ---------------------------------------------------------------------------


def set_up(inputs) -> tuple:
    """Set the program up ``SETUP_REPEATS`` times; keep the last
    deployment serving."""
    from perfbench import topology

    setups, deployment = [], None
    for _ in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.stop()
            deployment = None
            gc.collect()
        t0 = clock()
        deployment = topology.build(inputs)
        setups.append(clock() - t0)
    return deployment, setups


def find_mismatches(answered, replies: dict, expected: dict) -> dict:
    """{rid: why} for every answered request whose reply differs from
    the serial reference."""
    from perfbench import reference

    bad = {}
    for r in answered:
        reason = reference.check(replies[r.rid], r.rid, expected[r.index])
        if reason is not None:
            bad[r.rid] = reason
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench import reference, tracing
    from perfbench import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {W.WORKLOADS}", file=sys.stderr)
        return 2
    host = host_block()
    host["speed_probe_ms_before"] = speed_probe_ms()
    phase_names = ["untraced", "traced"] if args.trace else ["timed"]
    inputs = W.make_inputs(
        args.workload, args.seed, W.WARMUP_SECONDS + args.seconds * len(phase_names)
    )
    open_loop = inputs.loop == "open"

    deployment, setups = set_up(inputs)
    tracer = tracing.Tracer()
    phases: list[Phase] = []
    rss = {"reset": False, "peak": 0.0}

    def on_boundary(k: int, edge: float) -> None:
        if k > 0:
            phases[-1].mark(1, deployment.service)
            if k == 1:
                rss["peak"] = peak_rss_mb(rss["reset"])
        if k < len(phase_names):
            if phase_names[k] == "traced":
                tracer.install(deployment)
            if k == 0:
                rss["reset"] = reset_peak_rss()
            # a traced phase starts once every wrapper is in place
            phase = Phase(max(edge, clock()), edge + args.seconds)
            phase.mark(0, deployment.service)
            phases.append(phase)

    try:
        requests, replies = run_load(
            inputs, deployment, [args.seconds] * len(phase_names), on_boundary
        )
        answered = [r for r in requests if r.status == "ok"]
        expected = reference.compute(inputs, deployment, {r.index for r in answered})
    finally:
        deployment.stop()
    bad = find_mismatches(answered, replies, expected)
    problems = []
    if bad:
        problems.append(f"{len(bad)} replies differ from the serial reference")
        for rid, why in list(bad.items())[:5]:
            print(f"MISMATCH {why}", file=sys.stderr)

    host["speed_probe_ms_after"] = speed_probe_ms()
    e2e = end_to_end(phases[0], requests, inputs, bad, open_loop)
    # self-test: one deliberately corrupted reply must be caught and counted
    probe = next(
        (r for r in timed(phases[0], requests, open_loop) if r.status == "ok" and r.rid not in bad),
        None,
    )
    if probe is None:
        problems.append("no correct reply to run the self-test on")
    else:
        caught = find_mismatches(
            [probe], {probe.rid: reference.corrupt(replies[probe.rid])}, expected
        )
        recount = end_to_end(phases[0], requests, inputs, {**bad, **caught}, open_loop)
        if recount["failed"] != e2e["failed"] + 1:
            problems.append("self-test: a corrupted reply was not counted as a failure")
    warnings = []
    if e2e["samples"] < 1000:
        # fewer than ten requests lie beyond p99: the tail is under-sampled
        warnings.append(f"only {e2e['samples']} timed requests; p99 wants >= 1000")
    late = [r.sent - r.due for r in timed(phases[0], requests, True)] if open_loop else []
    lateness = {
        "p50_ms": percentile_ms(late, 50),
        "p99_ms": percentile_ms(late, 99),
        "bound_p99_ms": MAX_GENERATOR_LATE_P99_MS,
    }
    if open_loop and lateness["p99_ms"] > MAX_GENERATOR_LATE_P99_MS:
        problems.append(
            f"generator fell behind its schedule: p99 {lateness['p99_ms']:.1f} ms late"
        )
    e2e_metrics = {
        "qps": e2e["qps"],
        "latency_p50_ms": e2e["latency_p50_ms"],
        "latency_p99_ms": e2e["latency_p99_ms"],
        "cpu_ms_per_query": e2e["cpu_ms_per_query"],
        "peak_rss_mb": rss["peak"],
        "setup_s": statistics.median(setups),
    }
    layer_metrics, accounting = {}, None
    if args.trace:
        layer_metrics, accounting = per_layer(phases[1], requests, inputs, tracer, e2e, bad)
        off = accounting["checked"] - accounting["within_tolerance"]
        if off or accounting["incomplete"]:
            problems.append(
                f"trace accounting: {off} requests off by more than "
                f"{accounting['tolerance']:.0%}, {accounting['incomplete']} without spans"
            )
        for stage, error in accounting["stage_errors"].items():
            if error > accounting["stage_tolerance"]:
                problems.append(
                    f"trace accounting: traced {stage} time differs from the "
                    f"executor's stage clock by {error:.1%}"
                )
    props = properties(requests, inputs, expected, phases[0].stats[1]["plan_cache"])
    # attempted / failed cover every timed phase of the run
    attempted = failed = 0
    for phase in phases:
        counts = end_to_end(phase, requests, inputs, bad, open_loop)
        attempted += counts["attempted"]
        failed += counts["failed"]
    correct = not problems

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "host": host,
                "correct": correct,
                "problems": problems,
                "warnings": warnings,
                "setup_seconds": setups,
                "end_to_end": {**e2e, **e2e_metrics},
                "generator_lateness": lateness,
                "properties": props,
                "per_layer": layer_metrics,
                "trace_accounting": accounting,
                "mismatches": dict(list(bad.items())[:20]),
                "requests": {"fields": Request._fields, "rows": requests},
            }
        )
        + "\n"
    )
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        with open(OUT / "traces" / f"{stem}.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")

    # -- report -------------------------------------------------------------------
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed}: {inputs.loop} loop")
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    print(
        f"properties: {props['distinct_templates']} distinct templates "
        f"(plan cache holds {props['plan_cache_capacity']}), "
        f"{props['share_template_repeats_in_batch']:.3f} repeat in their batch, "
        f"{props['share_template_seen_earlier']:.3f} seen earlier in the run"
    )
    print(f"{'end-to-end metric':<36}{'value':>14}  unit   ({e2e['samples']} timed requests)")
    for name, value in e2e_metrics.items():
        print(f"{name:<36}{value:>14.4f}  {units[name]}")
    print(f"{'error_rate':<36}{e2e['error_rate']:>14.4f}  share")
    if open_loop:
        print(
            f"generator lateness p50 {lateness['p50_ms']:.2f} ms, "
            f"p99 {lateness['p99_ms']:.2f} ms (bound {MAX_GENERATOR_LATE_P99_MS} ms)"
        )
    if args.trace:
        print(f"{'per-layer metric (traced phase)':<36}{'value':>14}  unit")
        for name, value in layer_metrics.items():
            print(f"{name:<36}{value:>14.4f}  {units[name]}")
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"correct: {correct}" + (f" ({'; '.join(problems)})" if problems else ""))
    shown = layer_metrics if args.trace else e2e_metrics
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(shown) != wanted:
        raise RuntimeError(f"metrics {sorted(set(shown) ^ wanted)} disagree with BENCHMARK.json")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
