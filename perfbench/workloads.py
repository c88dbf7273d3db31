"""The benchmark's three traffic mixes, generated from a seed.

Everything a run sends is made here, before the program starts: the
SQL text, the batches (one ``submit`` frame each), the tenant of every
batch and, for the open loop, the arrival schedule. Rates, sizes and
topology are the fixed constants below; nothing is derived from
capacity measured at run time. The program under test only ever sees
the generated inputs.

* ``tpch_exec`` — closed loop, 8 TPC-H tenants on 2 replica TPC-H
  databases, the 22 templates with fresh literals. MiniDB operators do
  most of the work and every cache fits.
* ``snowsim_wide`` — closed loop, 8 SnowSim tenants on 2 replica
  databases of materialized log tables (tiny tables), batches of 4-6,
  630-670 distinct templates per run against a 256-entry plan cache.
  Wire framing, cold fingerprint/embed/predict and parse+plan on
  plan-cache misses dominate.
* ``mixed_open`` — open loop at a fixed absolute arrival rate with
  periodic bursts on a seeded schedule; SnowSim and TPC-H tenants on
  backends behind simulated network latency, with a predictive
  provisioner attached. Dispatch waits on simulated I/O, so stage-pool
  sizing, lane queueing and the provisioner set the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads import (
    SnowSimConfig,
    generate_snowsim_workload,
    generate_tpch_workload,
)

# -- fixed topology and traffic constants -------------------------------------------

CONNECTIONS = 2  # load-generator connections (nproc of the reference host)
CLOSED_WINDOW = 4  # frames in flight per connection in a closed loop
WARMUP_SECONDS = 5.0  # caches fill; the closed loops cycle their pools about once

TPCH_EXEC_SCALE = 0.001  # materialized TPC-H size: ~2 ms of operators a query
TPCH_BATCH = 4  # small enough for >= 1,000 timed frames a run
TPCH_POOL_BATCHES = 150  # 600 distinct query texts, cycled by the client

SNOWSIM_QUERIES = 3000  # 630-670 distinct templates after the training split
SNOWSIM_TRAIN = 256
SNOWSIM_ROWS_PER_TABLE = 6
SNOWSIM_BATCH = (4, 6)

OPEN_BASE_RATE = 50.0  # frames per second between bursts
OPEN_BURST_FACTOR = 1.6  # arrival-rate multiplier inside a burst
OPEN_BURST_EVERY = 5.0  # seconds between burst starts (divides the warm-up)
OPEN_BURST_SECONDS = 1.0
OPEN_BATCH = (1, 3)
OPEN_TPCH_SHARE = 0.25  # frames from TPC-H tenants; the rest are SnowSim
OPEN_SNOWSIM_QUERIES = 2000
# the open loop's TPC-H tables are half tpch_exec's: its heaviest
# templates stay near 2 ms, so dispatch waits on the simulated network
# rather than on operators (that is tpch_exec's job)
OPEN_TPCH_EXEC_SCALE = 0.0005
# simulated network: a round trip per backend call plus service time
# per query. It is most of a frame's latency, so the tail is set by
# frames queueing behind their tenant's previous frame (one batch per
# lane in dispatch) and by pool sizing, not by the host's CPU noise:
# with 4 ms + 0.4 ms, p99's spread (IQR over median) over 5-10 seeds on
# a 2-vCPU shared host was 0.33-0.43, with 20 ms + 2 ms 0.06
PER_BATCH_LATENCY = 0.020
PER_QUERY_LATENCY = 0.002

LABEL_WORKERS = 2
DISPATCH_WORKERS = 4
OPEN_DISPATCH_WORKERS = 8
N_TENANTS = 8

WORKLOADS = ("tpch_exec", "snowsim_wide", "mixed_open")


@dataclass(frozen=True)
class BackendSpec:
    """One backend: a TPC-H database or SnowSim tables, maybe proxied."""

    name: str
    kind: str  # "tpch" | "snowsim"
    proxied: bool = False


@dataclass
class Inputs:
    """Everything one run of one workload sends, plus its topology."""

    workload: str
    seed: int
    loop: str  # "closed" | "open"
    backends: list[BackendSpec]
    tenants: dict[str, str]  # application -> backend name
    train: list[str]  # embedder + classifier training corpus
    snowsim_corpus: list[str] = field(default_factory=list)
    # the batches the client sends: (application, queries); a closed
    # loop cycles them, an open loop sends schedule[k] = (due, index)
    pool: list[tuple[str, list[str]]] = field(default_factory=list)
    schedule: list[tuple[float, int]] = field(default_factory=list)
    dispatch_workers: int = DISPATCH_WORKERS
    provisioner: bool = False
    tpch_exec_scale: float = TPCH_EXEC_SCALE


def _tpch_queries(n: int, seed: int) -> list[str]:
    """``n`` TPC-H queries over all 22 templates with fresh literals,
    in a seeded random order."""
    per_template = -(-n // 22)
    queries = generate_tpch_workload(per_template, seed=seed)
    order = np.random.default_rng(seed).permutation(len(queries))
    return [queries[i] for i in order[:n]]


def _snowsim_queries(total: int, seed: int) -> list[str]:
    return [
        r.query
        for r in generate_snowsim_workload(
            SnowSimConfig(total_queries=total, seed=seed)
        )
    ]


def _chunks(queries, sizes, rng) -> list[list[str]]:
    lo, hi = sizes
    out, i = [], 0
    while i < len(queries):
        n = int(rng.integers(lo, hi + 1))
        out.append(queries[i : i + n])
        i += n
    return out


def tpch_exec(seed: int, seconds: float) -> Inputs:
    tenants = {f"tpch-{i}": f"DB(tpch-{'ab'[i % 2]})" for i in range(N_TENANTS)}
    apps = list(tenants)
    queries = _tpch_queries(TPCH_BATCH * TPCH_POOL_BATCHES, seed)
    pool = [
        (apps[i % N_TENANTS], queries[i * TPCH_BATCH : (i + 1) * TPCH_BATCH])
        for i in range(TPCH_POOL_BATCHES)
    ]
    return Inputs(
        workload="tpch_exec",
        seed=seed,
        loop="closed",
        backends=[BackendSpec("DB(tpch-a)", "tpch"), BackendSpec("DB(tpch-b)", "tpch")],
        tenants=tenants,
        train=_tpch_queries(22 * 6, seed + 100_003),
        pool=pool,
    )


def snowsim_wide(seed: int, seconds: float) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    queries = _snowsim_queries(SNOWSIM_QUERIES, seed)
    train, serve = queries[:SNOWSIM_TRAIN], queries[SNOWSIM_TRAIN:]
    tenants = {f"snow-{i}": f"DB(snow-{'ab'[i % 2]})" for i in range(N_TENANTS)}
    apps = list(tenants)
    pool = [
        (apps[i % N_TENANTS], batch)
        for i, batch in enumerate(_chunks(serve, SNOWSIM_BATCH, rng))
    ]
    return Inputs(
        workload="snowsim_wide",
        seed=seed,
        loop="closed",
        backends=[
            BackendSpec("DB(snow-a)", "snowsim"),
            BackendSpec("DB(snow-b)", "snowsim"),
        ],
        tenants=tenants,
        train=train,
        snowsim_corpus=serve,
        pool=pool,
    )


def open_schedule(seconds: float, rng) -> list[float]:
    """Arrival offsets at ``OPEN_BASE_RATE``, evenly spaced, with one
    ``OPEN_BURST_FACTOR`` burst of ``OPEN_BURST_SECONDS`` per
    ``OPEN_BURST_EVERY`` period at a seeded phase. The spacing is
    fixed, so every seed offers the same load; the seed moves the
    bursts and the small jitter on each arrival."""
    out, period = [], 0.0
    while period < seconds:
        burst = period + rng.uniform(0.0, OPEN_BURST_EVERY - OPEN_BURST_SECONDS)
        t = period
        while t < period + OPEN_BURST_EVERY:
            in_burst = burst <= t < burst + OPEN_BURST_SECONDS
            step = 1.0 / (OPEN_BASE_RATE * (OPEN_BURST_FACTOR if in_burst else 1.0))
            out.append(t + rng.uniform(0.0, 0.2 * step))
            t += step
        period += OPEN_BURST_EVERY
    return [t for t in out if t < seconds]


def mixed_open(seed: int, seconds: float) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    half = N_TENANTS // 2
    tenants = {f"snow-{i}": "DB(snow)" for i in range(half)}
    tenants.update({f"tpch-{i}": "DB(tpch)" for i in range(half)})
    snow = _snowsim_queries(OPEN_SNOWSIM_QUERIES, seed)
    snow_train, snow_serve = snow[:SNOWSIM_TRAIN], snow[SNOWSIM_TRAIN:]
    arrivals = open_schedule(seconds, rng)
    # every size equally often, in a seeded order: the same query volume
    # for every seed
    span = np.arange(OPEN_BATCH[0], OPEN_BATCH[1] + 1)
    sizes = rng.permutation(np.resize(span, len(arrivals)))
    n_tpch = round(OPEN_TPCH_SHARE * len(arrivals))
    is_tpch = rng.permutation(np.arange(len(arrivals)) < n_tpch)
    tpch = _tpch_queries(int(sizes[is_tpch].sum()) + 1, seed)
    pool: list[tuple[str, list[str]]] = []
    cursor = {"snow": 0, "tpch": 0}
    for k, n in enumerate(sizes):
        kind = "tpch" if is_tpch[k] else "snow"
        source = tpch if kind == "tpch" else snow_serve
        start = cursor[kind]
        cursor[kind] = start + int(n)
        batch = [source[(start + j) % len(source)] for j in range(int(n))]
        pool.append((f"{kind}-{int(rng.integers(half))}", batch))
    return Inputs(
        workload="mixed_open",
        seed=seed,
        loop="open",
        backends=[
            BackendSpec("DB(snow)", "snowsim", proxied=True),
            BackendSpec("DB(tpch)", "tpch", proxied=True),
        ],
        tenants=tenants,
        train=snow_train + _tpch_queries(22 * 6, seed + 100_003),
        snowsim_corpus=snow_serve,
        pool=pool,
        schedule=[(t, k) for k, t in enumerate(arrivals)],
        dispatch_workers=OPEN_DISPATCH_WORKERS,
        provisioner=True,
        tpch_exec_scale=OPEN_TPCH_EXEC_SCALE,
    )


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """The inputs of one run: ``seconds`` covers warm-up plus every
    timed phase (the open loop's schedule is generated that long)."""
    makers = {
        "tpch_exec": tpch_exec,
        "snowsim_wide": snowsim_wide,
        "mixed_open": mixed_open,
    }
    return makers[workload](seed, seconds)
