"""Program set-up: databases, embedder, classifiers, service, server.

:func:`build` is what ``setup_s`` times — from generated inputs to a
``QuercServer`` accepting connections on loopback. SQL generation is
done before it (:mod:`perfbench.workloads`) and the serial reference
after the timed phases (:mod:`perfbench.reference`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends import LatencyProxyBackend, MiniDBBackend
from repro.core import QuercService, QueryClassifier
from repro.core.labeler import ClassifierLabeler
from repro.embedding import BagOfTokensEmbedder
from repro.forecast import PredictiveProvisioner, ProvisioningPlanner
from repro.minidb import generate_tpch_database, materialize_log_tables
from repro.ml.forest import RandomizedForestClassifier
from repro.server import QuercServer, ServerThread
from repro.sql.normalizer import template_fingerprint

from perfbench import workloads as W

LABELS = ("cluster", "tier")
EMBEDDER_NAME = "bow-shared"


@dataclass
class Deployment:
    """A running server plus handles on every object the trace wraps."""

    service: QuercService
    thread: ServerThread  # hosts the QuercServer's event loop
    databases: dict
    embedder: BagOfTokensEmbedder
    classifiers: list[QueryClassifier]
    backends: dict  # name -> registered backend (a proxy when proxied)
    provisioner: PredictiveProvisioner | None
    executors: list  # every StagedExecutor the service built; the last serves

    @property
    def address(self) -> tuple[str, int]:
        return self.thread.address

    @property
    def executor(self):
        return self.executors[-1]

    def stop(self) -> None:
        self.thread.stop()
        self.service.close()


def build_databases(inputs: W.Inputs) -> dict:
    databases = {}
    for spec in inputs.backends:
        if spec.kind == "tpch":
            databases[spec.name] = generate_tpch_database(
                exec_scale=inputs.tpch_exec_scale,
                virtual_scale=inputs.tpch_exec_scale,
                seed=inputs.seed,
            )
        else:
            databases[spec.name] = materialize_log_tables(
                inputs.snowsim_corpus, rows_per_table=W.SNOWSIM_ROWS_PER_TABLE
            )
    return databases


def train_classifiers(embedder, train: list[str]) -> list[QueryClassifier]:
    """Deterministic classifiers: each label is a function of the
    template fingerprint, learned by a small forest over embeddings."""
    vectors = embedder.transform(train)
    fps = [template_fingerprint(q) for q in train]
    out = []
    for i, name in enumerate(LABELS):
        labels = [(int(fp[:8], 16) + i) % 4 for fp in fps]
        labeler = ClassifierLabeler(
            RandomizedForestClassifier(n_trees=8, max_depth=8, seed=i)
        )
        labeler.fit(vectors, labels)
        out.append(
            QueryClassifier(name, embedder, labeler, embedder_name=EMBEDDER_NAME)
        )
    return out


def make_service(
    inputs: W.Inputs, databases: dict, embedder, classifiers, proxied: bool
) -> tuple[QuercService, dict]:
    """A service with the workload's backends and tenants; latency
    proxies only when ``proxied`` (the reference skips them — outcomes
    do not depend on the delay)."""
    service = QuercService()
    backends = {}
    for spec in inputs.backends:
        backend = MiniDBBackend(spec.name, databases[spec.name])
        if proxied and spec.proxied:
            backend = LatencyProxyBackend(
                backend,
                per_batch_seconds=W.PER_BATCH_LATENCY,
                per_query_seconds=W.PER_QUERY_LATENCY,
            )
        service.register_backend(backend)
        backends[spec.name] = backend
    service.embedders.register(EMBEDDER_NAME, embedder)
    for app, backend_name in inputs.tenants.items():
        service.add_application(app, backend=backend_name)
        for classifier in classifiers:
            service.attach_classifier(app, classifier)
    return service, backends


def build(inputs: W.Inputs) -> Deployment:
    """Set the program up and start serving; returns once the server
    accepts connections."""
    databases = build_databases(inputs)
    embedder = BagOfTokensEmbedder(dimension=32, min_count=1, seed=3).fit(
        inputs.train
    )
    classifiers = train_classifiers(embedder, inputs.train)
    service, backends = make_service(
        inputs, databases, embedder, classifiers, proxied=True
    )
    provisioner = None
    if inputs.provisioner:
        provisioner = service.set_provisioner(
            PredictiveProvisioner(
                planner=ProvisioningPlanner(
                    thread_budget=W.LABEL_WORKERS + inputs.dispatch_workers
                ),
                interval_seconds=1.0,
            )
        )
    # keep a handle on the server's executor (the traced run wraps its
    # try_submit); the service builds it when the server starts
    executors: list = []
    create = service.create_staged_executor

    def create_and_keep(*args, **kwargs):
        executor = create(*args, **kwargs)
        executors.append(executor)
        return executor

    service.create_staged_executor = create_and_keep
    server = QuercServer(
        service,
        label_workers=W.LABEL_WORKERS,
        dispatch_workers=inputs.dispatch_workers,
    )
    return Deployment(
        service=service,
        thread=ServerThread(server).start(),
        databases=databases,
        embedder=embedder,
        classifiers=classifiers,
        backends=backends,
        provisioner=provisioner,
        executors=executors,
    )
