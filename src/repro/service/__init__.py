"""Fleet-scale trace service: ingest daemon, job queue, results store.

Runs the ``vidi`` CLI's jobs as shared long-running infrastructure: a
daemon that ingests concurrent flight-recorder streams from many
tenants, schedules record/replay/divergence/salvage/campaign jobs
(:mod:`repro.harness.jobs`, the executor ``vidi <kind>`` runs inline)
over the process-persistent warm worker pool, and persists every verdict
into an append-only CRC-framed results store. The thin HTTP API is
consumed by ``vidi serve`` / ``vidi submit <kind>`` / ``vidi status`` /
``vidi results`` (:mod:`repro.tools.cli`).
"""

from repro.service.client import FlightStreamer, ServiceClient
from repro.service.ingest import IngestManager
from repro.service.queue import Job, JobQueue
from repro.service.results import ResultsStore, record_bench
from repro.service.server import TraceService

__all__ = [
    "FlightStreamer", "ServiceClient", "IngestManager", "Job", "JobQueue",
    "ResultsStore", "record_bench", "TraceService",
]
