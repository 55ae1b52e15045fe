"""The serving tier: a stdlib threaded HTTP front-end for the service.

``repro.server`` packages four concerns the library layers deliberately
do not have: a multi-tenant HTTP surface served one thread per
connection, with no event loop or executor (:mod:`repro.server.http`),
admission control with backpressure (:mod:`repro.server.admission`),
serving configuration (:mod:`repro.server.config`) and process-local
metrics (:mod:`repro.server.metrics`).  The app layer never imports
this package at runtime; the dependency points strictly downward.
"""

from repro.server.admission import AdmissionController, AdmissionDecision
from repro.server.config import ServerConfig
from repro.server.http import CorrelationServer, HttpError, Request
from repro.server.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceInstrumentation,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CorrelationServer",
    "Counter",
    "Gauge",
    "Histogram",
    "HttpError",
    "MetricsRegistry",
    "Request",
    "ServerConfig",
    "ServiceInstrumentation",
]
