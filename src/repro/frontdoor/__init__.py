"""Network front door — async HTTP serving over the service.

The serving layer answers queries in-process; this package puts the
same API on a socket:

* :mod:`repro.frontdoor.admission` — **batched query admission**:
  concurrent ``similarity``/``single_source`` queries execute by group
  commit — a query that finds the batcher idle runs at once, and
  whatever arrives meanwhile runs as the next snapshot-pinned
  vectorized pass (stacked walk matrices, per-shard score gathers),
  bit-identical per query to unbatched execution.
* :mod:`repro.frontdoor.protocol` — the dependency-free HTTP/1.1 wire
  layer (server parser and a keep-alive test client).
* :mod:`repro.frontdoor.server` — :class:`FrontDoor`, which routes
  ``/query``, ``/updates``, ``/flush``, ``/health``, ``/metrics`` and
  ``/traces`` onto one :class:`~repro.serving.service.SimRankService`.
"""

from .admission import (
    AdmissionBatcher,
    batched_similarity,
    batched_single_source,
)
from .protocol import HTTPClient
from .server import FrontDoor, serve_frontdoor

__all__ = [
    "FrontDoor",
    "serve_frontdoor",
    "AdmissionBatcher",
    "batched_similarity",
    "batched_single_source",
    "HTTPClient",
]
