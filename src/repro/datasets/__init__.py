"""Synthetic evolving-graph datasets standing in for the paper's corpora.

The paper evaluates on DBLP (co-citation), cit-HepPh (reference network)
and YouTube (related-video graph), sliced into timestamped snapshots.
Those corpora are not shipped here; :mod:`repro.datasets.citation` and
:mod:`repro.datasets.video` generate scaled-down graphs with the same
structural fingerprints (skewed in-degrees, timestamped arrival, rank
deficiency), and :mod:`repro.datasets.registry` names ready-made
configurations used by the benchmarks.
"""

from .citation import citation_network, cith_like, dblp_like
from .video import youtube_like
from .registry import DatasetSpec, get_dataset, list_datasets

__all__ = [
    "citation_network",
    "dblp_like",
    "cith_like",
    "youtube_like",
    "DatasetSpec",
    "get_dataset",
    "list_datasets",
]
