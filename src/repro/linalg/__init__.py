"""Linear-algebra machinery shared by the SimRank algorithms.

* :mod:`repro.linalg.kron` — ``vec``/``unvec`` helpers and the exact
  Sylvester solve via Kronecker lifting (the test oracle).
* :mod:`repro.linalg.sylvester` — iterative Sylvester solvers, including
  the rank-one specialization at the heart of the paper (Sec. V-A).
* :mod:`repro.linalg.svd_tools` — truncated/lossless SVD utilities used by
  the Inc-SVD baseline and the Fig. 2b rank study.
* :mod:`repro.linalg.qstore` — :class:`TransitionStore`, the packed-CSR
  ``Q`` store with copy-on-write row surgery behind the engine.
"""

from .kron import unvec, vec, solve_sylvester_kron
from .qstore import TransitionStore
from .sylvester import (
    rank_one_sylvester_series,
    sylvester_series,
)
from .svd_tools import lossless_rank, truncated_svd

__all__ = [
    "vec",
    "unvec",
    "solve_sylvester_kron",
    "sylvester_series",
    "rank_one_sylvester_series",
    "truncated_svd",
    "lossless_rank",
    "TransitionStore",
]
