"""Single source of truth for the score-matrix storage dtype.

A :class:`~repro.executor.score_store.ScoreStore` holds every shard in
one storage dtype, float64 (the default) or float32.  The store, the
engine, the service config and the memory model all resolve that dtype
here.

Two invariants the rest of the stack relies on:

* ``float64`` is the default and the bit-identity reference: with no
  explicit dtype anywhere, every code path must produce bit-identical
  results to the pre-dtype-seam implementation.
* Plan *values* are always float64 (the WAL stores the panels' raw
  float64 bytes); float32 applies to score **storage**,
  where the scatter-add casts on store.  That keeps live apply and WAL
  replay bit-identical at either storage dtype.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "DEFAULT_FLOAT_DTYPE",
    "SUPPORTED_FLOAT_DTYPES",
    "resolve_dtype",
]

#: The bit-identity reference dtype; every layer defaults to this.
DEFAULT_FLOAT_DTYPE = np.dtype(np.float64)

#: Score storage dtypes the stack accepts end to end.
SUPPORTED_FLOAT_DTYPES = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}

DTypeLike = Union[str, np.dtype, type, None]


def resolve_dtype(dtype: DTypeLike = None) -> np.dtype:
    """Normalize a user-facing dtype spec to a supported ``np.dtype``.

    Accepts ``None`` (the float64 default), a name (``"float32"``), a
    ``np.dtype``, or a scalar type (``np.float32``).  Anything outside
    :data:`SUPPORTED_FLOAT_DTYPES` raises
    :class:`~repro.exceptions.ConfigError` (a ``ValueError``) — the score
    store is not a place for silent exotic dtypes.
    """
    if dtype is None:
        return DEFAULT_FLOAT_DTYPE
    if isinstance(dtype, str):
        try:
            return SUPPORTED_FLOAT_DTYPES[dtype]
        except KeyError:
            raise ConfigError(
                f"unsupported score dtype {dtype!r}; expected one of "
                f"{sorted(SUPPORTED_FLOAT_DTYPES)}"
            ) from None
    resolved = np.dtype(dtype)
    if resolved.name not in SUPPORTED_FLOAT_DTYPES:
        raise ConfigError(
            f"unsupported score dtype {resolved.name!r}; expected one of "
            f"{sorted(SUPPORTED_FLOAT_DTYPES)}"
        )
    return resolved

