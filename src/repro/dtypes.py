"""Single source of truth for the score-matrix storage dtype.

Every layer that materializes score values — the
:class:`~repro.executor.score_store.ScoreStore` shards, checkpoints and
the precision tuner — asks this module which float dtypes are legal
score *storage* types and what the default is, so a precision change is
a parameter, not a multi-file edit.

Two invariants the rest of the stack relies on:

* ``float64`` is the default and the bit-identity reference: with no
  explicit dtype anywhere, every code path must produce bit-identical
  results to the pre-dtype-seam implementation.
* Plan *values* are always float64 (the packed WAL format bit-copies
  them through int64 words); reduced precision applies to shard
  **storage**, where the scatter-add casts on store.  That keeps live
  apply and WAL replay bit-identical at any storage dtype.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "DEFAULT_FLOAT_DTYPE",
    "SUPPORTED_FLOAT_DTYPES",
    "dtype_name",
    "resolve_dtype",
]

#: The bit-identity reference dtype; every layer defaults to this.
DEFAULT_FLOAT_DTYPE = np.dtype(np.float64)

#: Score storage dtypes the stack accepts end to end.  The mapping is
#: ordered widest-first so reports list the reference dtype first; a
#: quantized cold tier would register here.
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


def dtype_name(dtype: DTypeLike) -> str:
    """The canonical serializable name (``"float64"``/``"float32"``)."""
    return resolve_dtype(dtype).name
