"""Test-only encoder of the legacy ``KIND_BATCH`` WAL frame.

Older versions logged each drain's plans as sparse factors packed into
one block of 8-byte words; recovery still reads that format
(:func:`repro.durability.wal._decode_legacy_plans`) but nothing in the
package writes it any more, so this encoder is its reference.  A factor
is a panel column's nonzero entries, as the writing versions stored it.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.durability.wal import KIND_BATCH, _encode_row_updates, _frame


def encode_legacy_batch_frame(version, row_updates, plans) -> bytes:
    """One drain's ``KIND_BATCH`` frame holding ``plans``, in order."""
    lens, idx, val = [], [], []
    for plan in plans:
        left, right = plan.panels()
        lens += [plan.rows_union.size, plan.cols_union.size]
        idx += [plan.rows_union, plan.cols_union]
        for k in range(plan.rank):
            for panel, union in ((left, plan.rows_union), (right, plan.cols_union)):
                support = np.flatnonzero(panel[:, k])
                lens.append(support.size)
                idx.append(union[support])
                val.append(panel[support, k])
    values = np.concatenate(val) if val else np.zeros(0)
    targets = [plan.target for plan in plans]
    ranks = [plan.rank for plan in plans]
    block = np.concatenate([
        np.asarray(part, dtype=np.int64)
        for part in (targets, ranks, lens, *idx, values.view(np.int64))
    ])
    row_words = _encode_row_updates(row_updates)
    head = (len(plans), len(lens), sum(part.size for part in idx), values.size)
    body = b"".join((
        struct.pack("<Q", row_words.size),
        row_words.tobytes(),
        struct.pack("<4Q", *head),
        block.tobytes(),
    ))
    return _frame(KIND_BATCH, version, body)
