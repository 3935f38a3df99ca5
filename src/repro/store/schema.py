"""Column schemas of the three record kinds the snapshot store holds.

One source of truth for column names, dtypes, and on-disk file names:
the append buffers allocate from it, the disk layout writes one
``<column>.npy`` per entry, and the mmap reader checks it when opening a
packed dataset.  String-valued fields appear here as ``*_id`` integer
columns; the actual strings live in the intern tables
(:mod:`repro.store.dictionary`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = [
    "APK_COLUMNS",
    "COMMENT_COLUMNS",
    "FORMAT_VERSION",
    "SNAPSHOT_COLUMNS",
    "empty_columns",
]

#: On-disk format tag written into ``manifest.json``.
FORMAT_VERSION = "repro-columnar/1"

#: Snapshot chunk columns, keyed by (store, day); rows sorted by app_id.
SNAPSHOT_COLUMNS: Dict[str, np.dtype] = {
    "app_id": np.dtype(np.int64),
    "name_id": np.dtype(np.int32),
    "category_id": np.dtype(np.int32),
    "developer_id": np.dtype(np.int64),
    "price": np.dtype(np.float64),
    "declares_ads": np.dtype(np.bool_),
    "total_downloads": np.dtype(np.int64),
    "rating_count": np.dtype(np.int64),
    "average_rating": np.dtype(np.float64),
    "comment_count": np.dtype(np.int64),
    "version_id": np.dtype(np.int32),
}

#: Comment log columns, keyed by store; rows kept in insertion order.
COMMENT_COLUMNS: Dict[str, np.dtype] = {
    "user_id": np.dtype(np.int64),
    "app_id": np.dtype(np.int64),
    "day": np.dtype(np.int64),
    "rating": np.dtype(np.int64),
}

#: APK archive columns, keyed by store; ``seq`` is the archive sequence
#: number that defines "latest" independent of any sort order.
APK_COLUMNS: Dict[str, np.dtype] = {
    "app_id": np.dtype(np.int64),
    "version_id": np.dtype(np.int32),
    "package_id": np.dtype(np.int32),
    "size_mb": np.dtype(np.float64),
    "libset_id": np.dtype(np.int32),
    "seq": np.dtype(np.int64),
}


def empty_columns(schema: Dict[str, np.dtype]) -> Dict[str, np.ndarray]:
    """Zero-row column arrays for one schema (shared empty-chunk shape)."""
    return {name: np.empty(0, dtype=dtype) for name, dtype in schema.items()}
