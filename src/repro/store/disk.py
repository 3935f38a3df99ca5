"""Disk layout of a packed columnar dataset: one ``.npy`` per column.

A packed dataset is a directory::

    crawl.cstore/
      manifest.json            # format tag, store dirs, chunk inventory
      dictionaries.json        # the four intern tables (index == id)
      snapshots/s000/day_17/   # one dir per (store, day) chunk
        app_id.npy  name_id.npy  ...  version_id.npy
      comments/s000/           # per-store logs, insertion order
        user_id.npy  app_id.npy  day.npy  rating.npy
      apks/s000/
        app_id.npy  version_id.npy  ...  seq.npy

Plain ``np.save`` files mean every column reads back zero-copy through
``np.load(mmap_mode="r")``; :func:`open_store` wires those loads up
*lazily*, so opening a 60M-row dataset touches only the two JSON files
and each column page-faults in on first use.  Store names map to
opaque ``s000``-style directory names through the manifest, keeping the
layout safe for any store string.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np

from repro.obs.metrics import get_registry
from repro.store.chunks import ApkLog, CommentLog, SnapshotChunk
from repro.store.columnar import ColumnarStore
from repro.store.dictionary import StringInterner, TupleInterner
from repro.store.schema import FORMAT_VERSION, SNAPSHOT_COLUMNS

__all__ = ["bytes_on_disk", "is_packed_dataset", "open_store", "pack_store"]

_MANIFEST = "manifest.json"
_DICTIONARIES = "dictionaries.json"


def is_packed_dataset(path) -> bool:
    """Whether a path looks like a packed columnar dataset directory."""
    path = Path(path)
    return path.is_dir() and (path / _MANIFEST).is_file()


def _chunk_dir(root: Path, store_dir: str, day: int) -> Path:
    return root / "snapshots" / store_dir / f"day_{day}"


def _write_columns(
    directory: Path, columns: Dict[str, np.ndarray]
) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in sorted(columns):
        np.save(directory / f"{name}.npy", np.asarray(columns[name]))


def _column_loader(directory: Path):
    """A lazy per-column mmap loader bound to one chunk directory."""

    def load(name: str) -> np.ndarray:
        return np.load(directory / f"{name}.npy", mmap_mode="r")

    return load


def bytes_on_disk(path) -> int:
    """Total size of a packed dataset's files, in bytes."""
    root = Path(path)
    return sum(
        entry.stat().st_size for entry in sorted(root.rglob("*")) if entry.is_file()
    )


def pack_store(store: ColumnarStore, path) -> int:
    """Write a columnar store to disk; returns total bytes written.

    Seals every dirty buffer first, so the on-disk dataset is exactly
    what the in-memory store would answer queries from.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    store.seal()

    store_dirs: Dict[str, str] = {
        name: f"s{index:03d}" for index, name in enumerate(store.stores())
    }
    manifest: Dict[str, object] = {
        "format": FORMAT_VERSION,
        "store_dirs": store_dirs,
        "snapshots": [],
        "comments": [],
        "apks": [],
    }

    for chunk in store.chunks():
        directory = _chunk_dir(root, store_dirs[chunk.store], chunk.day)
        _write_columns(
            directory,
            {name: chunk.column(name) for name in SNAPSHOT_COLUMNS},
        )
        manifest["snapshots"].append(
            {"store": chunk.store, "day": chunk.day, "rows": chunk.n_rows}
        )
    for store_name in store.comment_stores():
        columns = store.comment_log(store_name).arrays()
        _write_columns(root / "comments" / store_dirs[store_name], columns)
        manifest["comments"].append(
            {"store": store_name, "rows": int(columns["user_id"].size)}
        )
    for store_name in store.apk_stores():
        columns = store.apk_log(store_name).arrays()
        _write_columns(root / "apks" / store_dirs[store_name], columns)
        manifest["apks"].append(
            {"store": store_name, "rows": int(columns["app_id"].size)}
        )

    dictionaries = {
        "names": store.names.to_json(),
        "categories": store.categories.to_json(),
        "versions": store.versions.to_json(),
        "packages": store.packages.to_json(),
        "libsets": store.libsets.to_json(),
    }
    (root / _DICTIONARIES).write_text(
        json.dumps(dictionaries, sort_keys=True), encoding="utf-8"
    )
    (root / _MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    total = bytes_on_disk(root)
    registry = get_registry()
    registry.counter("store.datasets_packed").add(1)
    registry.gauge("store.bytes_on_disk").set(total)
    return total


def open_store(path) -> ColumnarStore:
    """Open a packed dataset with lazy, mmap-backed column reads."""
    root = Path(path)
    manifest = json.loads((root / _MANIFEST).read_text(encoding="utf-8"))
    if manifest.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported columnar format {manifest.get('format')!r} "
            f"(expected {FORMAT_VERSION!r})"
        )
    dictionaries = json.loads(
        (root / _DICTIONARIES).read_text(encoding="utf-8")
    )

    store = ColumnarStore()
    store.names = StringInterner.from_json(dictionaries["names"])
    store.categories = StringInterner.from_json(dictionaries["categories"])
    store.versions = StringInterner.from_json(dictionaries["versions"])
    store.packages = StringInterner.from_json(dictionaries["packages"])
    store.libsets = TupleInterner.from_json(dictionaries["libsets"])

    store_dirs = manifest["store_dirs"]
    for entry in manifest["snapshots"]:
        directory = _chunk_dir(root, store_dirs[entry["store"]], entry["day"])
        store._register_chunk(
            SnapshotChunk(
                entry["store"],
                int(entry["day"]),
                int(entry["rows"]),
                loader=_column_loader(directory),
                source="mmap",
            )
        )
    for entry in manifest["comments"]:
        directory = root / "comments" / store_dirs[entry["store"]]
        store._register_comment_log(
            CommentLog(
                entry["store"],
                n_base_rows=int(entry["rows"]),
                loader=_column_loader(directory),
                source="mmap",
            )
        )
    for entry in manifest["apks"]:
        directory = root / "apks" / store_dirs[entry["store"]]
        store._register_apk_log(
            ApkLog(
                entry["store"],
                n_base_rows=int(entry["rows"]),
                loader=_column_loader(directory),
                source="mmap",
            )
        )
    registry = get_registry()
    registry.counter("store.datasets_opened").add(1)
    registry.gauge("store.bytes_on_disk").set(bytes_on_disk(root))
    return store
