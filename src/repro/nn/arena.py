"""Flat weight arena: pack an object graph's arrays into one buffer.

Handing a fitted model to N worker processes by pickling the whole
object would copy every weight N+1 times (pickle bytes, pipe, unpickle)
and double peak memory per worker. The arena splits the model into
three parts instead:

* **arena** — every numeric ``ndarray`` in the object graph, laid out
  back-to-back (64-byte aligned) in one contiguous ``uint8`` buffer.
  This is the only large artifact, and it is shareable: put it in a
  ``multiprocessing.shared_memory`` segment and every worker maps the
  same physical pages.
* **manifest** — a small JSON-able dict describing each slot (offset,
  size, shape, dtype). Arrays are deduplicated by identity, so
  tied weights stay tied after reconstruction.
* **skeleton** — a pickle of the object graph with the arrays punched
  out (via the pickle ``persistent_id`` hook). Kilobytes, not
  megabytes: tree structure, vocabularies, config dataclasses.

:func:`unpack` rebuilds the object with ``np.frombuffer`` views into
the caller's buffer — **zero-copy**: a worker attaching a 200 MB arena
materialises no new weight memory. Views are marked read-only so a
worker cannot scribble over pages shared with its siblings; pass
``copy=True`` to get private writable arrays (e.g. to keep training).
Every slot keeps its original dtype, so a round trip is bitwise.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass

import numpy as np

__all__ = ["ARENA_ALIGN", "PackedObject", "pack", "unpack"]

#: Slot alignment in bytes. 64 covers every numpy dtype's alignment
#: requirement and matches a cache line, so no view ever straddles a
#: slot boundary misaligned.
ARENA_ALIGN = 64

_PID_TAG = "repro.arena"

# dtype kinds that go to the arena: float, int, unsigned, bool. Object
# arrays (kind "O") and strings ride in the skeleton pickle — they hold
# Python references and cannot be flat memory.
_PACK_KINDS = frozenset("fiub")


@dataclass(frozen=True)
class PackedObject:
    """Result of :func:`pack`: skeleton pickle, manifest, flat arena."""

    skeleton: bytes
    manifest: dict
    arena: np.ndarray  # 1-D uint8, contiguous

    @property
    def nbytes(self) -> int:
        return int(self.manifest["arena_nbytes"])


def _align(offset: int) -> int:
    return (offset + ARENA_ALIGN - 1) // ARENA_ALIGN * ARENA_ALIGN


def pack(obj) -> PackedObject:
    """Split ``obj`` into skeleton + manifest + contiguous weight arena.

    Every plain numeric ``ndarray`` reachable through pickling is
    replaced by a persistent-id stub and appended (deduplicated by
    identity) to the arena. Everything else pickles as usual, so the
    object graph may contain arbitrary picklable structure around the
    arrays.
    """
    arrays: list[np.ndarray] = []
    index_by_id: dict[int, int] = {}

    class _ArenaPickler(pickle.Pickler):
        def persistent_id(self, item):
            # Exact-type check: ndarray subclasses (np.matrix, masked
            # arrays) have behaviour a raw frombuffer view would lose.
            if type(item) is np.ndarray and item.dtype.kind in _PACK_KINDS:
                idx = index_by_id.get(id(item))
                if idx is None:
                    idx = len(arrays)
                    index_by_id[id(item)] = idx
                    arrays.append(item)
                return (_PID_TAG, idx)
            return None

    sink = io.BytesIO()
    _ArenaPickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)

    entries: list[dict] = []
    offset = 0
    stored: list[np.ndarray] = []
    for arr in arrays:
        flat = np.ascontiguousarray(arr)
        offset = _align(offset)
        entries.append(
            {
                "offset": offset,
                "nbytes": int(flat.nbytes),
                "shape": list(arr.shape),
                "dtype": arr.dtype.str,
            }
        )
        stored.append(flat)
        offset += flat.nbytes

    arena = np.zeros(offset, dtype=np.uint8)
    for entry, flat in zip(entries, stored):
        start = entry["offset"]
        arena[start : start + flat.nbytes] = np.frombuffer(
            flat.tobytes(), dtype=np.uint8
        )

    manifest = {
        "format": "repro-arena",
        "version": 1,
        "arena_nbytes": int(offset),
        "entries": entries,
    }
    return PackedObject(skeleton=sink.getvalue(), manifest=manifest, arena=arena)


def unpack(skeleton: bytes, manifest: dict, buffer, copy: bool = False):
    """Rebuild the object packed by :func:`pack`.

    ``buffer`` is anything with the buffer protocol holding the arena
    bytes — a ``bytes`` object, a ``memoryview``, or a
    ``multiprocessing.shared_memory.SharedMemory().buf``. Arrays come
    back as **views** into that buffer (read-only unless the buffer
    itself is immutable anyway); the caller must keep the buffer alive
    for the lifetime of the object. With ``copy=True`` every array is a
    private writable copy and the buffer may be released.
    """
    if manifest.get("format") != "repro-arena":
        raise ValueError("buffer manifest is not a repro-arena manifest")
    entries = manifest["entries"]
    views: dict[int, np.ndarray] = {}

    def _load(idx: int) -> np.ndarray:
        cached = views.get(idx)
        if cached is not None:
            return cached
        entry = entries[idx]
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(
            buffer, dtype=np.dtype(entry["dtype"]), count=count,
            offset=entry["offset"],
        ).reshape(shape)
        if copy:
            arr = arr.copy()
        # frombuffer views of immutable buffers are already read-only;
        # for writable buffers (shared memory) lock the view so one
        # worker cannot corrupt pages mapped by its siblings.
        if arr.base is not None:
            arr.flags.writeable = False
        views[idx] = arr
        return arr

    class _ArenaUnpickler(pickle.Unpickler):
        def persistent_load(self, pid):
            tag, idx = pid
            if tag != _PID_TAG:
                raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
            return _load(idx)

    return _ArenaUnpickler(io.BytesIO(skeleton)).load()
