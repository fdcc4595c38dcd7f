"""Byte-exact page encodings.

Every persisted page is exactly :data:`~repro.storage.constants.PAGE_SIZE`
bytes.  Three page kinds exist:

* **Element pages** (FLAT object pages and R-Tree leaves): a 16-byte
  header (element count) followed by up to 85 MBRs of 48 bytes each.
* **Node pages** (R-Tree internal nodes and seed-tree internal nodes):
  a 16-byte header (entry count, leaf flag) followed by (child pointer,
  child MBR) entries of 56 bytes each.
* **Metadata pages** (seed-tree leaves): a 16-byte header (record
  count) followed by variable-size metadata records — page MBR,
  partition MBR, object-page pointer, neighbor count, neighbor record
  ids (Sec. V-B.2 of the paper).  Their decoded form is a
  :class:`MetadataLeaf`: the records as columns, neighbors in CSR form.

All encoders zero-pad to the full page; all decoders are the exact
inverses (round-trip tested byte-for-byte).
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.storage.constants import (
    MBR_BYTES,
    METADATA_RECORD_FIXED_BYTES,
    NODE_FANOUT,
    OBJECT_PAGE_CAPACITY,
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
    POINTER_BYTES,
    RECORD_POINTER_BYTES,
)

_HEADER = struct.Struct("<QBxxxxxxx")  # count: u64, flags: u8, 7 pad bytes
assert _HEADER.size == PAGE_HEADER_BYTES

_FLAG_LEAF = 0x1


def _pad_to_page(payload: bytes) -> bytes:
    if len(payload) > PAGE_SIZE:
        raise ValueError(f"payload of {len(payload)} bytes exceeds page size")
    return payload + b"\x00" * (PAGE_SIZE - len(payload))


def encode_element_page(mbrs: np.ndarray) -> bytes:
    """Serialize up to 85 element MBRs into one 4 KiB page."""
    mbrs = np.ascontiguousarray(mbrs, dtype=np.float64)
    if mbrs.ndim != 2 or mbrs.shape[1] == 0 or mbrs.shape[1] != 6:
        raise ValueError(f"expected (N, 6) MBRs, got {mbrs.shape}")
    if len(mbrs) > OBJECT_PAGE_CAPACITY:
        raise ValueError(
            f"{len(mbrs)} elements exceed page capacity {OBJECT_PAGE_CAPACITY}"
        )
    header = _HEADER.pack(len(mbrs), _FLAG_LEAF)
    return _pad_to_page(header + mbrs.tobytes())


def decode_element_page(page: bytes) -> np.ndarray:
    """Inverse of :func:`encode_element_page`; returns an ``(N, 6)`` array."""
    if len(page) != PAGE_SIZE:
        raise ValueError(f"expected a {PAGE_SIZE}-byte page, got {len(page)}")
    count, _flags = _HEADER.unpack_from(page)
    if count > OBJECT_PAGE_CAPACITY:
        raise ValueError(f"corrupt element page: count={count}")
    data = np.frombuffer(
        page, dtype=np.float64, count=count * 6, offset=PAGE_HEADER_BYTES
    )
    return data.reshape(count, 6).copy()


#: One (child pointer, child MBR) node entry, as laid out on the page.
_NODE_ENTRY_DTYPE = np.dtype([("id", "<u8"), ("mbr", "<f8", (6,))])
assert _NODE_ENTRY_DTYPE.itemsize == POINTER_BYTES + MBR_BYTES


def encode_node_page(child_ids: np.ndarray, child_mbrs: np.ndarray, leaf: bool) -> bytes:
    """Serialize an internal/leaf tree node: (child pointer, child MBR) entries."""
    child_ids = np.ascontiguousarray(child_ids, dtype=np.uint64)
    child_mbrs = np.ascontiguousarray(child_mbrs, dtype=np.float64)
    if child_ids.ndim != 1 or child_mbrs.shape != (len(child_ids), 6):
        raise ValueError(
            f"mismatched node entries: ids {child_ids.shape}, mbrs {child_mbrs.shape}"
        )
    if len(child_ids) > NODE_FANOUT:
        raise ValueError(f"{len(child_ids)} entries exceed node fanout {NODE_FANOUT}")
    header = _HEADER.pack(len(child_ids), _FLAG_LEAF if leaf else 0)
    entries = np.empty(len(child_ids), dtype=_NODE_ENTRY_DTYPE)
    entries["id"] = child_ids
    entries["mbr"] = child_mbrs
    return _pad_to_page(header + entries.tobytes())


def decode_node_page(page: bytes) -> tuple:
    """Inverse of :func:`encode_node_page` → ``(child_ids, child_mbrs, leaf)``.

    One strided ``frombuffer`` view over the interleaved entries instead
    of a per-record ``struct.unpack_from`` loop (byte-identical results;
    pinned against :func:`_decode_node_page_scalar`).
    """
    if len(page) != PAGE_SIZE:
        raise ValueError(f"expected a {PAGE_SIZE}-byte page, got {len(page)}")
    count, flags = _HEADER.unpack_from(page)
    if count > NODE_FANOUT:
        raise ValueError(f"corrupt node page: count={count}")
    entries = np.frombuffer(
        page, dtype=_NODE_ENTRY_DTYPE, count=count, offset=PAGE_HEADER_BYTES
    )
    child_ids = entries["id"].astype(np.uint64)
    child_mbrs = entries["mbr"].astype(np.float64)
    return child_ids, child_mbrs, bool(flags & _FLAG_LEAF)


def _decode_node_page_scalar(page: bytes) -> tuple:
    """Per-record reference decoder (the original loop); tests pin
    :func:`decode_node_page` byte-identical against it."""
    if len(page) != PAGE_SIZE:
        raise ValueError(f"expected a {PAGE_SIZE}-byte page, got {len(page)}")
    count, flags = _HEADER.unpack_from(page)
    if count > NODE_FANOUT:
        raise ValueError(f"corrupt node page: count={count}")
    child_ids = np.empty(count, dtype=np.uint64)
    child_mbrs = np.empty((count, 6), dtype=np.float64)
    offset = PAGE_HEADER_BYTES
    for i in range(count):
        (child_ids[i],) = struct.unpack_from("<Q", page, offset)
        offset += POINTER_BYTES
        child_mbrs[i] = np.frombuffer(page, dtype=np.float64, count=6, offset=offset)
        offset += MBR_BYTES
    return child_ids, child_mbrs, bool(flags & _FLAG_LEAF)


def metadata_record_bytes(num_neighbors: int) -> int:
    """Serialized size of one metadata record with *num_neighbors* pointers."""
    return METADATA_RECORD_FIXED_BYTES + num_neighbors * RECORD_POINTER_BYTES


def encode_metadata_page(records: list) -> bytes:
    """Serialize metadata records into one seed-tree leaf page.

    *records* is a list of ``(page_mbr, partition_mbr, object_page_id,
    neighbor_ids)`` tuples; ``neighbor_ids`` are *global record ids*
    resolved to leaf pages via the record directory (Sec. V-B.2: the
    neighbor pointers point at other metadata records in seed-tree
    leaves).  The records are gathered into a :class:`MetadataLeaf` and
    written by :func:`encode_metadata_leaf`.
    """
    coords = np.array(
        [(record[0], record[1]) for record in records], dtype=np.float64
    )
    if coords.shape != (len(records), 2, 6):
        if records:
            raise ValueError("metadata record MBRs must have shape (6,)")
        coords = coords.reshape(0, 2, 6)
    neighbors = [record[3] for record in records]
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in neighbors], out=offsets[1:])
    return encode_metadata_leaf(MetadataLeaf(
        page_mbrs=coords[:, 0],
        partition_mbrs=coords[:, 1],
        object_page_ids=np.array(
            [int(record[2]) for record in records], dtype=np.uint64
        ).view(np.int64),
        neighbor_offsets=offsets,
        neighbor_ids=np.array(
            list(chain.from_iterable(neighbors)), dtype=np.int64
        ),
    ))


@dataclass(frozen=True)
class MetadataLeaf:
    """The decoded form of one metadata page: its records as columns.

    Row ``i`` is the record in slot ``i``.  Neighbor pointers are CSR:
    the neighbors of row ``i`` are
    ``neighbor_ids[neighbor_offsets[i]:neighbor_offsets[i + 1]]``.
    Object page ids keep the page's u64 bit patterns, viewed as int64
    (the crawls index and combine them with other int64 ids).  Leaves
    are shared through the decoded-page cache: treat them as read-only.
    """

    page_mbrs: np.ndarray         #: (N, 6) page MBRs.
    partition_mbrs: np.ndarray    #: (N, 6) partition MBRs.
    object_page_ids: np.ndarray   #: (N,) object page ids.
    neighbor_offsets: np.ndarray  #: (N + 1,) CSR row offsets.
    neighbor_ids: np.ndarray      #: (M,) concatenated neighbor record ids.

    def __len__(self) -> int:
        return len(self.object_page_ids)

    def neighbors(self, row: int) -> np.ndarray:
        """Neighbor record ids of one row."""
        offsets = self.neighbor_offsets
        return self.neighbor_ids[offsets[row]:offsets[row + 1]]

    def neighbors_of(self, mask: np.ndarray) -> np.ndarray:
        """Concatenated neighbor ids of the rows selected by *mask*."""
        return self._neighbor_rows(np.flatnonzero(mask))[1]

    def take(self, rows: np.ndarray) -> dict:
        """The columns of *rows* (in that order), as constructor fields."""
        offsets, neighbor_ids = self._neighbor_rows(rows)
        return {
            "page_mbrs": self.page_mbrs[rows],
            "partition_mbrs": self.partition_mbrs[rows],
            "object_page_ids": self.object_page_ids[rows],
            "neighbor_offsets": offsets,
            "neighbor_ids": neighbor_ids,
        }

    def _neighbor_rows(self, rows: np.ndarray) -> tuple:
        starts = self.neighbor_offsets[rows]
        lengths = self.neighbor_offsets[rows + 1] - starts
        return csr_gather(starts, lengths, self.neighbor_ids)

    def records(self) -> list:
        """The per-record tuple form of :func:`decode_metadata_page`."""
        object_page_ids = self.object_page_ids.view(np.uint64).tolist()
        neighbors = self.neighbor_ids.tolist()
        offsets = self.neighbor_offsets.tolist()
        return [
            (
                self.page_mbrs[i].copy(),
                self.partition_mbrs[i].copy(),
                object_page_ids[i],
                neighbors[offsets[i]:offsets[i + 1]],
            )
            for i in range(len(object_page_ids))
        ]

    @staticmethod
    def concatenate(leaves: list) -> "MetadataLeaf":
        """One leaf holding the rows of *leaves*, in order."""
        if len(leaves) == 1:
            return leaves[0]
        if not leaves:
            return decode_metadata_leaf(encode_metadata_page([]))
        counts = [leaf.neighbor_offsets for leaf in leaves]
        counts = np.concatenate([ends[1:] - ends[:-1] for ends in counts])
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return MetadataLeaf(
            page_mbrs=np.concatenate([leaf.page_mbrs for leaf in leaves]),
            partition_mbrs=np.concatenate(
                [leaf.partition_mbrs for leaf in leaves]
            ),
            object_page_ids=np.concatenate(
                [leaf.object_page_ids for leaf in leaves]
            ),
            neighbor_offsets=offsets,
            neighbor_ids=np.concatenate([leaf.neighbor_ids for leaf in leaves]),
        )


def csr_gather(starts: np.ndarray, lengths: np.ndarray, values: np.ndarray):
    """Gather CSR rows ``values[starts[i]:starts[i] + lengths[i]]``.

    Returns ``(offsets, gathered)``: the gathered rows concatenated,
    plus their ``len(starts) + 1`` CSR offsets.  Vectorized: each
    row's ``arange`` is shifted to its start, with no per-row loop.
    """
    offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return offsets, np.empty(0, dtype=np.int64)
    shift = np.repeat(starts - offsets[:-1], lengths)
    return offsets, values[np.arange(total) + shift]


#: Words (u32) of a metadata record before its neighbor list.
_RECORD_FIXED_WORDS = METADATA_RECORD_FIXED_BYTES // 4
_MAX_METADATA_RECORDS = (
    (PAGE_SIZE - PAGE_HEADER_BYTES) // METADATA_RECORD_FIXED_BYTES
)
#: Word index where record ``i`` would start if every earlier record
#: had no neighbors; subtracting it from the real start leaves the
#: number of neighbor words before record ``i``.
_BARE_STARTS = PAGE_HEADER_BYTES // 4 + _RECORD_FIXED_WORDS * np.arange(
    _MAX_METADATA_RECORDS + 1
)
_FIXED_WORDS = np.arange(_RECORD_FIXED_WORDS)
_LITTLE_ENDIAN = sys.byteorder == "little"


def decode_metadata_leaf(page: bytes) -> MetadataLeaf:
    """Parse a metadata page straight into its columnar leaf.

    One offset walk over the page's 32-bit words finds every record
    start (record ``i + 1`` starts after record ``i``'s neighbor list);
    the columns are then vectorized gathers — records start 4-byte
    aligned, so MBRs and object-page ids are runs of whole words.
    Field-for-field equal to :func:`_decode_metadata_page_scalar`
    (pinned by tests); corrupt pages raise ``ValueError``.
    """
    if len(page) != PAGE_SIZE:
        raise ValueError(f"expected a {PAGE_SIZE}-byte page, got {len(page)}")
    count, _flags = _HEADER.unpack_from(page)
    if count > _MAX_METADATA_RECORDS:
        raise ValueError(f"corrupt metadata page: count={count}")
    words = np.frombuffer(page, dtype="<u4")
    native = memoryview(page).cast("I") if _LITTLE_ENDIAN else words.tolist()
    bounds = [0] * (count + 1)
    word = PAGE_HEADER_BYTES // 4
    last = PAGE_SIZE // 4 - _RECORD_FIXED_WORDS
    for i in range(count):
        if word > last:
            raise ValueError("corrupt metadata page: records overflow the page")
        bounds[i] = word
        word += _RECORD_FIXED_WORDS + native[word + 26]
    if word > PAGE_SIZE // 4:
        raise ValueError("corrupt metadata page: records overflow the page")
    bounds[count] = word

    bounds = np.array(bounds, dtype=np.int64)
    offsets = bounds - _BARE_STARTS[:count + 1]
    fixed = words[bounds[:-1, None] + _FIXED_WORDS]
    coords = np.ascontiguousarray(fixed[:, :24]).view("<f8")
    coords = coords.astype(np.float64, copy=False)
    object_page_ids = np.ascontiguousarray(fixed[:, 24:26]).view("<i8")
    neighbor_words = np.repeat(
        _BARE_STARTS[1:count + 1], offsets[1:] - offsets[:-1]
    ) + np.arange(offsets[-1])
    return MetadataLeaf(
        page_mbrs=coords[:, :6],
        partition_mbrs=coords[:, 6:],
        object_page_ids=object_page_ids.astype(np.int64, copy=False).ravel(),
        neighbor_offsets=offsets,
        neighbor_ids=words[neighbor_words].astype(np.int64),
    )


def encode_metadata_leaf(leaf: MetadataLeaf) -> bytes:
    """Inverse of :func:`decode_metadata_leaf`: one zero-padded page.

    The same word layout as the parse, written with one vectorized
    scatter.  Raises ``ValueError`` when the records do not fit on a
    page or a neighbor id does not fit its 32-bit slot.
    """
    count = len(leaf)
    offsets = leaf.neighbor_offsets
    total = int(offsets[-1])
    if (count > _MAX_METADATA_RECORDS
            or _BARE_STARTS[count] + total > PAGE_SIZE // 4):
        raise ValueError(
            f"{count} metadata records with {total} neighbors exceed the page"
        )
    neighbors = leaf.neighbor_ids
    if total and (neighbors.min() < 0 or neighbors.max() >= 1 << 32):
        raise ValueError("metadata neighbor id outside u32")
    counts = offsets[1:] - offsets[:-1]
    fixed = np.empty((count, _RECORD_FIXED_WORDS), dtype="<u4")
    coords = np.hstack((leaf.page_mbrs, leaf.partition_mbrs)).astype("<f8")
    fixed[:, :24] = coords.view("<u4")
    object_page_ids = leaf.object_page_ids.astype("<i8")
    fixed[:, 24:26] = object_page_ids.view("<u4").reshape(-1, 2)
    fixed[:, 26] = counts
    words = np.zeros(PAGE_SIZE // 4, dtype="<u4")
    words[:PAGE_HEADER_BYTES // 4] = np.frombuffer(
        _HEADER.pack(count, _FLAG_LEAF), dtype="<u4"
    )
    starts = _BARE_STARTS[:count] + offsets[:-1]
    words[starts[:, None] + _FIXED_WORDS] = fixed
    words[np.repeat(_BARE_STARTS[1:count + 1], counts) + np.arange(total)] = (
        neighbors
    )
    return words.tobytes()


def decode_metadata_page(page: bytes) -> list:
    """Inverse of :func:`encode_metadata_page`: per-record tuples.

    The tuple form of :func:`decode_metadata_leaf` — python ints for
    ids, fresh float64 arrays for MBRs — byte-identical to
    :func:`_decode_metadata_page_scalar` (pinned by tests).  Crawls use
    the columnar leaf; this form serves record-at-a-time callers.
    """
    return decode_metadata_leaf(page).records()


def _decode_metadata_page_scalar(page: bytes) -> list:
    """Per-record reference decoder (the original loop); tests pin
    :func:`decode_metadata_page` byte-identical against it."""
    if len(page) != PAGE_SIZE:
        raise ValueError(f"expected a {PAGE_SIZE}-byte page, got {len(page)}")
    count, _flags = _HEADER.unpack_from(page)
    records = []
    offset = PAGE_HEADER_BYTES
    for _ in range(count):
        page_mbr = np.frombuffer(page, dtype=np.float64, count=6, offset=offset).copy()
        offset += MBR_BYTES
        partition_mbr = np.frombuffer(
            page, dtype=np.float64, count=6, offset=offset
        ).copy()
        offset += MBR_BYTES
        object_page_id, n_neighbors = struct.unpack_from("<QI", page, offset)
        offset += POINTER_BYTES + 4
        neighbor_ids = list(
            struct.unpack_from(f"<{n_neighbors}I", page, offset)
        )
        offset += n_neighbors * RECORD_POINTER_BYTES
        records.append((page_mbr, partition_mbr, object_page_id, neighbor_ids))
    return records
