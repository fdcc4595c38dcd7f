"""The seed index: an R-Tree whose leaves hold FLAT's metadata records.

Two roles (Sec. V-B.1/V-B.2):

* **Seeding** — find *one* metadata record whose object page contains an
  element intersecting the query, following a single root-to-leaf path
  (with backtracking only for nearly-empty queries).
* **Record storage** — metadata records are packed into the seed tree's
  leaf pages so that following a neighbor pointer costs at most one
  (usually buffered) metadata-page read.  Records are grouped onto
  leaves by STR tiling of their page MBRs, so each leaf covers a compact
  region and a crawl touches few distinct metadata pages.

Both roles read leaves in one form: the columnar
:class:`~repro.storage.serial.MetadataLeaf` the store's decoded-page
cache serves, decoded by the codec straight from the stored blob.  The
seed descent tests a whole leaf's page MBRs in one vectorized call, and
:meth:`SeedIndex.fetch_records_batch` is a row gather over the
concatenated leaves of a frontier.  Per-record
:class:`~repro.core.metadata.MetadataRecord` objects exist only for the
seed result and the scalar reference accessor :meth:`SeedIndex.fetch_record`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.intersect import boxes_intersect_box
from repro.geometry.mbr import mbr_union_many
from repro.storage.decoded_cache import DECODE_METADATA
from repro.storage.pagestore import PageStore
from repro.storage.serial import (
    MetadataLeaf,
    decode_node_page,
    encode_metadata_page,
)
from repro.storage.stats import CATEGORY_METADATA, CATEGORY_SEED_INTERNAL
from repro.core.metadata import (
    MetadataRecord,
    group_records_spatially,
    pack_records_into_pages,
)
from repro.rtree.rtree import pack_upper_levels
from repro.rtree.str_bulk import str_groups


@dataclass(frozen=True)
class RecordBatch(MetadataLeaf):
    """Many metadata records at once, in the columnar leaf form.

    Produced by :meth:`SeedIndex.fetch_records_batch`: a
    :class:`~repro.storage.serial.MetadataLeaf` whose rows are the
    requested records, in request order.  The crawl engine consumes
    whole BFS frontiers in this form so intersection tests run as
    single vectorized calls instead of per-record Python loops.
    """

    record_ids: np.ndarray        #: (N,) record ids, in request order.


class SeedIndex:
    """Seed tree + metadata records for one FLAT index."""

    def __init__(
        self,
        store: PageStore,
        root_id: int,
        height: int,
        leaf_page_ids: list,
        record_page: np.ndarray,
        record_slot: np.ndarray,
        leaf_record_ids: dict,
        fanout: int | None = None,
    ):
        self.store = store
        self.root_id = root_id
        #: Internal levels above the metadata leaf pages.
        self.height = height
        #: Internal fanout cap the tree was built with (``None`` = full
        #: page fanout); the write path rebuilds upper levels with it.
        self.fanout = fanout
        self.leaf_page_ids = leaf_page_ids
        #: record id -> metadata leaf page id (what an on-disk neighbor
        #: pointer would encode directly).
        self.record_page = record_page
        #: record id -> slot within its leaf page.
        self.record_slot = record_slot
        #: leaf page id -> record ids stored on it, in slot order.
        self.leaf_record_ids = leaf_record_ids
        #: Object page ids probed (read + decoded) by the most recent
        #: :meth:`seed_query` call, in probe order.  The crawl engines
        #: consult this so a page the seed phase already read is not
        #: counted again in :class:`~repro.core.flat_index.CrawlStats`.
        self.last_probe_object_page_ids: list = []

    @property
    def record_count(self) -> int:
        return len(self.record_page)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, store: PageStore, records: list, fanout: int | None = None,
              spatial_grouping: bool = True) -> "SeedIndex":
        """Pack *records* into leaves (STR-grouped) and build the tree.

        ``fanout`` caps the internal-node entry count; ``None`` uses the
        full 4 K page fanout.  Experiments lower it in lockstep with the
        R-Tree baselines for a fair depth-matched comparison.

        ``spatial_grouping=False`` packs records in raw partition order
        instead of STR tiles — kept for the metadata-locality ablation
        benchmark (it produces slab-shaped metadata pages and many more
        metadata reads per crawl).
        """
        if not records:
            raise ValueError("cannot build a seed index without records")
        page_mbrs = np.stack([r.page_mbr for r in records])
        sizes = [r.serialized_bytes() for r in records]
        if spatial_grouping:
            groups = group_records_spatially(page_mbrs, sizes)
        else:
            groups = [
                np.arange(start, end)
                for start, end in pack_records_into_pages(sizes)
            ]

        leaf_page_ids = []
        leaf_mbrs = np.empty((len(groups), 6), dtype=np.float64)
        record_page = np.empty(len(records), dtype=np.int64)
        record_slot = np.empty(len(records), dtype=np.int64)
        leaf_record_ids = {}
        for gi, group in enumerate(groups):
            chunk = [records[i] for i in group]
            payload = encode_metadata_page(
                [
                    (r.page_mbr, r.partition_mbr, r.object_page_id, r.neighbor_ids)
                    for r in chunk
                ]
            )
            page_id = store.allocate(payload, CATEGORY_METADATA)
            leaf_page_ids.append(page_id)
            ids = np.asarray(group, dtype=np.int64)
            leaf_record_ids[page_id] = ids
            record_page[ids] = page_id
            record_slot[ids] = np.arange(len(ids))
            # Leaf entry key: union of the record page MBRs on the leaf
            # (the paper indexes each record with its page MBR as key).
            leaf_mbrs[gi] = mbr_union_many(page_mbrs[ids])

        from repro.storage.constants import NODE_FANOUT

        root_id, height = pack_upper_levels(
            store,
            leaf_page_ids,
            leaf_mbrs,
            str_groups,
            CATEGORY_SEED_INTERNAL,
            NODE_FANOUT if fanout is None else fanout,
        )
        return cls(
            store,
            root_id,
            height,
            leaf_page_ids,
            record_page,
            record_slot,
            leaf_record_ids,
            fanout=fanout,
        )

    def with_store(self, store: PageStore) -> "SeedIndex":
        """A shallow clone reading its pages from *store*.

        The tree layout and record directory are shared read-only (all
        index structures are bulkloaded and immutable); only the store —
        and with it the caches and I/O accounting — is swapped.  Used to
        give each serving worker a stat-isolated view of one index.
        """
        return SeedIndex(
            store,
            self.root_id,
            self.height,
            self.leaf_page_ids,
            self.record_page,
            self.record_slot,
            self.leaf_record_ids,
            fanout=self.fanout,
        )

    # -- record access ------------------------------------------------------

    def fetch_record(self, record_id: int) -> MetadataRecord:
        """Read one metadata record (costs its leaf page on buffer miss).

        This is the scalar reference accessor: it re-decodes the whole
        leaf page on every call, exactly as the original per-record
        crawl did.  Hot paths use :meth:`fetch_records_batch`, which
        decodes each touched leaf at most once per query.
        """
        if not 0 <= record_id < self.record_count:
            raise ValueError(f"record id {record_id} out of range")
        leaf_page_id = int(self.record_page[record_id])
        leaf = self.store.read_metadata(leaf_page_id, cached=False)
        return _record(leaf, int(self.record_slot[record_id]), record_id)

    def fetch_records_batch(self, record_ids) -> RecordBatch:
        """Read many metadata records as one struct-of-arrays batch.

        Every touched leaf is read once — in ascending page-id order —
        and, via the store's decoded-page cache, decoded at most once
        per query, no matter how many of its records the crawl's
        frontiers request.  The batch is then one row gather over the
        concatenated leaves.
        """
        ids = np.atleast_1d(np.asarray(record_ids, dtype=np.int64))
        if ids.size and not (0 <= ids.min() and ids.max() < self.record_count):
            raise ValueError("record id out of range in batch")
        leaf_ids, inverse = np.unique(self.record_page[ids], return_inverse=True)
        leaves = [self.store.read_metadata(leaf) for leaf in leaf_ids.tolist()]
        sizes = np.array([len(leaf) for leaf in leaves], dtype=np.int64)
        rows = (np.cumsum(sizes) - sizes)[inverse] + self.record_slot[ids]
        return RecordBatch(
            record_ids=ids, **MetadataLeaf.concatenate(leaves).take(rows)
        )

    def iter_records(self):
        """Yield every record without I/O accounting (analysis/tests)."""
        for leaf_page_id in self.leaf_page_ids:
            leaf = self.store.decode_silent(DECODE_METADATA, leaf_page_id)
            ids = self.leaf_record_ids[leaf_page_id]
            for slot in range(len(leaf)):
                yield _record(leaf, slot, int(ids[slot]))

    # -- seeding -------------------------------------------------------------

    def seed_query(self, query: np.ndarray):
        """Find one record whose object page holds an element in *query*.

        Depth-first descent reading only intersecting paths; at each
        metadata leaf, candidate records (page MBR intersecting the
        query) have their object page probed, in slot order, until one
        contains a truly intersecting element (Sec. V-B.1).  Returns
        ``(record, matching_element_slots)`` or ``None`` when the query
        is empty.

        Decoded leaves and probed object pages go through the store's
        decoded-page cache, so the crawl that follows never re-decodes a
        page the seed phase already parsed.
        """
        query = np.asarray(query, dtype=np.float64)
        probed: list = []
        self.last_probe_object_page_ids = probed
        stack = [(self.root_id, self.height)]
        while stack:
            page_id, level = stack.pop()
            if level == 0:
                leaf = self.store.read_metadata(page_id)
                candidates = np.flatnonzero(
                    boxes_intersect_box(leaf.page_mbrs, query)
                )
                for slot in candidates.tolist():
                    object_page_id = int(leaf.object_page_ids[slot])
                    probed.append(object_page_id)
                    elements = self.store.read_elements(object_page_id)
                    mask = boxes_intersect_box(elements, query)
                    if mask.any():
                        record_id = int(self.leaf_record_ids[page_id][slot])
                        return _record(leaf, slot, record_id), np.flatnonzero(mask)
                continue
            child_ids, child_mbrs, _leaf = decode_node_page(self.store.read(page_id))
            mask = boxes_intersect_box(child_mbrs, query)
            for cid in child_ids[mask][::-1]:
                stack.append((int(cid), level - 1))
        return None

    # -- introspection ---------------------------------------------------------

    def internal_node_count(self) -> int:
        """Number of internal (non-leaf) seed tree pages."""
        count = 0
        stack = [(self.root_id, self.height)]
        while stack:
            page_id, level = stack.pop()
            if level == 0:
                continue
            count += 1
            child_ids, _mbrs, _leaf = decode_node_page(self.store.read_silent(page_id))
            for cid in child_ids:
                stack.append((int(cid), level - 1))
        return count


def _record(leaf: MetadataLeaf, slot: int, record_id: int) -> MetadataRecord:
    """One row of a decoded leaf as a standalone :class:`MetadataRecord`."""
    return MetadataRecord(
        record_id=record_id,
        page_mbr=leaf.page_mbrs[slot].copy(),
        partition_mbr=leaf.partition_mbrs[slot].copy(),
        object_page_id=int(leaf.object_page_ids[slot]),
        neighbor_ids=tuple(leaf.neighbors(slot).tolist()),
    )
