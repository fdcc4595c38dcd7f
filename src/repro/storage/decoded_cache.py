"""Memoized page decoding: the CPU-side counterpart of the buffer pool.

The buffer pool holds each page's stored *blob* and absorbs repeated
physical reads; turning a blob into something a crawl can use is
codec work on top of that.  :class:`DecodedPageCache` memoizes the
decoded form per page id, so a crawl touching the same leaf for every
record on it pays CPU proportional to the pages it touches, not to
frontier-size x page-size.  The decoded forms, built by the codec
straight from the blob (:meth:`PageCodec.decode_metadata
<repro.storage.codec.PageCodec.decode_metadata>` and
:meth:`~repro.storage.codec.PageCodec.decode_elements`), are:

* ``DECODE_METADATA`` — a :class:`~repro.storage.serial.MetadataLeaf`:
  the leaf's records as columns (page MBRs, partition MBRs, object
  page ids, CSR neighbor lists), the one decoded form of a metadata
  page every crawl, the seed descent and the prefetcher consume;
* ``DECODE_ELEMENT`` — an ``(N, 6)`` float64 array of element MBRs.

A hit never calls the codec.  Decoded objects are shared between
callers (and staged by the prefetcher into other stores' caches), so
they must be treated as read-only.  The write path invalidates single
entries through :meth:`DecodedPageCache.discard` when a page is
rewritten in place; :meth:`clear` drops everything, mirroring the
paper's between-query cache clearing.
"""

from __future__ import annotations

from repro.storage.buffer import BufferPool

#: Decode kinds, used as counter keys in :class:`~repro.storage.stats.IOStats`.
DECODE_METADATA = "metadata"
DECODE_ELEMENT = "element"


class DecodedPageCache:
    """Per-page-id memo of decoded page contents.

    ``capacity=None`` means unbounded (the within-a-query working set);
    a bounded cache evicts in LRU order.  The LRU mechanics are the
    buffer pool's, reused with ``(kind, page_id)`` keys and decoded
    objects as values, so there is exactly one eviction implementation
    in the storage layer.
    """

    def __init__(self, capacity: int | None = None):
        self._pool = BufferPool(capacity)

    # -- access --------------------------------------------------------

    def get_or_decode(self, kind: str, page_id: int, payload: bytes, decoder,
                      stats=None):
        """The decoded *payload*, decoding (and memoizing) at most once.

        ``stats`` is an optional :class:`~repro.storage.stats.IOStats`
        that receives per-kind decode hit/miss counts, so query harnesses
        can report decode work next to page reads.
        """
        key = (kind, page_id)
        cached = self._pool.get(key)
        if stats is not None:
            stats.record_decode(kind, hit=cached is not None)
        if cached is not None:
            return cached
        decoded = decoder(payload)
        self._pool.put(key, decoded)
        return decoded

    def seed(self, kind: str, page_id: int, decoded) -> None:
        """Insert an already-decoded page without touching any counter.

        Used by the prefetch consumption path: the decode happened
        earlier, on the prefetcher's store (and was counted there), so
        planting its result here must not register as a hit or miss.
        """
        self._pool.put((kind, page_id), decoded)

    def discard(self, page_id: int) -> None:
        """Drop any decoded form of one page (write-path invalidation)."""
        self._pool.discard((DECODE_METADATA, page_id))
        self._pool.discard((DECODE_ELEMENT, page_id))

    def clear(self) -> None:
        """Drop every decoded page (paired with buffer-pool clearing)."""
        self._pool.clear()

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, key: tuple) -> bool:
        return key in self._pool

    @property
    def capacity(self) -> int | None:
        return self._pool.capacity

    @property
    def hits(self) -> int:
        return self._pool.hits

    @property
    def misses(self) -> int:
        return self._pool.misses

    @property
    def evictions(self) -> int:
        return self._pool.evictions

    @property
    def lookups(self) -> int:
        """Total accesses (hits + misses)."""
        return self._pool.lookups

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that skipped a decode."""
        return self._pool.hit_rate

    def __repr__(self) -> str:
        cap = "unbounded" if self.capacity is None else self.capacity
        return (
            f"DecodedPageCache(capacity={cap}, size={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
