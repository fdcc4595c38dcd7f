"""The columnar metadata leaf: the one decoded form of a seed-tree leaf.

Two contracts are pinned here:

* every codec path — ``raw``, and ``delta64``'s structured, opaque and
  stored modes — decodes a metadata page into a
  :class:`~repro.storage.serial.MetadataLeaf` that equals the
  per-record reference decoder field by field, and corrupt blobs raise
  instead of returning a leaf;
* the read path does no codec work it does not need: a buffer-pool hit
  never reaches the backend, and a decoded-cache hit never calls the
  codec, on the memory and the file backend alike.
"""

import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    FilePageStore,
    MemoryPageBackend,
    PAGE_SIZE,
    PageCodec,
    PageStore,
    get_codec,
)
from repro.storage.codec import (
    CodecError,
    Delta64Codec,
    _zigzag,
    encode_varints,
)
from repro.storage.constants import PAGE_HEADER_BYTES
from repro.storage.serial import (
    _decode_metadata_page_scalar,
    decode_metadata_leaf,
    encode_element_page,
    encode_metadata_leaf,
    encode_metadata_page,
    metadata_record_bytes,
)

GRID = 2.0**-16
MAX_RECORDS = (PAGE_SIZE - PAGE_HEADER_BYTES) // metadata_record_bytes(0)
DELTA64 = Delta64Codec()


def blob_for(mode: str, page: bytes) -> tuple:
    """``(codec, blob)`` storing *page* through one decode path."""
    if mode == "raw":
        return get_codec("raw"), page
    if mode == "structured":
        blob = DELTA64._encode_metadata(page)
        assert blob is not None and blob[0] == 4
        return DELTA64, blob
    if mode == "opaque":
        return DELTA64, DELTA64._encode_opaque(page)
    assert mode == "stored"
    return DELTA64, bytes([0]) + page


def assert_leaf_matches_scalar(leaf, page):
    reference = _decode_metadata_page_scalar(page)
    assert len(leaf) == len(reference)
    assert leaf.page_mbrs.dtype == leaf.partition_mbrs.dtype == np.float64
    assert leaf.object_page_ids.dtype == np.int64
    assert leaf.neighbor_ids.dtype == np.int64
    assert leaf.neighbor_offsets.tolist()[0] == 0
    assert len(leaf.neighbor_offsets) == len(reference) + 1
    object_page_ids = leaf.object_page_ids.view(np.uint64).tolist()
    for i, (page_mbr, partition_mbr, object_page_id, neighbors) in enumerate(
        reference
    ):
        assert leaf.page_mbrs[i].tobytes() == page_mbr.tobytes()
        assert leaf.partition_mbrs[i].tobytes() == partition_mbr.tobytes()
        assert object_page_ids[i] == object_page_id
        assert leaf.neighbors(i).tolist() == neighbors


def records_page(neighbor_counts, seed=0, grid=True):
    rng = np.random.default_rng(seed)
    records = []
    for i, count in enumerate(neighbor_counts):
        coords = rng.uniform(-100, 100, size=12)
        if grid:
            coords = np.round(coords / GRID) * GRID
        records.append((
            coords[:6],
            coords[6:],
            int(rng.integers(0, 2**63)) + i,
            [int(x) for x in rng.integers(0, 2**32, size=count)],
        ))
    return encode_metadata_page(records)


#: Zero records, records without neighbors, and a page filled to the
#: last byte (37 bare records plus 21 neighbor ids).
EDGE_PAGES = {
    "empty": [],
    "no_neighbors": [0, 0, 0],
    "full": [21] + [0] * (MAX_RECORDS - 1),
}

MODES = ("raw", "structured", "opaque", "stored")


class TestEdgePages:
    def test_full_page_fills_every_byte(self):
        used = PAGE_HEADER_BYTES + sum(
            metadata_record_bytes(n) for n in EDGE_PAGES["full"]
        )
        assert used == PAGE_SIZE

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", sorted(EDGE_PAGES))
    def test_every_mode_matches_scalar(self, mode, shape):
        page = records_page(EDGE_PAGES[shape])
        codec, blob = blob_for(mode, page)
        assert_leaf_matches_scalar(codec.decode_metadata(blob), page)
        assert codec.decode(blob, CATEGORY_METADATA) == page


@st.composite
def metadata_pages(draw, coordinate):
    count = draw(st.integers(0, MAX_RECORDS))
    budget = (PAGE_SIZE - PAGE_HEADER_BYTES) // 4 - count * 27
    records = []
    for i in range(count):
        neighbors = draw(
            st.lists(st.integers(0, 2**32 - 1), max_size=min(budget, 16))
        )
        budget -= len(neighbors)
        coords = draw(st.lists(coordinate, min_size=12, max_size=12))
        records.append((
            np.array(coords[:6], dtype=np.float64),
            np.array(coords[6:], dtype=np.float64),
            draw(st.integers(0, 2**64 - 1)),
            neighbors,
        ))
    return encode_metadata_page(records)


grid_coordinates = st.integers(-(2**34), 2**34).map(lambda i: i * GRID)
any_coordinates = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, float("nan"), 1e308]
)


@settings(max_examples=40, deadline=None)
@given(metadata_pages(grid_coordinates))
def test_grid_pages_decode_identically_through_every_mode(page):
    for mode in MODES:
        codec, blob = blob_for(mode, page)
        assert_leaf_matches_scalar(codec.decode_metadata(blob), page)


@settings(max_examples=40, deadline=None)
@given(metadata_pages(any_coordinates))
def test_arbitrary_pages_decode_identically(page):
    for mode in ("raw", "opaque", "stored"):
        codec, blob = blob_for(mode, page)
        assert_leaf_matches_scalar(codec.decode_metadata(blob), page)
    # Whatever mode the encoder picks, the served leaf is the page's.
    blob = DELTA64.encode(page, CATEGORY_METADATA)
    assert_leaf_matches_scalar(DELTA64.decode_metadata(blob), page)
    assert encode_metadata_leaf(decode_metadata_leaf(page)) == page


# -- corrupt blobs ----------------------------------------------------------


def rewrite_stream(blob: bytes, edit) -> bytes:
    """A structured metadata blob with its deflated stream edited."""
    cut = DELTA64._METADATA_HEAD.size + 48
    stream = edit(zlib.decompress(blob[cut:]))
    return blob[:cut] + zlib.compress(stream)


def assert_rejected(codec, blob):
    with pytest.raises((CodecError, ValueError)):
        codec.decode_metadata(blob)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODES), st.data())
def test_truncated_blobs_never_decode(mode, data):
    page = records_page([3, 0, 5])
    codec, blob = blob_for(mode, page)
    cut = data.draw(st.integers(0, len(blob) - 1))
    assert_rejected(codec, blob[:cut])


class TestCorruptBlobs:
    def test_raw_record_count_overflowing_the_page(self):
        page = bytearray(records_page([900]))
        # Records 2..5 would start inside the padding; the fifth ends
        # past the page.
        page[:8] = (5).to_bytes(8, "little")
        assert_rejected(get_codec("raw"), bytes(page))
        page[:8] = (MAX_RECORDS + 1).to_bytes(8, "little")
        assert_rejected(get_codec("raw"), bytes(page))

    def test_raw_neighbor_list_running_past_the_page(self):
        page = bytearray(records_page([2]))
        count_at = PAGE_HEADER_BYTES + 104
        page[count_at:count_at + 4] = (5000).to_bytes(4, "little")
        assert_rejected(get_codec("raw"), bytes(page))

    def test_structured_neighbor_counts_overflowing_the_page(self):
        _codec, blob = blob_for("structured", records_page([1]))

        def overflow(stream):
            # One record (96 coordinate + 8 object-id bytes), its
            # neighbor count forged to 1000 with 1000 zero varints: a
            # consistent stream whose records cannot fit on a page.
            counts = (1000).to_bytes(4, "little")
            return stream[:104] + counts + b"\x00" * 1000

        assert_rejected(DELTA64, rewrite_stream(blob, overflow))

    def test_structured_record_count_disagreeing_with_stream(self):
        _codec, blob = blob_for("structured", records_page([2, 2]))
        forged = bytes([blob[0]]) + (40).to_bytes(2, "little") + blob[3:]
        assert_rejected(DELTA64, forged)

    @pytest.mark.parametrize("neighbor", [2**32, 2**40, -1])
    def test_structured_neighbor_outside_u32(self, neighbor):
        _codec, blob = blob_for("structured", records_page([1]))

        def forge(stream):
            return stream[:108] + encode_varints(
                _zigzag(np.array([neighbor], dtype=np.int64))
            )

        assert_rejected(DELTA64, rewrite_stream(blob, forge))

    def test_unknown_mode(self):
        assert_rejected(DELTA64, bytes([250]) + b"x" * 64)
        assert_rejected(DELTA64, b"")


# -- no codec work on cache hits -------------------------------------------


class CountingCodec(PageCodec):
    """Delegates to a registered codec, counting every decode call."""

    def __init__(self, inner: str):
        self.inner = get_codec(inner)
        self.name = f"counting-{inner}"
        self.calls = Counter()

    def encode(self, payload, category):
        return self.inner.encode(payload, category)

    def decode(self, blob, category):
        self.calls["decode"] += 1
        return self.inner.decode(blob, category)

    def decode_metadata(self, blob):
        self.calls["decode_metadata"] += 1
        return self.inner.decode_metadata(blob)

    def decode_elements(self, blob):
        self.calls["decode_elements"] += 1
        return self.inner.decode_elements(blob)


@pytest.fixture(params=["memory", "file"])
def backing(request):
    return request.param


@pytest.fixture(params=["raw", "delta64"])
def counting_store(request, backing, tmp_path):
    codec = CountingCodec(request.param)
    if backing == "memory":
        store = PageStore(backend=MemoryPageBackend(codec=codec))
    else:
        store = FilePageStore.create(tmp_path / "store", codec=codec)
    metadata = store.allocate(records_page([4, 0, 2]), CATEGORY_METADATA)
    mbrs = np.round(np.random.default_rng(1).uniform(0, 9, (20, 6)) / GRID) * GRID
    elements = store.allocate(encode_element_page(mbrs), CATEGORY_OBJECT)
    codec.calls.clear()
    yield store, codec, metadata, elements
    if backing == "file":
        store.close()


class TestNoCodecWorkOnHits:
    def test_decoded_hits_never_call_the_codec(self, counting_store):
        store, codec, metadata, elements = counting_store
        leaf = store.read_metadata(metadata)
        mbrs = store.read_elements(elements)
        # Cold: one direct decode each, and no logical page built.
        assert codec.calls == {"decode_metadata": 1, "decode_elements": 1}
        for _ in range(3):
            assert store.read_metadata(metadata) is leaf
            assert store.read_elements(elements) is mbrs
        assert codec.calls == {"decode_metadata": 1, "decode_elements": 1}
        assert store.stats.cache_hits == 6
        assert store.stats.decode_hits == {"metadata": 3, "element": 3}
        assert store.stats.decode_misses == {"metadata": 1, "element": 1}

    def test_buffer_hits_never_reach_the_backend(self, counting_store,
                                                 monkeypatch):
        store, codec, metadata, _elements = counting_store
        backend_reads = []
        original = store.backend.blob

        def blob(page_id):
            backend_reads.append(page_id)
            return original(page_id)

        monkeypatch.setattr(store.backend, "blob", blob)
        first = store.fetch(metadata)
        assert store.fetch(metadata) is first
        assert backend_reads == [metadata]
        assert not codec.calls
        # A buffer hit with a decoded miss decodes the pooled blob once.
        store.decoded.clear()
        assert_leaf_matches_scalar(
            store.read_metadata(metadata), records_page([4, 0, 2])
        )
        assert backend_reads == [metadata]
        assert codec.calls == {"decode_metadata": 1}
        assert store.stats.reads == {CATEGORY_METADATA: 1}
        assert store.stats.cache_hits == 2


def test_leaf_parse_rejects_wrong_page_size():
    with pytest.raises(ValueError):
        decode_metadata_leaf(b"\x00" * 100)
