"""Differential guarantee: the batched crawl equals the scalar crawl.

The frontier-batched BFS in ``FLATIndex.range_query`` must read exactly
the same set of pages and return exactly the same element ids as the
record-at-a-time reference crawl (``range_query_scalar``), on every
dataset and query.  These tests pin that property on random uniform
data, on the microcircuit generator, and through the batch record API
itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FLATIndex
from repro.data.microcircuit import build_microcircuit
from repro.storage import DECODE_METADATA, PageStore


def random_mbrs(n, seed=0, span=100.0, extent=2.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, span, size=(n, 3))
    return np.concatenate([lo, lo + rng.uniform(0.01, extent, size=(n, 3))], axis=1)


def traced_pages(store, fn, query):
    """Run ``fn(query)`` cold-cached, recording every page id read."""
    pages = []
    original_fetch = store.fetch

    def fetch(page_id):
        pages.append(page_id)
        return original_fetch(page_id)

    store.clear_cache()
    store.fetch = fetch
    try:
        result = fn(query)
    finally:
        store.fetch = original_fetch
    return result, pages


def assert_crawls_identical(flat, store, query):
    new_result, new_pages = traced_pages(store, flat.range_query, query)
    old_result, old_pages = traced_pages(store, flat.range_query_scalar, query)
    assert np.array_equal(new_result, old_result)
    assert set(new_pages) == set(old_pages)


class TestDifferentialUniform:
    @pytest.mark.parametrize("n", [40, 500, 2500])
    def test_random_queries_read_same_pages(self, n):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(n, seed=n))
        rng = np.random.default_rng(n + 1)
        for _ in range(12):
            lo = rng.uniform(-5, 105, size=3)
            query = np.concatenate([lo, lo + rng.uniform(0.5, 30, size=3)])
            assert_crawls_identical(flat, store, query)

    def test_physical_read_counters_match(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(3000, seed=1))
        query = np.array([20.0, 20, 20, 70, 70, 70])

        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query(query)
        new_reads = store.stats.diff(before).reads

        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query_scalar(query)
        old_reads = store.stats.diff(before).reads
        assert new_reads == old_reads

    def test_batched_crawl_decodes_fewer_metadata_pages(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(4000, seed=2))
        query = np.array([10.0, 10, 10, 80, 80, 80])

        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query(query)
        batched = store.stats.diff(before).decodes_in(DECODE_METADATA)

        store.clear_cache()
        before = store.stats.snapshot()
        flat.range_query_scalar(query)
        scalar = store.stats.diff(before).decodes_in(DECODE_METADATA)
        assert batched < scalar
        # The batched engine decodes each touched metadata page once.
        assert batched <= flat.metadata_page_count


class TestDifferentialMicrocircuit:
    def test_sn_style_queries(self):
        circuit = build_microcircuit(6000, side=15.0, seed=3)
        store = PageStore()
        flat = FLATIndex.build(store, circuit.mbrs(), space_mbr=circuit.space_mbr)
        rng = np.random.default_rng(4)
        space = circuit.space_mbr
        span = space[3:] - space[:3]
        for frac in (5e-6, 5e-3):
            side = span * frac ** (1 / 3)
            for _ in range(8):
                lo = space[:3] + rng.uniform(0, 1, size=3) * (span - side)
                query = np.concatenate([lo, lo + side])
                assert_crawls_identical(flat, store, query)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**31), st.integers(0, 2**31))
def test_differential_property(n, data_seed, query_seed):
    store = PageStore()
    flat = FLATIndex.build(store, random_mbrs(n, seed=data_seed))
    rng = np.random.default_rng(query_seed)
    lo = rng.uniform(-10, 100, size=3)
    query = np.concatenate([lo, lo + rng.uniform(0, 40, size=3)])
    assert_crawls_identical(flat, store, query)


class TestRecordBatchAPI:
    def test_batch_matches_scalar_fetch(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(1500, seed=5))
        seed = flat.seed_index
        rng = np.random.default_rng(6)
        ids = rng.choice(seed.record_count, size=min(60, seed.record_count),
                         replace=False)
        batch = seed.fetch_records_batch(ids)
        assert np.array_equal(batch.record_ids, ids)
        for pos, record_id in enumerate(ids):
            record = seed.fetch_record(int(record_id))
            assert np.array_equal(batch.page_mbrs[pos], record.page_mbr)
            assert np.array_equal(batch.partition_mbrs[pos], record.partition_mbr)
            assert batch.object_page_ids[pos] == record.object_page_id
            start, end = batch.neighbor_offsets[pos], batch.neighbor_offsets[pos + 1]
            assert tuple(batch.neighbor_ids[start:end]) == record.neighbor_ids

    def test_batch_decodes_each_leaf_once(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(2000, seed=7))
        seed = flat.seed_index
        store.clear_cache()
        before = store.stats.snapshot()
        seed.fetch_records_batch(np.arange(seed.record_count))
        delta = store.stats.diff(before)
        assert delta.decodes_in(DECODE_METADATA) == flat.metadata_page_count

    def test_empty_batch(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(100, seed=8))
        batch = flat.seed_index.fetch_records_batch(np.empty(0, dtype=np.int64))
        assert len(batch) == 0
        assert batch.neighbors_of(np.empty(0, dtype=bool)).size == 0

    def test_out_of_range_batch_rejected(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(100, seed=9))
        with pytest.raises(ValueError):
            flat.seed_index.fetch_records_batch([flat.seed_index.record_count])

    def test_neighbors_of_gathers_selected_rows(self):
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(1200, seed=10))
        seed = flat.seed_index
        ids = np.arange(min(30, seed.record_count))
        batch = seed.fetch_records_batch(ids)
        mask = np.zeros(len(batch), dtype=bool)
        mask[::3] = True
        expected = np.concatenate(
            [
                np.asarray(seed.fetch_record(int(i)).neighbor_ids, dtype=np.int64)
                for i in ids[mask]
            ]
            or [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(batch.neighbors_of(mask), expected)


class TestResultCountRegression:
    def test_result_count_zero_when_crawl_finds_nothing(self):
        # A query that seeds but yields no intersecting elements must
        # still leave result_count == 0 (it was previously left unset on
        # the early-return path).  Force the situation via a query that
        # misses everything: seeding fails, crawl returns empty.
        store = PageStore()
        flat = FLATIndex.build(store, random_mbrs(300, seed=11))
        out = flat.range_query(np.array([500.0, 500, 500, 501, 501, 501]))
        assert len(out) == 0
        assert flat.last_crawl_stats.result_count == 0

        out = flat.range_query_scalar(np.array([500.0, 500, 500, 501, 501, 501]))
        assert len(out) == 0
        assert flat.last_crawl_stats.result_count == 0

    def test_result_count_always_matches_result_length(self):
        store = PageStore()
        mbrs = random_mbrs(800, seed=12)
        flat = FLATIndex.build(store, mbrs)
        rng = np.random.default_rng(13)
        for _ in range(20):
            lo = rng.uniform(-20, 110, size=3)
            query = np.concatenate([lo, lo + rng.uniform(0.1, 15, size=3)])
            out = flat.range_query(query)
            assert flat.last_crawl_stats.result_count == len(out)
