"""What the traced run wraps, and how spans become per-layer metrics.

Span names follow the library's module layout (``storage.codec.decode``
is :meth:`PageCodec.decode <repro.storage.codec.PageCodec.decode>` of
every codec class, ...).  Spans whose root — the outermost wrapped call
on their thread — is a query crawl are *query-path* spans; spans under
an ``apply_updates`` root are *write-path* spans; the trajectory
prefetcher's staging crawl is its own root.  Per-query metrics divide
query-path totals by the requests that caused them — engine crawls for
a :class:`QueryService`, router requests for the cluster — so warm-up
and check queries outside the timed window are counted on both sides;
per-merge metrics divide write-path totals by the timed commits that
published a generation (merges and rolling updates); the untimed
warm-up commits of the write probe run untraced, so neither side
counts them.
"""

from __future__ import annotations

import bisect

#: Root span of one engine crawl (thread worker, process worker, shard server).
QUERY_ROOT = "core.flat_index.range_query"
#: Root span of one trajectory-prefetch staging crawl.
PREFETCH_ROOT = "query.prefetch.prefetch"
#: Root span of a worker process (or shard server) restoring a served
#: generation from its snapshot directory.
RESTORE_ROOT = "core.snapshot.restore_index"
#: Root spans of the router's per-query scatter/gather.
ROUTER_ROOTS = ("query.cluster.run", "query.cluster.range_query")
#: Root spans of a commit.
WRITE_ROOTS = ("query.service.apply_updates", "query.cluster.apply_updates")

SERIAL_PARSERS = (
    "storage.serial.decode_metadata_page",
    "storage.serial.decode_element_page",
    "storage.serial.decode_node_page",
)

#: Every per-layer metric the traced run emits: ``(name, unit)``.
PER_LAYER = (
    ("storage.codec.decode_ms", "ms/query"),
    ("storage.codec.decodes", "1/query"),
    ("storage.serial.parse_ms", "ms/query"),
    ("storage.reads.metadata", "pages/query"),
    ("storage.reads.object", "pages/query"),
    ("storage.reads.seed_internal", "pages/query"),
    ("storage.buffer.hit_rate", "ratio"),
    ("storage.decoded.hit_rate", "ratio"),
    ("storage.filestore.commit_ms", "ms/merge"),
    ("storage.filestore.ship_ms", "ms/merge"),
    ("storage.filestore.ship_bytes", "bytes/merge"),
    ("core.build_s", "s"),
    ("core.snapshot_s", "s"),
    ("core.restore_s", "s"),
    ("core.seed_index.seed_ms", "ms/query"),
    ("core.seed_index.fetch_ms", "ms/query"),
    ("core.flat_index.crawl_self_ms", "ms/query"),
    ("core.flat_index.records_per_result", "ratio"),
    ("core.delta.overlay_ms", "ms/query"),
    ("core.apply_batch_ms", "ms/merge"),
    ("core.snapshot.publish_ms", "ms/merge"),
    ("core.snapshot.restore_ms", "ms/query"),
    ("query.service.dispatch_ms", "ms/query"),
    ("query.prefetch.hit_rate", "ratio"),
    ("query.prefetch.stage_ms", "ms/query"),
    ("query.prefetch.waste_frac", "ratio"),
    ("query.cluster.router_ms", "ms/query"),
    ("query.cluster.shards_per_query", "1/query"),
    ("query.cluster.server_rss_mb", "MB"),
    ("query.cluster.server_rss_growth_mb", "MB/update"),
    ("query.service.worker_rss_mb", "MB"),
    ("trace.covered_ms", "ms/query"),
    ("trace.residual_ms", "ms/query"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
)


# -- counter hooks ---------------------------------------------------------


def _bump(counters, root, name, by=1) -> None:
    key = (root, name)
    counters[key] = counters.get(key, 0) + by


def _arg(args, kwargs, position, name, default=None):
    """A recorder argument, whether passed by position or keyword."""
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _on_read(counters, root, args, kwargs, _before, _result) -> None:
    category = _arg(args, kwargs, 1, "category")
    _bump(counters, root, f"reads.{category}", _arg(args, kwargs, 2, "pages", 1))


def _on_cache_hit(counters, root, _args, _kwargs, _before, _result) -> None:
    _bump(counters, root, "buffer.hits")


def _on_prefetch_hit(counters, root, args, kwargs, _before, _result) -> None:
    _bump(counters, root, "prefetch.hits", _arg(args, kwargs, 2, "pages", 1))


def _on_decode(counters, root, args, kwargs, _before, _result) -> None:
    hit = _arg(args, kwargs, 2, "hit")
    _bump(counters, root, "decoded.hits" if hit else "decoded.misses")


def _staged(area, *_args, **_kwargs):
    return area.staged


def _consumed(area, *_args, **_kwargs):
    return area.consumed


def _on_stage(counters, root, args, _kwargs, before, _result) -> None:
    # Re-staging a staged page is a no-op, so count the area's own
    # staged counter, not the calls.
    _bump(counters, root, "prefetch.staged", args[0].staged - before)


def _on_take(counters, root, args, _kwargs, before, _result) -> None:
    _bump(counters, root, "prefetch.consumed", args[0].consumed - before)


def _on_crawl(counters, root, args, _kwargs, _before, _result) -> None:
    stats = getattr(args[0], "last_crawl_stats", None)
    if stats is not None:
        _bump(counters, root, "crawl.records", stats.records_dequeued)
        _bump(counters, root, "crawl.results", stats.result_count)


def _on_ship(counters, root, _args, _kwargs, _before, result) -> None:
    _bump(counters, root, "ship.bytes", int(result.bytes_sent))


def install_targets(tracer) -> None:
    """Wrap every traced library function (called by ``Tracer.install``)."""
    from repro.core import snapshot as snapshot_module
    from repro.core.delta import DeltaIndex
    from repro.core.flat_index import FLATIndex
    from repro.core.seed_index import SeedIndex
    from repro.query.cluster import ClusterRouter
    from repro.query.prefetch import PrefetchArea, Prefetcher
    from repro.query.service import QueryService
    from repro.storage import codec as codec_module
    from repro.storage import filestore, serial
    from repro.storage.stats import IOStats

    codec_classes = [codec_module.PageCodec]
    codec_classes += codec_module.PageCodec.__subclasses__()
    for cls in codec_classes:
        if "decode" in cls.__dict__:
            tracer.span(cls, "decode", "storage.codec.decode")
    for name in SERIAL_PARSERS:
        tracer.span(serial, name.rsplit(".", 1)[1], name)
    tracer.span(SeedIndex, "seed_query", "core.seed_index.seed_query")
    tracer.span(SeedIndex, "fetch_records_batch",
                "core.seed_index.fetch_records_batch")
    tracer.span(FLATIndex, "range_query", QUERY_ROOT, hook=_on_crawl)
    tracer.span(FLATIndex, "apply_batch", "core.flat_index.apply_batch")
    tracer.span(DeltaIndex, "overlay", "core.delta.overlay")
    tracer.span(snapshot_module, "publish_fork_generation",
                "core.snapshot.publish_fork_generation")
    tracer.span(snapshot_module, "restore_index", RESTORE_ROOT)
    # A merge publishes through append_overlay_generation; a fresh
    # store through commit_generation.  Both are "the commit".
    tracer.span(filestore.FilePageBackend, "commit_generation",
                "storage.filestore.commit")
    tracer.span(filestore, "append_overlay_generation",
                "storage.filestore.commit")
    tracer.span(filestore, "ship_store_generation",
                "storage.filestore.ship_store_generation", hook=_on_ship)
    tracer.span(Prefetcher, "prefetch", PREFETCH_ROOT)
    tracer.span(QueryService, "apply_updates", WRITE_ROOTS[0])
    tracer.span(ClusterRouter, "apply_updates", WRITE_ROOTS[1])
    tracer.span(ClusterRouter, "run", ROUTER_ROOTS[0])
    tracer.span(ClusterRouter, "range_query", ROUTER_ROOTS[1])
    tracer.count(IOStats, "record_read", _on_read)
    tracer.count(IOStats, "record_cache_hit", _on_cache_hit)
    tracer.count(IOStats, "record_prefetch_hit", _on_prefetch_hit)
    tracer.count(IOStats, "record_decode", _on_decode)
    tracer.count(PrefetchArea, "stage", _on_stage, pre=_staged)
    tracer.count(PrefetchArea, "take", _on_take, pre=_consumed)


# -- metric derivation -----------------------------------------------------


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def _union_within(outer: list, inner: list) -> float:
    """Total length of the union of *inner* intervals inside each *outer*."""
    inner = sorted(inner)
    starts = [start for start, _end in inner]
    longest = max((end - start for start, end in inner), default=0.0)
    total = 0.0
    for a, b in outer:
        cursor = a
        k = bisect.bisect_left(starts, a - longest)
        while k < len(inner) and inner[k][0] < b:
            start, end = max(inner[k][0], cursor), min(inner[k][1], b)
            if end > start:
                total += end - start
                cursor = end
            k += 1
    return total


def layer_metrics(collected: dict, phase: dict) -> dict:
    """Per-layer metric values from merged trace data.

    *phase* describes the traced phase: ``mean_latency_ms`` of the
    timed window's queries and the window's ``perf_counter`` bounds
    (``window``), ``merges``, ``in_task`` (staging crawls and restores
    run inside the query's request), ``cluster``, the setup
    timings, the tracing overhead and the measured RSS and shard figures.
    """
    agg = collected["agg"]
    counters = collected["counters"]
    merges = phase["merges"]
    # Root spans of this (the router's) process, and of every other one.
    own_roots = [(name, start, end) for pid, name, start, end in collected["roots"]
                 if pid == collected["pid"]]
    other_roots = [(name, start, end) for pid, name, start, end in collected["roots"]
                   if pid != collected["pid"]]

    def total(names, roots=None, field=2):
        names = (names,) if isinstance(names, str) else names
        return sum(
            value[field]
            for (root, name), value in agg.items()
            if name in names and (roots is None or root in roots)
        )

    def count(names, roots=None):
        return total(names, roots, field=0)

    def counter(name, roots=None):
        return sum(
            value for (root, key), value in counters.items()
            if key == name and (roots is None or root in roots)
        )

    query = (QUERY_ROOT,)
    if phase["cluster"]:
        # Mid-roll checks nest under apply_updates: count every call.
        requests = count(ROUTER_ROOTS)
    else:
        requests = count(QUERY_ROOT, query)
    queries = max(requests, 1)
    per_query_ms = lambda seconds: 1000.0 * seconds / queries  # noqa: E731
    per_merge = lambda value: _ratio(value, merges)  # noqa: E731

    reads = {
        category: counter(f"reads.{category}", query)
        for category in ("metadata", "object", "seed_internal")
    }
    demand_reads = sum(
        value for (root, key), value in counters.items()
        if root == QUERY_ROOT and key.startswith("reads.")
    )
    buffer_hits = counter("buffer.hits", query)
    prefetch_hits = counter("prefetch.hits", query)
    decoded_hits = counter("decoded.hits", query)
    decoded_misses = counter("decoded.misses", query)

    engine_s = total(QUERY_ROOT, query, field=1)
    prefetch_s = total(PREFETCH_ROOT, (PREFETCH_ROOT,), field=1)
    # Restores in other processes during the timed window: worker
    # processes loading a new version inside a query task, shard servers
    # reloading after a roll.  (The write probe after the window makes
    # every check query restore; those queries have no window latency.)
    first, last = phase["window"]
    restore_s = sum(end - start for name, start, end in other_roots
                    if name == RESTORE_ROOT and first <= start <= last)
    mean_latency_ms = phase["mean_latency_ms"]
    if phase["cluster"]:
        # The router span covers the whole request; inside it, the part
        # no shard server spent crawling (or staging) is router time:
        # scatter, wire, gather.  Server spans line up with router spans
        # on the shared monotonic clock, and parallel shards count once.
        # Only the timed window's requests (``run``) enter the residual.
        router = [(start, end) for name, start, end in own_roots
                  if name == ROUTER_ROOTS[0]]
        servers = [(start, end) for name, start, end in other_roots
                   if name in (QUERY_ROOT, PREFETCH_ROOT)]
        router_s = sum(end - start for start, end in router)
        spans = max(len(router), 1)
        covered_ms = 1000.0 * router_s / spans
        router_ms = 1000.0 * (router_s - _union_within(router, servers)) / spans
        dispatch_ms = 0.0
    else:
        # The engine task covers the request inside the worker; in
        # process mode the staging crawl and the restore of a newly
        # committed version run inside that task too.
        in_task = prefetch_s + restore_s if phase["in_task"] else 0.0
        covered_ms = per_query_ms(engine_s + in_task)
        router_ms = 0.0
        dispatch_ms = mean_latency_ms - covered_ms

    staged = counter("prefetch.staged")
    consumed = counter("prefetch.consumed")
    values = {
        "storage.codec.decode_ms": per_query_ms(total("storage.codec.decode", query)),
        "storage.codec.decodes": count("storage.codec.decode", query) / queries,
        "storage.serial.parse_ms": per_query_ms(total(SERIAL_PARSERS, query)),
        "storage.reads.metadata": reads["metadata"] / queries,
        "storage.reads.object": reads["object"] / queries,
        "storage.reads.seed_internal": reads["seed_internal"] / queries,
        "storage.buffer.hit_rate": _ratio(
            buffer_hits, buffer_hits + demand_reads + prefetch_hits
        ),
        "storage.decoded.hit_rate": _ratio(
            decoded_hits, decoded_hits + decoded_misses
        ),
        "storage.filestore.commit_ms": 1000.0 * per_merge(total(
            "storage.filestore.commit", WRITE_ROOTS, field=1
        )),
        "storage.filestore.ship_ms": 1000.0 * per_merge(total(
            "storage.filestore.ship_store_generation", WRITE_ROOTS, field=1
        )),
        "storage.filestore.ship_bytes": per_merge(counter("ship.bytes", WRITE_ROOTS)),
        "core.build_s": phase["build_s"],
        "core.snapshot_s": phase["snapshot_s"],
        "core.restore_s": phase["restore_s"],
        "core.seed_index.seed_ms": per_query_ms(
            total("core.seed_index.seed_query", query)
        ),
        "core.seed_index.fetch_ms": per_query_ms(
            total("core.seed_index.fetch_records_batch", query)
        ),
        "core.flat_index.crawl_self_ms": per_query_ms(total(QUERY_ROOT, query)),
        "core.flat_index.records_per_result": _ratio(
            counter("crawl.records", query), counter("crawl.results", query)
        ),
        "core.delta.overlay_ms": per_query_ms(total("core.delta.overlay", query)),
        "core.apply_batch_ms": 1000.0 * per_merge(total(
            "core.flat_index.apply_batch", WRITE_ROOTS, field=1
        )),
        "core.snapshot.publish_ms": 1000.0 * per_merge(total(
            "core.snapshot.publish_fork_generation", WRITE_ROOTS, field=1
        )),
        "core.snapshot.restore_ms": per_query_ms(restore_s),
        "query.service.dispatch_ms": dispatch_ms,
        "query.prefetch.hit_rate": _ratio(prefetch_hits, demand_reads + prefetch_hits),
        "query.prefetch.stage_ms": per_query_ms(prefetch_s),
        "query.prefetch.waste_frac": 1.0 - _ratio(consumed, staged) if staged else 0.0,
        "query.cluster.router_ms": router_ms,
        "query.cluster.shards_per_query": phase["shards_per_query"],
        "query.cluster.server_rss_mb": phase["server_rss_mb"],
        "query.cluster.server_rss_growth_mb": phase["server_rss_growth_mb"],
        "query.service.worker_rss_mb": phase["worker_rss_mb"],
        "trace.covered_ms": covered_ms,
        "trace.residual_ms": mean_latency_ms - covered_ms,
        "trace.coverage": _ratio(covered_ms, mean_latency_ms),
        "trace.overhead_ms": phase["overhead_ms"],
        "trace.spans": collected["spans"],
    }
    return values
