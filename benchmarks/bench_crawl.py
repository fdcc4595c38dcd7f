"""Micro-benchmark: scalar vs frontier-batched FLAT crawl (Fig. 13 workload).

Builds FLAT over one microcircuit density step and runs the SN
benchmark (the workload behind Figs. 12/13) twice through the standard
cold-cache harness: once with the record-at-a-time reference crawl
(``FLATIndex.range_query_scalar``) and once with the frontier-batched
engine (``FLATIndex.range_query``).  Both crawls must read the same
pages and return the same elements; the batched engine wins on CPU by
decoding each metadata leaf once per query instead of once per record.

``--codec`` serves both crawls from pages held under a physical page
codec (default ``raw``).  Under any other codec the batched crawl also
runs on the ``raw`` pages of the same index, in the same invocation:
answers, page reads and decode counts must be identical across the two
codecs, and the report records both cold q/s and their CPU-time ratio.

Run ``python benchmarks/bench_crawl.py`` to print a summary and emit
``BENCH_crawl.json`` (the perf-trajectory artifact tracked across PRs).
"""

from __future__ import annotations

import numpy as np

from bench_common import describe_workload, finish, workload_parser
from repro.core import FLATIndex
from repro.data.microcircuit import build_microcircuit
from repro.query import BenchmarkSpec, CallableEngine, SCALED_SN_FRACTION, run_queries
from repro.storage import (
    DECODE_ELEMENT,
    DECODE_METADATA,
    MemoryPageBackend,
    PageStore,
    available_codecs,
)

#: Default workload: one dense microcircuit step in the SMALL_CONFIG
#: volume (Fig. 13's benchmark at reproduction scale), enough queries
#: for stable counters.
N_ELEMENTS = 25_000
VOLUME_SIDE = 15.0
QUERY_COUNT = 60
SEED = 7


def _run_stats(run) -> dict:
    return {
        "metadata_decodes": run.decodes_in(DECODE_METADATA),
        "element_decodes": run.decodes_in(DECODE_ELEMENT),
        "decode_hits": sum(run.decode_hits_by_kind.values()),
        "total_page_reads": run.total_page_reads,
        "result_elements": run.result_elements,
        "cpu_seconds": run.cpu_seconds,
    }


def _recoded(flat, codec: str):
    """*flat* served from an in-RAM copy of its pages held under *codec*."""
    backend = MemoryPageBackend(codec=codec)
    for page_id in range(len(flat.store)):
        backend.append(
            flat.store.read_silent(page_id), flat.store.category(page_id)
        )
    store = PageStore(backend=backend)
    return flat.with_store(store), store


def _codec_comparison(codec, raw, coded, same_answers) -> tuple:
    """Report section + checks: the batched crawl on raw vs *codec* pages."""
    raw_stats, coded_stats = _run_stats(raw), _run_stats(coded)
    section = {
        "raw": raw_stats,
        codec: coded_stats,
        "raw_qps": raw.query_count / max(raw.cpu_seconds, 1e-12),
        f"{codec}_qps": coded.query_count / max(coded.cpu_seconds, 1e-12),
        "cpu_ratio": coded.cpu_seconds / max(raw.cpu_seconds, 1e-12),
    }
    checks = {
        "codec_identical_results": same_answers,
        "codec_identical_page_reads": raw.reads_by_category
        == coded.reads_by_category,
        "codec_identical_decodes": all(
            raw_stats[key] == coded_stats[key]
            for key in ("metadata_decodes", "element_decodes", "decode_hits")
        ),
    }
    return section, checks


def run_crawl_bench(
    n_elements: int = N_ELEMENTS,
    volume_side: float = VOLUME_SIDE,
    query_count: int = QUERY_COUNT,
    seed: int = SEED,
    codec: str = "raw",
) -> dict:
    """Run both crawls on the same index + queries; return the comparison."""
    circuit = build_microcircuit(n_elements, side=volume_side, seed=seed)
    raw_store = PageStore()
    flat = FLATIndex.build(raw_store, circuit.mbrs(), space_mbr=circuit.space_mbr)
    spec = BenchmarkSpec("SN", SCALED_SN_FRACTION, query_count)
    queries = spec.queries(circuit.space_mbr, seed=seed + 202)
    index, store = (flat, raw_store) if codec == "raw" else _recoded(flat, codec)

    scalar = run_queries(
        CallableEngine(index.range_query_scalar, index), store, queries,
        "flat-scalar",
    )
    batched = run_queries(index, store, queries, "flat-batched")

    scalar_stats = _run_stats(scalar)
    batched_stats = _run_stats(batched)
    reduction = scalar_stats["metadata_decodes"] / max(
        batched_stats["metadata_decodes"], 1
    )
    cpu_speedup = scalar_stats["cpu_seconds"] / max(
        batched_stats["cpu_seconds"], 1e-12
    )
    report = {
        "benchmark": "crawl-engine",
        "workload": {
            "figure": "fig13",
            "benchmark": "SN",
            "n_elements": n_elements,
            "volume_side": volume_side,
            "volume_fraction": SCALED_SN_FRACTION,
            "query_count": query_count,
            "seed": seed,
            "codec": codec,
        },
        "scalar": scalar_stats,
        "batched": batched_stats,
        "metadata_decode_reduction": reduction,
        "cpu_speedup": cpu_speedup,
        "checks": {
            "identical_results": scalar.per_query_results
            == batched.per_query_results,
            "identical_page_reads": scalar.reads_by_category
            == batched.reads_by_category,
            "metadata_decode_reduction_at_least_3x": reduction >= 3.0,
        },
    }
    if codec != "raw":
        raw = run_queries(flat, raw_store, queries, "flat-batched-raw")
        same_answers = all(
            np.array_equal(flat.range_query(query), index.range_query(query))
            for query in queries
        )
        section, checks = _codec_comparison(codec, raw, batched, same_answers)
        report["codec_comparison"] = section
        report["checks"].update(checks)
    return report


def main(argv=None) -> int:
    parser = workload_parser(
        __doc__.splitlines()[0],
        elements=N_ELEMENTS,
        side=VOLUME_SIDE,
        queries=QUERY_COUNT,
        seed=SEED,
        out="BENCH_crawl.json",
    )
    parser.add_argument(
        "--codec", choices=available_codecs(), default="raw",
        help="physical page codec both crawls are served from",
    )
    args = parser.parse_args(argv)
    report = run_crawl_bench(
        args.elements, args.side, args.queries, args.seed, args.codec
    )

    scalar, batched = report["scalar"], report["batched"]
    print(describe_workload(report))
    print(f"metadata decodes: scalar={scalar['metadata_decodes']} "
          f"batched={batched['metadata_decodes']} "
          f"({report['metadata_decode_reduction']:.1f}x reduction)")
    print(f"cpu seconds: scalar={scalar['cpu_seconds']:.3f} "
          f"batched={batched['cpu_seconds']:.3f} "
          f"({report['cpu_speedup']:.2f}x speedup)")
    comparison = report.get("codec_comparison")
    if comparison is not None:
        print(f"batched cold q/s: raw={comparison['raw_qps']:.1f} "
              f"{args.codec}={comparison[f'{args.codec}_qps']:.1f} "
              f"({args.codec}/raw cpu time {comparison['cpu_ratio']:.2f}x)")
    return finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
