"""The crawl-engine micro-benchmark as a regression gate.

Runs ``bench_crawl.run_crawl_bench`` on a CI-sized workload and holds
the batched engine to its two guarantees: identical behaviour to the
scalar reference crawl, and at least a 3x reduction in metadata-page
decodes on the Fig. 13 (SN) workload.
"""

import json

from bench_crawl import run_crawl_bench


def test_crawl_bench_checks_and_artifact(tmp_path):
    report = run_crawl_bench(n_elements=9_000, query_count=30)
    assert report["checks"]["identical_results"]
    assert report["checks"]["identical_page_reads"]
    assert report["metadata_decode_reduction"] >= 3.0

    # The report must round-trip as the BENCH_crawl.json artifact.
    artifact = tmp_path / "BENCH_crawl.json"
    artifact.write_text(json.dumps(report, indent=2))
    assert json.loads(artifact.read_text())["benchmark"] == "crawl-engine"


def test_crawl_bench_codec_comparison():
    report = run_crawl_bench(n_elements=4_000, query_count=10, codec="delta64")
    assert report["workload"]["codec"] == "delta64"
    assert all(report["checks"].values()), report["checks"]
    comparison = report["codec_comparison"]
    assert comparison["raw"]["total_page_reads"] == (
        comparison["delta64"]["total_page_reads"]
    )
    assert comparison["cpu_ratio"] > 0
