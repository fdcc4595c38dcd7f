"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload sn_cold --seed 1 --seconds 10 --trace 0

Workloads: ``sn_cold``, ``lss_delta64``, ``session_churn``,
``cluster_rolling``.  With ``--trace 0`` the metrics are the
end-to-end metrics; with ``--trace 1`` the run serves one untraced and
one traced phase and the metrics are the per-layer metrics (including
the residual and the tracing overhead).  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result with its provenance is also written under
``.perfbench_run/results/``.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = bench.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), ROOT)

    info = outcome.info
    prov = info["provenance"]
    print(f"workload {args.workload}: {prov['why']}")
    print(f"seed {args.seed}, {prov['cpu_count']} cpus, python "
          f"{prov['python']}, numpy {prov['numpy']}, codec "
          f"{prov['serving']['codec']}, flush policy: {prov['flush_policy']}")
    print(f"queries {info['queries']} (latency samples "
          f"{info['latency_samples']}), commits {info['commits']} "
          f"(merges {info['merges']}), answers checked {info['answers_checked']}")
    lateness = info["writer_lateness_ms"]
    if lateness["batches"]:
        print(f"paced updates: {lateness['batches']} batches, start lateness "
              f"max {lateness['max']:.1f} ms, mean {lateness['mean']:.1f} ms")
    for stages in info["stage_seconds"]:
        print("wall seconds: " + ", ".join(
            f"{name} {value:.1f}" for name, value in stages.items()))
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, "
          f"error_rate {info['error_rate']:.4f}")
    for name, metric in outcome.metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")

    results = ROOT / bench.WORK_DIRNAME / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": outcome.metrics,
              "problems": outcome.problems, **info}
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": outcome.metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
