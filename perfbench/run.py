"""Repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload large_flow --seed 0 --seconds 15 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics instead, each set as ``BENCHMARK.json`` lists it.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report and a ``meta`` line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("large_flow", "dac2012_suite", "serve_mix")
#: a run that takes longer than this is stopped and fails
TIME_LIMIT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def manifest_metrics(manifest: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit that a run in this mode must print."""
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def select_metrics(measured: dict[str, tuple[float, str]],
                   wanted: dict[str, str]) -> tuple[dict, list[str]]:
    """The manifest's metrics, in its order, and a problem for each one
    that was not measured or was measured in another unit."""
    chosen: dict[str, dict] = {}
    problems: list[str] = []
    for name, unit in wanted.items():
        if name not in measured:
            problems.append(f"metric {name} was not measured")
        elif measured[name][1] != unit:
            problems.append(f"metric {name} is in {measured[name][1]}, "
                            f"the manifest says {unit}")
        else:
            chosen[name] = {"value": measured[name][0], "unit": unit}
    return chosen, problems


def _print_report(workload: str, result, meta: dict, chosen: dict) -> None:
    print(f"workload {workload}: attempted={result.attempted} "
          f"failed={result.failed}")
    for name, (value, unit) in sorted(result.metrics.items()):
        note = "" if name in chosen else "  (report only)"
        print(f"  {name:<36} {value:>16.6f} {unit}{note}")
    if result.stage_table:
        print("  stage cross-check (program phase vs wrapped calls):")
        for stage, (phase, wrapped, gap) in result.stage_table.items():
            print(f"    {stage:<14} phase {phase:9.3f}s  wrapped "
                  f"{wrapped:9.3f}s  gap {gap:+.2%}")
    for name in result.missing:
        print(f"  MISSING LAYER {name}: expected on {workload}, no calls")
    for problem in result.problems[:50]:
        print(f"  PROBLEM {problem}")
    print("meta " + json.dumps(meta, sort_keys=True, default=str))


def _over_time(_signum, _frame) -> None:
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # raised in the main thread, so the workloads' cleanup still runs
    signal.signal(signal.SIGALRM, _over_time)
    signal.alarm(TIME_LIMIT_S)
    root = HERE.parent
    manifest = root / "BENCHMARK.json"
    if not (root / "src" / "repro").is_dir() or not manifest.is_file():
        print("perfbench: program sources (src/repro) or BENCHMARK.json "
              "not found next to the benchmark", file=sys.stderr)
        return 2
    wanted = manifest_metrics(json.loads(manifest.read_text()),
                              bool(args.trace))
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))

    import common
    import placement
    import serve_mix

    digests = common.DigestStore(common.RUNS_DIR / "digests.json",
                                 common.source_fingerprint())
    if args.workload == "serve_mix":
        result = serve_mix.run(args.seed, args.seconds, bool(args.trace),
                               digests)
    else:
        result = placement.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), digests)
    digests.save()
    chosen, problems = select_metrics(result.metrics, wanted)
    result.problems += problems

    meta = common.run_metadata(args.seed)
    meta.update(workload=args.workload, trace=args.trace,
                seconds=args.seconds, **result.meta)
    _print_report(args.workload, result, meta, chosen)
    correct = result.failed == 0 and not result.problems \
        and result.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
