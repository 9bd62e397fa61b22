"""Command-line interface.

Subcommands::

    repro-place gen      --design dp_alu16 --out DIR      # emit Bookshelf
    repro-place extract  --design dp_alu16                # extraction report
    repro-place place    --design dp_alu16 --placer both  # run placers
    repro-place run      --suite dac2012 --workers 4      # batch runtime
    repro-place serve    --socket .repro-serve.sock       # placement daemon
    repro-place submit   --design dp_alu16 --wait         # client for serve
    repro-place eval     --aux design.aux                 # evaluate a bundle
    repro-place suite                                     # list suite designs
    repro-place lint     [--json] [PATHS...]              # static contracts

Designs come from the named benchmark suites (see
:mod:`repro.gen.suites`); ``--aux`` accepts any Bookshelf bundle.
``place`` and ``run`` share the batch runtime (:mod:`repro.runtime`):
jobs fan out over ``--workers`` processes, ``run`` additionally keeps a
durable artifact cache, global-place checkpoints, and can emit a JSONL
telemetry trace.

``serve`` runs the placement daemon (:mod:`repro.serve`): a local
unix-socket service with a persistent priority queue, the artifact
cache ``run`` uses, and live stats; ``submit`` is its client — it submits
jobs, waits for results, and exposes the control plane
(``--status``/``--result``/``--cancel``/``--stats``/``--ping``/
``--shutdown``).

Exit codes follow the failure taxonomy (see README / DESIGN.md):
0 success, 1 generic failure, 2 usage error (argparse), 3 parse,
4 validation, 5 numerical, 6 legalization, 7 timeout, 8 cache
corruption, 9 cancelled.  ``--strict`` promotes netlist validation warnings to
errors; ``--no-fallback`` disables the degradation ladder so the first
engine failure is terminal (and exits with its taxonomy code).

``lint`` runs the contract-enforcing static analysis
(:mod:`repro.lint`) over ``src/repro`` — determinism, numerical-safety,
error-taxonomy, and telemetry rules — and exits 1 on any non-baselined
finding.  All its flags (``--json``, ``--rules``, ``--explain RULE``,
``--baseline``, ``--update-baseline``, ``--select``, ``--ignore``) pass
through unchanged; ``python -m repro.lint`` is the same tool.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bookshelf import read_bookshelf, write_bookshelf
from .core import BaselinePlacer, PlacerOptions, StructureAwarePlacer, \
    extract_datapaths
from .core.structured_placer import LEGALIZATION_MODES
from .errors import ReproError, ValidationError, exit_code_for
from .eval import evaluate_placement, format_table, score_extraction
from .gen import build_design, design_names, suite_names
from .netlist import compute_stats
from .netlist.validate import errors as validation_errors, validate
from .place.multilevel import ENGINES, MultilevelOptions
from .runtime import apply_positions, render_profile, run_suite

_PLACER_SETS = {
    "baseline": ("baseline",),
    "structure": ("structure",),
    "both": ("baseline", "structure"),
}


def _load(args: argparse.Namespace):
    """Resolve --design / --aux into (netlist, region, truth-or-None).

    The loaded netlist is validated: hard structural errors always raise
    :class:`ValidationError`; with ``--strict``, warnings (undriven or
    dangling nets, common in contest bundles) are promoted to errors too.
    """
    if getattr(args, "aux", None):
        design = read_bookshelf(args.aux)
        netlist, region, truth = design.netlist, design.region, None
    else:
        generated = build_design(args.design)
        netlist, region, truth = \
            generated.netlist, generated.region, generated.truth
    strict = bool(getattr(args, "strict", False))
    report = validate(netlist, allow_undriven=not strict,
                      allow_dangling=not strict)
    errs = validation_errors(report)
    if errs:
        raise ValidationError(
            f"netlist {netlist.name!r} failed validation with "
            f"{len(errs)} error(s)",
            design=netlist.name,
            violations=[str(v) for v in errs[:20]])
    return netlist, region, truth


def _emit(rows: list[dict], title: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(format_table(rows, title=title))


def _placer_options(args: argparse.Namespace) -> PlacerOptions:
    # the V-cycle knobs are checked first, so a bad --levels or
    # --cluster-ratio is reported before an engine that cannot run it
    multilevel = MultilevelOptions(
        enabled=True,
        max_levels=args.levels,
        cluster_ratio=args.cluster_ratio,
    ) if args.multilevel else MultilevelOptions()
    return PlacerOptions(
        engine=args.engine,
        structure_weight=args.structure_weight,
        structure_legalization=args.legalization,
        multilevel=multilevel,
    )


def _cmd_suite(_args: argparse.Namespace) -> int:
    for suite_name in suite_names():
        print(f"{suite_name}: {', '.join(design_names(suite_name))}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    netlist, region, _truth = _load(args)
    aux = write_bookshelf(netlist, region, args.out)
    stats = compute_stats(netlist)
    print(format_table([stats.row()], title="generated design"))
    print(f"wrote {aux}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    netlist, _region, truth = _load(args)
    result = extract_datapaths(netlist)
    print(result.summary())
    if truth:
        score = score_extraction(netlist.name, truth, result.cell_sets())
        print(format_table([score.row()], title="vs ground truth"))
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    placers = _PLACER_SETS[args.placer]
    options = _placer_options(args)
    if args.aux:
        return _place_aux(args, placers, options)
    # suite designs route through the batch runtime so --workers applies
    suite_result = run_suite([args.design], placers, workers=args.workers,
                             seed=args.seed, options=options,
                             fallback=not args.no_fallback,
                             shm=not args.no_shm)
    rows = []
    for result in suite_result.results:
        if not result.ok:
            print(f"error: {result.job.label}: {result.error}",
                  file=sys.stderr)
            return exit_code_for(result.error_kind or "other")
        rows.append(result.row())
        if args.out:
            design = build_design(args.design)
            apply_positions(design.netlist, result.positions)
            write_bookshelf(
                design.netlist, design.region, args.out,
                design=f"{design.netlist.name}_{result.placer_name}")
    _emit(rows, "placement results", args.json)
    if args.profile:
        print(render_profile(suite_result.tracer))
    return 0


def _place_aux(args: argparse.Namespace, placers: tuple[str, ...],
               options: PlacerOptions) -> int:
    """Bookshelf bundles cannot be rebuilt inside a worker, so --aux
    placements always run serially in-process."""
    from .robust.fallback import place_with_fallback
    from .runtime import Tracer
    rows = []
    classes = {"baseline": BaselinePlacer, "structure": StructureAwarePlacer}
    tracer = Tracer() if args.profile else None
    for name in placers:
        netlist, region, _truth = _load(args)
        degradation = None
        if args.no_fallback:
            outcome = classes[name](options).place(netlist, region,
                                                   tracer=tracer)
        else:
            outcome, degradation = place_with_fallback(
                netlist, region, options, placer=name, tracer=tracer)
        report = evaluate_placement(netlist, region)
        row = outcome.row()
        row["steiner"] = round(report.steiner, 1)
        row["rudy_max"] = round(report.congestion.max, 3)
        if degradation is not None and degradation.degraded:
            row["rung"] = degradation.succeeded
        rows.append(row)
        if args.out:
            write_bookshelf(netlist, region, args.out,
                            design=f"{netlist.name}_{outcome.placer}")
    _emit(rows, "placement results", args.json)
    if tracer is not None:
        print(render_profile(tracer))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cache_dir = None if args.no_cache else args.cache_dir
    checkpoint_dir = None if args.no_checkpoint else args.checkpoint_dir
    suite_result = run_suite(
        args.designs or None,
        _PLACER_SETS[args.placer],
        suite=args.suite,
        workers=args.workers,
        seed=args.seed,
        options=_placer_options(args),
        cache_dir=cache_dir,
        trace_path=args.trace,
        timeout_s=args.timeout,
        retries=args.retries,
        checkpoint_dir=checkpoint_dir,
        fallback=not args.no_fallback,
        shm=not args.no_shm,
    )
    if args.json:
        print(json.dumps({"rows": suite_result.rows(),
                          "counters": suite_result.counters,
                          "cache": suite_result.cache_stats},
                         indent=2, sort_keys=True))
    else:
        _emit(suite_result.rows(), f"suite {args.suite}", False)
        counters = suite_result.counters
        print(f"jobs={counters.get('executor.jobs', 0)} "
              f"placed={counters.get('placer.invocations', 0)} "
              f"cache_hits={counters.get('cache.hit', 0)} "
              f"failures={counters.get('executor.failures', 0)}")
        cache_stats = suite_result.cache_stats
        if cache_stats is not None:
            print(f"cache entries={cache_stats['entries']} "
                  f"bytes={cache_stats['bytes']} "
                  f"hits={cache_stats['hits']} "
                  f"misses={cache_stats['misses']} "
                  f"evictions={cache_stats['evictions']}")
        if suite_result.trace_path:
            print(f"trace written to {suite_result.trace_path}")
    if args.profile:
        print(render_profile(suite_result.tracer))
    for failure in suite_result.failures:
        print(f"error: {failure.job.label}: {failure.error}",
              file=sys.stderr)
    if suite_result.ok:
        return 0
    # the batch exit code mirrors the first failure's taxonomy kind
    return exit_code_for(suite_result.failures[0].error_kind or "other")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import PlacementDaemon, ServeConfig
    config = ServeConfig(
        socket_path=args.socket,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        cache_budget_mb=args.cache_budget_mb,
        checkpoint_dir=None if args.no_checkpoint else args.checkpoint_dir,
        spool_dir=None if args.no_spool else args.spool_dir,
        trace_path=args.trace,
        max_pending=args.max_pending,
        retries=args.retries,
        timeout_s=args.timeout,
        pool=args.pool,
        fallback=not args.no_fallback,
        shm=not args.no_shm,
        stall_timeout_s=args.stall_timeout,
        scan_interval_s=args.scan_interval,
        max_attempts=args.max_attempts,
        backoff_base_s=args.backoff_base,
        backoff_cap_s=args.backoff_cap,
        breaker_threshold=args.breaker_threshold,
        breaker_window=args.breaker_window,
        breaker_min_samples=args.breaker_min_samples,
        breaker_cooldown_s=args.breaker_cooldown,
    )
    print(f"repro-serve: listening on {args.socket} "
          f"(workers={args.workers}, max_pending={args.max_pending})",
          flush=True)
    PlacementDaemon(config).run()
    print("repro-serve: shut down cleanly")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve.client import ServeClient
    # control-plane one-shots share the submit socket flags
    with ServeClient(args.socket, timeout_s=None) as client:
        if args.ping:
            print(json.dumps(client.ping(), indent=2, sort_keys=True))
            return 0
        if args.stats:
            print(json.dumps(client.stats()["stats"], indent=2,
                             sort_keys=True))
            return 0
        if args.status:
            print(json.dumps(client.status(args.status), indent=2,
                             sort_keys=True))
            return 0
        if args.result:
            response = client.result(args.result, wait=args.wait,
                                     timeout=args.timeout)
            print(json.dumps(response, indent=2, sort_keys=True))
            return _submit_exit(response)
        if args.cancel:
            print(json.dumps(client.cancel(args.cancel), indent=2,
                             sort_keys=True))
            return 0
        if args.requeue:
            print(json.dumps(client.requeue(args.requeue), indent=2,
                             sort_keys=True))
            return 0
        if args.shutdown:
            print(json.dumps(client.shutdown(args.shutdown), indent=2,
                             sort_keys=True))
            return 0
        return _submit_jobs(args, client)


def _submit_jobs(args: argparse.Namespace, client) -> int:
    designs = args.designs or [args.design]
    # always send explicit options: the daemon's job key is identical to
    # the defaulted form, and the journal then records the exact knobs
    from .runtime.cache import canonical_options
    options = canonical_options(_placer_options(args))
    submitted = []
    for design in designs:
        response = client.submit(design, placer=args.placer,
                                 seed=args.seed, priority=args.priority,
                                 options=options)
        submitted.append(response)
    if not args.wait:
        _emit([{"job_id": r["job_id"], "state": r["state"],
                "design": r["design"]} for r in submitted],
              "submitted jobs", args.json)
        return 0
    rows, exit_code = [], 0
    for response in submitted:
        if response["state"] not in ("done", "failed", "cancelled",
                                     "quarantined"):
            response = client.result(response["job_id"], wait=True,
                                     timeout=args.timeout)
        else:
            response = client.result(response["job_id"])
        if "row" in response:
            row = dict(response["row"])
            row["job_id"] = response["job_id"]
            rows.append(row)
        else:
            rows.append({"job_id": response["job_id"],
                         "state": response["state"],
                         "design": response["design"],
                         "error": response.get("error", ""),
                         "error_kind": _response_kind(response)})
        code = _submit_exit(response)
        if code and not exit_code:
            exit_code = code
    _emit(rows, "placement results", args.json)
    return exit_code


def _response_kind(response: dict) -> str:
    if "error_kind" in response:
        return response["error_kind"]
    state = response.get("state")
    if state in ("cancelled", "quarantined"):
        return state
    return "other"


def _submit_exit(response: dict) -> int:
    """Map one terminal job response onto the taxonomy exit code."""
    state = response.get("state")
    if state == "done":
        return 0
    if state in ("failed", "cancelled", "quarantined"):
        return exit_code_for(_response_kind(response))
    return 0  # still queued/running (e.g. result without --wait)


def _cmd_eval(args: argparse.Namespace) -> int:
    netlist, region, _truth = _load(args)
    report = evaluate_placement(netlist, region)
    print(format_table([report.row()], title="placement quality"))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # full passthrough: argparse.REMAINDER cannot forward leading
        # option tokens, so lint's own parser handles everything
        from .lint import main as lint_main
        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-place",
        description="Structure-aware placement reproduction toolkit")
    from . import __version__
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list benchmark designs")

    def add_design_args(p: argparse.ArgumentParser,
                        with_aux: bool = True) -> None:
        p.add_argument("--design", default="dp_alu16",
                       help="named suite design")
        if with_aux:
            p.add_argument("--aux", default=None,
                           help="Bookshelf .aux bundle instead of --design")
        p.add_argument("--strict", action="store_true",
                       help="promote netlist validation warnings to "
                            "errors (exit 4)")

    def add_option_args(p: argparse.ArgumentParser) -> None:
        """The placer-option flags ``_placer_options`` reads."""
        p.add_argument("--engine", default="quadratic",
                       choices=ENGINES,
                       help="global-placement engine (electro = FFT "
                            "electrostatic spreading, Nesterov loop)")
        p.add_argument("--structure-weight", type=float, default=1.0)
        p.add_argument("--legalization", default="slices",
                       choices=LEGALIZATION_MODES,
                       help="structure-preserving legalization mode")
        p.add_argument("--multilevel", action="store_true",
                       help="run global placement through the multilevel "
                            "V-cycle (cluster, place coarse, refine "
                            "down); needs --engine electro")
        p.add_argument("--levels", type=int, default=3,
                       help="maximum coarsening levels for --multilevel")
        p.add_argument("--cluster-ratio", type=float, default=0.4,
                       help="coarse/fine movable-cell ratio per level "
                            "for --multilevel")

    def add_placer_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--placer", default="both",
                       choices=sorted(_PLACER_SETS))
        add_option_args(p)
        p.add_argument("--seed", type=int, default=0,
                       help="run seed (part of the cache key)")
        p.add_argument("--workers", type=int, default=0,
                       help="process-pool size (0 = serial in-process)")
        p.add_argument("--no-shm", action="store_true",
                       help="disable shared-memory arena dispatch to "
                            "pool workers (each job rebuilds its design "
                            "in the worker instead)")
        p.add_argument("--json", action="store_true",
                       help="emit results as JSON instead of a table")
        p.add_argument("--no-fallback", action="store_true",
                       help="disable the degradation ladder; the first "
                            "engine failure is terminal")
        p.add_argument("--profile", action="store_true",
                       help="print the telemetry span tree (per-phase "
                            "wall time, solve counts, cache hits) after "
                            "the results")

    p_gen = sub.add_parser("gen", help="emit a design as Bookshelf files")
    add_design_args(p_gen, with_aux=False)
    p_gen.add_argument("--out", required=True, help="output directory")

    p_ext = sub.add_parser("extract", help="run datapath extraction")
    add_design_args(p_ext)

    p_place = sub.add_parser("place", help="run placement")
    add_design_args(p_place)
    add_placer_args(p_place)
    p_place.add_argument("--out", default=None,
                         help="write placed Bookshelf bundles here")

    p_run = sub.add_parser(
        "run", help="batch-place a suite through the parallel runtime")
    p_run.add_argument("--suite", default="dac2012",
                       help="named suite to run")
    p_run.add_argument("--designs", nargs="*", default=None,
                       help="explicit design names (overrides --suite)")
    add_placer_args(p_run)
    p_run.add_argument("--cache-dir", default=".repro-cache",
                       help="durable artifact cache directory")
    p_run.add_argument("--no-cache", action="store_true",
                       help="disable the artifact cache")
    p_run.add_argument("--trace", default=None,
                       help="write a JSONL telemetry trace here")
    p_run.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds (parallel mode)")
    p_run.add_argument("--retries", type=int, default=1,
                       help="retry budget for crashing jobs")
    p_run.add_argument("--checkpoint-dir", default=".repro-checkpoints",
                       help="global-place checkpoint directory (enables "
                            "timeout/crash resume)")
    p_run.add_argument("--no-checkpoint", action="store_true",
                       help="disable global-place checkpoints")

    p_serve = sub.add_parser(
        "serve", help="run the placement daemon on a local socket")
    p_serve.add_argument("--socket", default=".repro-serve.sock",
                         help="unix-socket path to listen on")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="concurrent placements (bridge threads)")
    p_serve.add_argument("--cache-dir", default=".repro-cache",
                         help="durable artifact cache directory (shared "
                              "with run)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the artifact cache")
    p_serve.add_argument("--cache-budget-mb", type=float, default=None,
                         help="total cache byte budget in MiB (LRU "
                              "eviction); unbounded if unset")
    p_serve.add_argument("--checkpoint-dir", default=".repro-checkpoints",
                         help="checkpoint directory: resume state only "
                              "(cancel and heartbeats work without it)")
    p_serve.add_argument("--no-checkpoint", action="store_true",
                         help="disable global-place checkpoints")
    p_serve.add_argument("--spool-dir", default=".repro-spool",
                         help="job-journal directory (accepted jobs "
                              "survive a daemon restart)")
    p_serve.add_argument("--no-spool", action="store_true",
                         help="disable the job journal")
    p_serve.add_argument("--trace", default=None,
                         help="stream JSONL telemetry rows here")
    p_serve.add_argument("--max-pending", type=int, default=2048,
                         help="bounded-admission cap; beyond it submits "
                              "are rejected with error_kind "
                              "'backpressure'")
    p_serve.add_argument("--retries", type=int, default=1,
                         help="retry budget for crashing jobs")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-job timeout in seconds (with --pool)")
    p_serve.add_argument("--pool", action="store_true",
                         help="place in worker processes for crash/"
                              "timeout isolation: one long-lived worker "
                              "per --workers slot, started on its first "
                              "job and replaced only after a crash, "
                              "timeout or interrupt (cancel tokens "
                              "cross the process boundary via the "
                              "shared-memory cancel board)")
    p_serve.add_argument("--no-shm", action="store_true",
                         help="disable shared-memory arena dispatch to "
                              "pool workers (designs are rebuilt "
                              "per-job in the worker instead)")
    p_serve.add_argument("--stall-timeout", type=float, default=30.0,
                         help="seconds without a lease heartbeat before "
                              "a running job is declared stuck, "
                              "interrupted, and requeued (default 30)")
    p_serve.add_argument("--scan-interval", type=float, default=1.0,
                         help="watchdog lease-scan period in seconds "
                              "(default 1)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="execution attempts (counted across "
                              "daemon restarts) before a job is "
                              "quarantined (default 3)")
    p_serve.add_argument("--backoff-base", type=float, default=0.5,
                         help="requeue delay after the first failed "
                              "attempt; doubles per attempt "
                              "(default 0.5s)")
    p_serve.add_argument("--backoff-cap", type=float, default=30.0,
                         help="upper bound on the requeue backoff "
                              "delay (default 30s)")
    p_serve.add_argument("--breaker-threshold", type=float, default=0.5,
                         help="recent-failure fraction that trips the "
                              "admission circuit breaker (default 0.5)")
    p_serve.add_argument("--breaker-window", type=int, default=20,
                         help="recent job outcomes the breaker "
                              "considers (default 20)")
    p_serve.add_argument("--breaker-min-samples", type=int, default=5,
                         help="outcomes required before the breaker "
                              "may trip (default 5)")
    p_serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                         help="seconds the breaker stays open before "
                              "half-open probing (default 30)")
    p_serve.add_argument("--no-fallback", action="store_true",
                         help="disable the degradation ladder")

    p_submit = sub.add_parser(
        "submit", help="submit jobs to (and control) a running daemon")
    p_submit.add_argument("--socket", default=".repro-serve.sock",
                          help="daemon unix-socket path")
    p_submit.add_argument("--design", default="dp_alu16",
                          help="named suite design to place")
    p_submit.add_argument("--designs", nargs="*", default=None,
                          help="several designs (overrides --design)")
    p_submit.add_argument("--placer", default="structure",
                          choices=["baseline", "structure"])
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs first; ties are FIFO")
    add_option_args(p_submit)
    p_submit.add_argument("--no-wait", dest="wait", action="store_false",
                          help="return job ids immediately instead of "
                               "waiting for results")
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="wait deadline in seconds")
    p_submit.add_argument("--json", action="store_true",
                          help="emit results as JSON instead of a table")
    p_submit.add_argument("--status", metavar="JOB_ID", default=None,
                          help="report one job's status and exit")
    p_submit.add_argument("--result", metavar="JOB_ID", default=None,
                          help="fetch one job's result and exit")
    p_submit.add_argument("--requeue", metavar="JOB_ID", default=None,
                          help="revive a quarantined job with a fresh "
                               "attempt budget")
    p_submit.add_argument("--cancel", metavar="JOB_ID", default=None,
                          help="cancel one job and exit")
    p_submit.add_argument("--stats", action="store_true",
                          help="print live daemon stats and exit")
    p_submit.add_argument("--ping", action="store_true",
                          help="health-check the daemon and exit")
    p_submit.add_argument("--shutdown", metavar="MODE", default=None,
                          choices=["drain", "now"],
                          help="ask the daemon to shut down and exit")

    p_eval = sub.add_parser("eval", help="evaluate current placement")
    add_design_args(p_eval)

    # `lint` is dispatched before parse_args (its flags pass through to
    # repro.lint verbatim); registered here so it shows up in --help.
    sub.add_parser(
        "lint", add_help=False,
        help="run the contract-enforcing static analysis (repro.lint)")

    args = parser.parse_args(argv)
    handlers = {
        "suite": _cmd_suite,
        "gen": _cmd_gen,
        "extract": _cmd_extract,
        "place": _cmd_place,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "eval": _cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
