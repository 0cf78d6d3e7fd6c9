"""Command-line interface: ``python -m repro <command>``.

Commands
--------
fig7a / fig7b   regenerate the paper's speedup figures (scaled)
fig8a / fig8b   regenerate the network-throughput figures (scaled)
rq1             Merkle-root correctness sweep
ablation        DMVCC feature ablation
analyze FILE    compile a Minisol file and print its P-SAG
verify          differential fuzzing under the serializability oracle
soak            long-running adversarial soak with crash injection
serve           streaming block pipeline: mempool ingestion, fee ordering,
                backpressure, overlapped execute/seal/persist
profile         event-traced execution: Chrome trace + wait decomposition
db              inspect/maintain a durable node store (stats, fsck, compact)
"""

from __future__ import annotations

import argparse
import json
import sys


def _scaled_workload(args) -> dict:
    return dict(
        users=args.users,
        erc20_tokens=args.tokens,
        dex_pools=args.pools,
        nft_collections=args.nfts,
        icos=2,
    )


def cmd_fig(args) -> int:
    """Regenerate one of the paper's four figure panels."""
    from .bench import run_fig7a, run_fig7b, run_fig8a, run_fig8b

    threads = tuple(int(t) for t in args.threads.split(","))
    workload = _scaled_workload(args)
    if args.figure in ("7a", "7b"):
        runner = run_fig7a if args.figure == "7a" else run_fig7b
        result = runner(
            blocks=args.blocks,
            txs_per_block=args.txs,
            thread_counts=threads,
            **workload,
        )
        print(result.format_table())
        return 0 if result.correctness_ok else 1
    runner = run_fig8a if args.figure == "8a" else run_fig8b
    result = runner(
        validators=2,
        blocks=args.blocks,
        txs_per_block=args.txs,
        thread_counts=threads,
        gas_per_second=args.txs * 45_000 / 360.0,
        config_overrides=workload,
    )
    print(result.format_table())
    return 0


def cmd_rq1(args) -> int:
    """Run the Merkle-root correctness sweep (RQ1)."""
    from .bench import run_rq1_correctness

    result = run_rq1_correctness(
        blocks=args.blocks,
        txs_per_block=args.txs,
        scheduler=args.scheduler,
        threads=8,
        **_scaled_workload(args),
    )
    print(
        f"RQ1 [{args.scheduler}]: {result.matches}/{result.blocks_checked} "
        f"block roots match serial ({result.txs_checked} transactions)"
    )
    return 0 if result.all_match else 1


def cmd_ablation(args) -> int:
    """Run the DMVCC feature ablation under high contention."""
    from .bench import run_feature_ablation
    from .workload import high_contention_config

    result = run_feature_ablation(
        blocks=max(args.blocks // 2, 1),
        txs_per_block=args.txs,
        thread_counts=(8, 32),
        config=high_contention_config(**_scaled_workload(args)),
    )
    print(result.format_table())
    return 0 if result.correctness_ok else 1


def cmd_analyze(args) -> int:
    """Compile a Minisol file and dump its P-SAG."""
    from .analysis import build_psag
    from .lang import compile_source

    with open(args.file) as handle:
        source = handle.read()
    compiled = compile_source(source)
    psag = build_psag(compiled.code)
    print(f"{compiled.name}: {len(compiled.code)} bytes")
    print("functions:")
    for name, abi in sorted(compiled.functions.items()):
        print(f"  {abi.signature}  selector={abi.selector:#010x}")
    print("storage layout:")
    for var in compiled.layout.values():
        print(f"  slot {var.slot}: {var.type} {var.name}")
    print("access sites:")
    for pc, site in sorted(psag.analysis.access_sites.items()):
        marker = "  [commutative]" if pc in psag.analysis.increment_sites else ""
        print(f"  pc {pc:5d}: {site.kind:12s} {site.key}{marker}")
    print("release points:")
    for point in psag.release.release_points:
        bound = point.gas_bound if point.gas_bound is not None else "unbounded"
        print(f"  pc {point.pc:5d}: remaining gas ≤ {bound}")
    if args.dot:
        print()
        print(psag.to_dot())
    return 0


def cmd_verify(args) -> int:
    """Differentially fuzz every parallel executor against serial under the
    serializability oracle; exits non-zero on any divergence."""
    from .verify import DifferentialFuzzer

    if (args.fuzz <= 0 and args.crash_recovery <= 0 and not args.substrate
            and args.shards <= 0):
        print("verify: need --fuzz N > 0, --crash-recovery N > 0, "
              "--substrate, and/or --shards N", file=sys.stderr)
        return 2
    exit_code = 0
    if args.shards > 0:
        from .verify import run_shard_verify

        shard_report = run_shard_verify(
            shards=args.shards,
            scenarios=[s.strip() for s in args.scenarios.split(",")
                       if s.strip() and s.strip() != "all"] or None,
            txs_per_block=args.txs_per_block,
            seed=args.seed & 0xFFFF,
            progress=(lambda line: print(line, file=sys.stderr))
            if args.progress else None,
        )
        print(shard_report.render())
        if not shard_report.ok:
            exit_code = 1
    if args.substrate:
        from .verify import run_substrate_verify

        substrate_report = run_substrate_verify(
            scenarios=[s.strip() for s in args.scenarios.split(",")
                       if s.strip() and s.strip() != "all"] or None,
            schedulers=[s.strip() for s in args.schedulers.split(",")
                        if s.strip()] or ("serial", "occ", "dag", "dmvcc"),
            txs_per_block=args.txs_per_block,
            workers=args.substrate_workers,
            seed=args.seed & 0xFFFF,
            progress=(lambda line: print(line, file=sys.stderr))
            if args.progress else None,
        )
        print(substrate_report.render())
        if not substrate_report.ok:
            exit_code = 1
    if args.crash_recovery > 0:
        from .verify import run_crash_campaign

        crash_report = run_crash_campaign(
            args.crash_recovery,
            base_seed=args.seed,
            progress=(lambda line: print(line, file=sys.stderr))
            if args.progress else None,
        )
        print(crash_report.render())
        if not crash_report.ok:
            exit_code = 1
    if args.fuzz <= 0:
        return exit_code
    factories = None
    if args.schedulers:
        from .verify.fuzz import default_executor_factories

        available = default_executor_factories()
        wanted = [s.strip() for s in args.schedulers.split(",") if s.strip()]
        unknown = [s for s in wanted if s not in available]
        if unknown:
            print(
                f"verify: unknown scheduler(s): {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(available))})",
                file=sys.stderr,
            )
            return 2
        factories = {name: available[name] for name in wanted}
    scenarios = None
    if args.scenarios:
        from .workload.scenarios import SCENARIOS

        wanted = [s.strip() for s in args.scenarios.split(",") if s.strip()]
        if wanted == ["all"]:
            wanted = list(SCENARIOS)
        unknown = [s for s in wanted if s not in SCENARIOS]
        if unknown:
            print(
                f"verify: unknown scenario(s): {', '.join(unknown)} "
                f"(choose from {', '.join(SCENARIOS)})",
                file=sys.stderr,
            )
            return 2
        scenarios = wanted
    fuzzer = DifferentialFuzzer(
        factories=factories,
        txs_per_block=args.txs_per_block,
        minimize=not args.no_minimize,
        backend=args.backend,
        scenarios=scenarios,
    )
    report = fuzzer.run(
        blocks=args.fuzz,
        base_seed=args.seed,
        progress=(lambda line: print(line, file=sys.stderr)) if args.progress else None,
    )
    print(report.render())
    if args.artifacts_dir:
        _write_verify_artifacts(args.artifacts_dir, fuzzer, report)
    return exit_code if report.ok else 1


def _write_verify_artifacts(directory: str, fuzzer, report) -> None:
    """Persist the oracle report and, per divergence, an event trace of the
    failing case (regenerated from its seed) for CI artifact upload."""
    import os

    from .evm.environment import BlockContext
    from .obs import EventBus, build_chrome_trace, build_timeline, write_chrome_trace

    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "oracle_report.txt"), "w") as handle:
        handle.write(report.render() + "\n")
    for divergence in report.divergences:
        workload, txs, _ = fuzzer.case(divergence.seed)
        bus = EventBus()
        executor = fuzzer.factories[divergence.scheduler]()
        executor.obs = bus
        try:
            executor.execute_block(
                txs, workload.db.latest, workload.db.codes.code_of,
                threads=divergence.threads, block=BlockContext(),
            )
        except Exception as error:  # still export what was traced
            print(f"verify: replay of seed {divergence.seed} "
                  f"[{divergence.scheduler}] raised {error!r}", file=sys.stderr)
        document = build_chrome_trace(
            [(f"{divergence.scheduler} seed {divergence.seed}",
              build_timeline(bus), 0.0)],
            metadata={
                "seed": divergence.seed,
                "scheduler": divergence.scheduler,
                "threads": divergence.threads,
            },
        )
        write_chrome_trace(
            os.path.join(
                directory,
                f"trace_seed{divergence.seed}_{divergence.scheduler}.json",
            ),
            document,
        )
    print(f"verify: artifacts written to {directory}", file=sys.stderr)


def cmd_soak(args) -> int:
    """Run the long-running adversarial soak: scenario traffic through the
    validator over the durable engine with online oracle + root-parity
    invariants, mid-stream crash injection, and periodic compaction."""
    from .soak import run_soak
    from .workload.scenarios import SCENARIOS

    if args.scenario not in SCENARIOS:
        print(
            f"soak: unknown scenario {args.scenario!r} "
            f"(choose from {', '.join(SCENARIOS)})",
            file=sys.stderr,
        )
        return 2
    overrides = dict(
        users=args.users,
        erc20_tokens=args.tokens,
        dex_pools=args.pools,
        nft_collections=args.nfts,
        icos=2,
    )
    report = run_soak(
        blocks=args.blocks,
        txs_per_block=args.txs,
        crashes=args.crashes,
        backend=args.backend,
        scenario=args.scenario,
        scheduler=args.scheduler,
        threads=args.workers,
        seed=args.seed,
        compact_every=args.compact_every,
        checkpoint_every=args.checkpoint_every,
        durable_dir=args.dir or None,
        workload_overrides=overrides,
        progress=(lambda line: print(line, file=sys.stderr))
        if args.progress else None,
        report_path=args.report or None,
    )
    print(report.render())
    if args.report:
        print(f"soak: report written to {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """Stream scenario traffic through the full block pipeline: mempool
    admission with backpressure, fee-ordered packing, and overlapped
    execute/seal/persist; optionally with the online oracle and
    root-parity twin engaged (--check)."""
    from .pipeline import run_serve
    from .workload.scenarios import SCENARIOS

    if args.scenario not in SCENARIOS:
        print(
            f"serve: unknown scenario {args.scenario!r} "
            f"(choose from {', '.join(SCENARIOS)})",
            file=sys.stderr,
        )
        return 2
    overrides = dict(
        users=args.users,
        erc20_tokens=args.tokens,
        dex_pools=args.pools,
        nft_collections=args.nfts,
        icos=2,
    )
    report = run_serve(
        blocks=args.blocks,
        txs_per_block=args.txs,
        scenario=args.scenario,
        scheduler=args.scheduler,
        threads=args.workers,
        seed=args.seed,
        backend=args.backend,
        max_inflight=args.max_inflight,
        pool_size=args.pool_size or None,
        min_fee=args.min_fee,
        per_sender_cap=args.sender_cap,
        check=args.check,
        fsync_delay=args.fsync_delay / 1e3,
        durable_dir=args.dir or None,
        workload_overrides=overrides,
        profile_db=args.profile_db or None,
        progress=(lambda line: print(line, file=sys.stderr))
        if args.progress else None,
        progress_every=args.checkpoint_every,
        report_path=args.report or None,
    )
    print(report.render())
    if args.report:
        print(f"serve: report written to {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_profile(args) -> int:
    """Run the schedulers with event tracing on; write a Perfetto-loadable
    Chrome trace and print the timeline/attribution report."""
    from .obs import profile_to_file

    schedulers = tuple(
        s.strip() for s in args.schedulers.split(",") if s.strip()
    )
    report = profile_to_file(
        args.out,
        blocks=args.blocks,
        txs_per_block=args.txs,
        threads=args.workers,
        schedulers=schedulers,
        contention=args.contention,
        config_overrides=_scaled_workload(args),
        durable_dir=args.durable or None,
        pipeline_blocks=args.pipeline,
        substrate=args.substrate,
        substrate_workers=args.substrate_workers or None,
    )
    print(report.render(top=args.top))
    print(f"\ntrace written to {args.out} "
          f"({len(report.trace['traceEvents'])} events) — load it at "
          f"https://ui.perfetto.dev or chrome://tracing")
    if args.attribution_json:
        payload = {
            scheduler: attribution.to_json()
            for scheduler, attribution in report.attributions.items()
        }
        with open(args.attribution_json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"abort attribution written to {args.attribution_json} "
              f"(feed it to ConflictProfileStore.observe_json to seed a "
              f"lane planner)")
    return 0 if report.correctness_ok else 1


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DMVCC reproduction toolkit"
    )
    parser.add_argument("--users", type=int, default=1_000)
    parser.add_argument("--tokens", type=int, default=15)
    parser.add_argument("--pools", type=int, default=6)
    parser.add_argument("--nfts", type=int, default=5)
    parser.add_argument("--blocks", type=int, default=2)
    parser.add_argument("--txs", type=int, default=400)
    parser.add_argument("--threads", default="1,2,4,8,16,32")
    sub = parser.add_subparsers(dest="command", required=True)

    for figure in ("7a", "7b", "8a", "8b"):
        fig_parser = sub.add_parser(f"fig{figure}", help=f"regenerate Fig. {figure}")
        fig_parser.set_defaults(func=cmd_fig, figure=figure)

    rq1 = sub.add_parser("rq1", help="Merkle-root correctness sweep")
    rq1.add_argument("--scheduler", default="dmvcc", choices=["dmvcc", "occ", "dag"])
    rq1.set_defaults(func=cmd_rq1)

    ablation = sub.add_parser("ablation", help="DMVCC feature ablation")
    ablation.set_defaults(func=cmd_ablation)

    verify = sub.add_parser(
        "verify", help="differential fuzzing under the serializability oracle"
    )
    verify.add_argument("--fuzz", type=int, default=50, metavar="N",
                        help="number of random blocks to fuzz (default 50)")
    verify.add_argument("--seed", type=int, default=0xD34DBEEF,
                        help="base seed; block i uses seed+i")
    verify.add_argument("--txs-per-block", type=int, default=24)
    verify.add_argument("--schedulers", default="", metavar="NAMES",
                        help="comma-separated scheduler subset to fuzz "
                             "(default: all parallel executors)")
    verify.add_argument("--backend", choices=["memory", "durable"],
                        default="memory",
                        help="also seal every fuzz block through the on-disk "
                             "engine and assert roots byte-identical "
                             "(durable)")
    verify.add_argument("--crash-recovery", type=int, default=0, metavar="N",
                        help="run N crash-recovery cases against the durable "
                             "engine (fault-injected kill at a random byte "
                             "offset, then recovery check)")
    verify.add_argument("--scenarios", default="", metavar="NAMES",
                        help="comma-separated adversarial scenario presets "
                             "to overlay on fuzz cases (or 'all'); see "
                             "repro.workload.scenarios")
    verify.add_argument("--substrate", action="store_true",
                        help="sweep every scenario preset × scheduler on "
                             "the real threads and processes backends and "
                             "assert receipts/writes/roots byte-identical "
                             "to the discrete-event simulator")
    verify.add_argument("--shards", type=int, default=0, metavar="N",
                        help="run the sharded-execution parity sweep with N "
                             "shards: every scenario preset × substrate "
                             "backend, sharded DMVCC vs the serial "
                             "reference, plain and merge-declared")
    verify.add_argument("--substrate-workers", type=int, default=3,
                        metavar="N",
                        help="worker count for the --substrate sweep "
                             "(default 3)")
    verify.add_argument("--no-minimize", action="store_true",
                        help="skip greedy shrinking of diverging blocks")
    verify.add_argument("--progress", action="store_true",
                        help="print progress to stderr")
    verify.add_argument("--artifacts-dir", default="", metavar="DIR",
                        help="write oracle report + per-divergence event "
                             "traces here (for CI artifact upload)")
    verify.set_defaults(func=cmd_verify)

    soak = sub.add_parser(
        "soak", help="long-running adversarial soak: online oracle + root "
                     "parity + crash-recovery over the durable engine"
    )
    soak.add_argument("--blocks", type=int, default=1_000,
                      help="blocks to stream (default 1000)")
    soak.add_argument("--txs", type=int, default=64,
                      help="transactions per block (default 64)")
    soak.add_argument("--crashes", type=int, default=3,
                      help="mid-stream crash injections (default 3; "
                           "requires --backend durable)")
    soak.add_argument("--backend", choices=["memory", "durable"],
                      default="durable")
    soak.add_argument("--scenario", default="mix",
                      help="scenario preset, or 'mix' to rotate over all "
                           "of them (default mix)")
    soak.add_argument("--scheduler", default="dmvcc",
                      choices=["serial", "occ", "dag", "dmvcc", "sharded"])
    soak.add_argument("--workers", type=int, default=8,
                      help="simulated threads (default 8)")
    soak.add_argument("--seed", type=int, default=2023)
    soak.add_argument("--compact-every", type=int, default=50,
                      help="compact the durable store every N blocks "
                           "(default 50; 0 disables)")
    soak.add_argument("--checkpoint-every", type=int, default=25,
                      help="sample trend metrics every N blocks (default 25)")
    soak.add_argument("--users", type=int, default=400,
                      help="workload users (default 400)")
    soak.add_argument("--dir", default="",
                      help="pin the durable store to this directory "
                           "(kept afterwards; default: temp dir)")
    soak.add_argument("--report", default="", metavar="PATH",
                      help="write the stamped JSON soak report here")
    soak.add_argument("--progress", action="store_true",
                      help="print checkpoint lines to stderr")
    soak.set_defaults(func=cmd_soak)

    serve = sub.add_parser(
        "serve", help="streaming block pipeline: mempool ingestion, fee "
                      "ordering, backpressure, overlapped "
                      "execute/seal/persist"
    )
    serve.add_argument("--blocks", type=int, default=500,
                       help="blocks to stream (default 500)")
    serve.add_argument("--txs", type=int, default=32,
                       help="target transactions per block (default 32)")
    serve.add_argument("--scenario", default="mix",
                       help="scenario preset, or 'mix' to rotate over all "
                            "of them (default mix)")
    serve.add_argument("--scheduler", default="dmvcc",
                       choices=["serial", "occ", "dag", "dmvcc", "sharded"])
    serve.add_argument("--profile-db", default="", metavar="PATH",
                       help="persist the lane planner's learned conflict "
                            "profiles here (loaded on start when present, "
                            "saved on drain — restart continuity)")
    serve.add_argument("--workers", type=int, default=8,
                       help="simulated threads (default 8)")
    serve.add_argument("--seed", type=int, default=2023)
    serve.add_argument("--backend", choices=["memory", "durable"],
                       default="durable")
    serve.add_argument("--max-inflight", type=int, default=2,
                       help="seal-queue depth; 0 runs strictly sequentially "
                            "(default 2)")
    serve.add_argument("--pool-size", type=int, default=0,
                       help="mempool capacity (default: six blocks' worth)")
    serve.add_argument("--min-fee", type=int, default=0,
                       help="admission fee floor (default 0)")
    serve.add_argument("--sender-cap", type=int, default=0,
                       help="max pooled entries per sender (default: none)")
    serve.add_argument("--check", action="store_true",
                       help="keep the serializability oracle and the "
                            "root-parity twin engaged while streaming")
    serve.add_argument("--fsync-delay", type=float, default=0.0,
                       metavar="MS",
                       help="emulated extra fsync latency in milliseconds "
                            "(benchmarking aid; default 0)")
    serve.add_argument("--users", type=int, default=400,
                       help="workload users (default 400)")
    serve.add_argument("--dir", default="",
                       help="pin the durable store to this directory "
                            "(kept afterwards; default: temp dir)")
    serve.add_argument("--report", default="", metavar="PATH",
                       help="write the stamped JSON serve report here")
    serve.add_argument("--checkpoint-every", type=int, default=50,
                       help="progress line cadence in blocks (default 50)")
    serve.add_argument("--progress", action="store_true",
                       help="print progress lines to stderr")
    serve.set_defaults(func=cmd_serve)

    profile = sub.add_parser(
        "profile", help="event-traced execution: Chrome trace (Perfetto) "
                        "+ wait decomposition + abort attribution"
    )
    profile.add_argument("--blocks", type=int, default=2,
                         help="blocks to profile (default 2)")
    profile.add_argument("--txs", type=int, default=64,
                         help="transactions per block (default 64)")
    profile.add_argument("--workers", type=int, default=8,
                         help="simulated threads for parallel schedulers")
    profile.add_argument("--out", default="trace.json",
                         help="Chrome trace output path (default trace.json)")
    profile.add_argument("--schedulers", default="serial,dag,occ,dmvcc",
                         help="comma-separated scheduler subset")
    profile.add_argument("--contention", choices=["high", "low"],
                         default="high",
                         help="workload profile (default high)")
    profile.add_argument("--top", type=int, default=10,
                         help="hot keys to list in the attribution table")
    profile.add_argument("--attribution-json", default="", metavar="PATH",
                         help="also dump the per-scheduler abort attribution "
                              "as JSON (ConflictProfileStore.observe_json-"
                              "compatible)")
    profile.add_argument("--durable", default="", metavar="DIR",
                         help="also commit every block to an on-disk mirror "
                              "at DIR and report fsync/append/cache costs")
    profile.add_argument("--pipeline", type=int, default=6, metavar="N",
                         help="stream N blocks through the pipelined driver "
                              "and report per-stage occupancy/latency "
                              "(default 6; 0 skips)")
    profile.add_argument("--substrate",
                         choices=["sim", "threads", "processes"],
                         default="sim",
                         help="execution backend: discrete-event simulator "
                              "(default), real threading, or real "
                              "multiprocessing workers; the wall-clock "
                              "section shows real seconds per executor")
    profile.add_argument("--substrate-workers", type=int, default=0,
                         metavar="N",
                         help="worker count for real backends "
                              "(default: --workers)")
    profile.set_defaults(func=cmd_profile)

    from .db.cli import add_db_parser

    add_db_parser(sub)

    analyze = sub.add_parser("analyze", help="print a contract's P-SAG")
    analyze.add_argument("file")
    analyze.add_argument("--dot", action="store_true",
                         help="also print a graphviz rendering")
    analyze.set_defaults(func=cmd_analyze)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
