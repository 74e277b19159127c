"""The ``polynima`` command-line utility.

"Polynima can be accessed through a single command-line utility that
provides facilities for project management, disassembly, lifting and
(additive) recompilation of binaries" (§4).

Subcommands::

    polynima compile  <src.c> -o prog.vxe [-O{0,2,3}]   # MiniC front end
    polynima run      <prog.vxe> [--param N ...]
    polynima disasm   <prog.vxe> [--json cfg.json]
    polynima trace    <prog.vxe> --cfg cfg.json         # ICFT tracer
    polynima lift     <prog.vxe> [--cfg cfg.json]       # print lifted IR
    polynima recompile <prog.vxe> -o out.vxe [--additive] [--fence-opt]
                       [--trace-out trace.json]         # Chrome trace
    polynima stats    <prog.vxe> [--json out.json] [--tsan]  # counters
    polynima tsan     <prog.vxe> [--strict] [--json]    # race detector
    polynima workloads [--group phoenix]                # list benchmarks
    polynima batch    [manifest.json | --group phoenix] # parallel + cached
                      [--jobs N] [--cache-dir D] [--no-cache] [--verify]
                      [--profile-in prof.json]
    polynima profile collect <prog.vxe> -o prof.json    # PGO: record
    polynima profile merge   a.json b.json -o out.json  # PGO: combine
    polynima profile show    prof.json [--json]         # PGO: inspect

Full reference with examples: ``docs/CLI.md``; the profile-guided
workflow is walked through in ``docs/PGO.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .binfmt import Image, ImageError
from .core import (OPT_LEVELS, AdditiveLifting, Disassembler, ICFTTracer,
                   Lifter, Recompiler, make_library, optimize_fences,
                   run_image)
from .emulator import EmulationFault, Machine
from .ir import format_module
from .minicc import compile_minic
from .observability import Tracer
from .profile.format import ProfileError


def _library_from_args(args) -> object:
    params = tuple(int(p) for p in (args.param or []))
    blob = b""
    if getattr(args, "input", None):
        with open(args.input, "rb") as handle:
            blob = handle.read()
    return make_library(input_blob=blob, params=params)


def cmd_compile(args) -> int:
    """``polynima compile``: MiniC source -> VXE image."""
    with open(args.source) as handle:
        source = handle.read()
    image = compile_minic(source, opt_level=args.opt, name=args.source)
    image.save(args.output)
    print(f"wrote {args.output} "
          f"({sum(s.size for s in image.sections)} bytes, O{args.opt})")
    return 0


def cmd_run(args) -> int:
    """``polynima run``: execute a VXE image on the emulator."""
    image = Image.load(args.binary)
    result = run_image(image, library=_library_from_args(args),
                       seed=args.seed, engine=args.engine)
    sys.stdout.write(result.stdout.decode("latin1"))
    if result.fault is not None:
        print(f"[fault] {result.fault}", file=sys.stderr)
        return 1
    print(f"[exit {result.exit_code}; {result.instructions} instructions, "
          f"{result.total_cycles} cycles]", file=sys.stderr)
    return result.exit_code


def cmd_disasm(args) -> int:
    """``polynima disasm``: static CFG recovery, text or JSON."""
    image = Image.load(args.binary)
    cfg = Disassembler(image).recover()
    if args.json:
        cfg.save(args.json)
        print(f"wrote {args.json}")
    print(f"{len(cfg.functions)} functions, {cfg.total_blocks()} blocks, "
          f"{cfg.total_indirect_sites()} indirect sites")
    for entry in sorted(cfg.functions):
        fn = cfg.functions[entry]
        print(f"  fn {entry:#x}: {len(fn.blocks)} blocks")
    return 0


def cmd_trace(args) -> int:
    """``polynima trace``: run the ICFT tracer and emit its CFG deltas."""
    image = Image.load(args.binary)
    tracer = ICFTTracer(image)
    result = tracer.trace(lambda _item: _library_from_args(args),
                          inputs=[None], seed=args.seed)
    print(f"traced {result.instructions} instructions, "
          f"{result.total_icfts} ICFTs")
    if args.cfg:
        from .core import RecoveredCFG
        try:
            cfg = RecoveredCFG.load(args.cfg)
        except FileNotFoundError:
            cfg = Recompiler(image).recover_cfg()
        added = result.apply_to(cfg)
        cfg.save(args.cfg)
        print(f"augmented {args.cfg} (+{added} targets)")
    return 0


def cmd_lift(args) -> int:
    """``polynima lift``: print the optimised Poly IR for an image."""
    image = Image.load(args.binary)
    recompiler = Recompiler(image)
    if args.cfg:
        from .core import RecoveredCFG
        cfg = RecoveredCFG.load(args.cfg)
    else:
        cfg = recompiler.recover_cfg()
    module = Lifter(image, cfg).lift()
    print(format_module(module))
    return 0


def cmd_recompile(args) -> int:
    """``polynima recompile``: produce the standalone replacement binary."""
    image = Image.load(args.binary)
    tracer = Tracer()
    profile = None
    if getattr(args, "profile_in", None):
        from .profile import Profile
        profile = Profile.load(args.profile_in)
        print(f"guiding with profile {profile.digest()[:12]} "
              f"({len(profile.block_counts)} blocks, "
              f"{profile.runs} runs)")
    if args.fence_opt:
        with tracer.span("recompile.fence_opt"):
            report = optimize_fences(image, lambda: _library_from_args(args),
                                     seed=args.seed, profile=profile)
        result = report.result
        print(f"fence optimisation "
              f"{'applied' if report.applied else 'NOT applied'} "
              f"({report.spinloops.count('spinning')} spinning, "
              f"{report.spinloops.count('non-spinning')} non-spinning, "
              f"{report.spinloops.count('uncovered')} uncovered loops)")
    elif args.additive:
        lifting = AdditiveLifting(
            Recompiler(image, profile=profile, tracer=tracer))
        report = lifting.run(lambda: _library_from_args(args),
                             seed=args.seed)
        result = report.result
        print(f"additive lifting: {report.recompile_loops} recompilation "
              f"loops, {report.total_seconds:.2f}s")
    else:
        result = Recompiler(image, profile=profile,
                            tracer=tracer).recompile()
    result.image.save(args.output)
    if args.trace_out:
        trace_source = result.tracer or tracer
        trace_source.save(args.trace_out)
        print(f"wrote {args.trace_out} "
              f"({len(trace_source.spans)} spans)")
    stats = result.stats
    print(f"wrote {args.output}: {stats.functions} functions, "
          f"{stats.blocks} blocks, {stats.icfts} ICFTs, "
          f"{stats.fences_final} fences, {stats.total_seconds:.2f}s")
    return 0


def cmd_stats(args) -> int:
    """``polynima stats``: run a binary and print emulator perf counters."""
    image = Image.load(args.binary)
    sanitizer = None
    if args.tsan:
        from .sanitizers import RaceDetector
        sanitizer = RaceDetector()
    machine = Machine(image, _library_from_args(args), seed=args.seed,
                      profile_registers=args.profile_regs,
                      sanitizer=sanitizer)
    try:
        machine.run()
    except EmulationFault as exc:
        print(f"[fault] {exc}", file=sys.stderr)
    counters = machine.perf_counters()
    sys.stdout.write(machine.stdout.decode("latin1"))
    if machine.stdout and not machine.stdout.endswith(b"\n"):
        print()
    print(f"--- emulator counters ({args.binary}, seed {args.seed}) ---")
    print(counters.format_table())
    if sanitizer is not None and sanitizer.reports:
        print(sanitizer.report_text())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(counters.snapshot(), handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    if machine.fault is not None:
        return 1
    if sanitizer is not None and sanitizer.reports:
        return 1        # CI gates on races via the exit status
    return 0


def cmd_tsan(args) -> int:
    """``polynima tsan``: run a binary under the race detector.

    Exit status: 0 clean, 1 races reported, 2 emulation fault.
    """
    from .core import run_image as _run_image
    from .sanitizers import RaceDetector
    image = Image.load(args.binary)
    detector = RaceDetector(mode="strict" if args.strict else "full",
                            max_reports=args.max_reports)
    result = _run_image(image, library=_library_from_args(args),
                        seed=args.seed, sanitizer=detector)
    if args.json:
        payload = {
            "binary": args.binary,
            "seed": args.seed,
            "mode": detector.mode,
            "fault": str(result.fault) if result.fault else None,
            "races": [r.as_dict() for r in detector.reports],
            "counters": detector.counters().snapshot(),
        }
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        sys.stdout.write(result.stdout.decode("latin1"))
        if result.stdout and not result.stdout.endswith(b"\n"):
            print()
        if result.fault is not None:
            print(f"[fault] {result.fault}", file=sys.stderr)
        print(f"--- {detector.mode}-mode race detection "
              f"({args.binary}, seed {args.seed}) ---")
        print(detector.report_text())
    if result.fault is not None:
        return 2
    return 1 if detector.reports else 0


def cmd_workloads(args) -> int:
    """``polynima workloads``: list the bundled benchmark programs."""
    from .workloads import ALL_WORKLOADS
    for wl in ALL_WORKLOADS:
        if args.group and wl.group != args.group:
            continue
        sizes = ", ".join(sorted(wl.inputs))
        print(f"{wl.name:20s} {wl.group:10s} inputs: {sizes}")
    return 0


def cmd_profile_collect(args) -> int:
    """``polynima profile collect``: record an execution profile of a
    binary by running it on the profiling emulator."""
    from .profile import ProfileCollector
    image = Image.load(args.binary)
    collector = ProfileCollector(image)
    profile = collector.collect(
        lambda _item: _library_from_args(args),
        inputs=[None] * args.runs, seed=args.seed, engine=args.engine)
    profile.save(args.output)
    info = profile.summary()
    print(f"wrote {args.output}: digest {info['digest'][:12]}, "
          f"{info['runs']} runs, {info['instructions']} instructions, "
          f"{info['blocks_profiled']} blocks, {info['loops']} loops")
    return 0


def cmd_profile_merge(args) -> int:
    """``polynima profile merge``: combine profiles of the same binary
    (e.g. one per input) into a single profile."""
    from .profile import Profile
    merged = Profile.load(args.profiles[0])
    for path in args.profiles[1:]:
        merged.merge(Profile.load(path))
    merged.save(args.output)
    print(f"wrote {args.output}: digest {merged.digest()[:12]}, "
          f"{merged.runs} runs over {len(args.profiles)} profiles")
    return 0


def cmd_profile_show(args) -> int:
    """``polynima profile show``: print a profile's headline numbers."""
    from .profile import Profile
    profile = Profile.load(args.profile)
    info = profile.summary()
    if args.json:
        json.dump(info, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"{key:{width}s}  {value}")
    hottest = profile.hottest_blocks(args.top)
    if hottest:
        print(f"--- hottest {len(hottest)} blocks ---")
        for addr, count in hottest:
            print(f"{addr:#10x}  {count}")
    return 0


def cmd_batch(args) -> int:
    """``polynima batch``: recompile many binaries in parallel through
    the content-addressed artifact cache.

    Jobs come from a JSON manifest (see ``docs/CLI.md``) or are built
    from ``--group``/``--workload``/``--opt``.  Exit status: 0 when
    every job succeeded, 1 when at least one job failed, 2 on a usage
    error (unreadable or malformed manifest, unknown group).
    """
    from .core import (ArtifactCache, BatchError, default_cache_dir,
                       jobs_for_group, load_manifest, run_batch)
    try:
        if args.manifest:
            jobs = load_manifest(args.manifest)
        elif args.group:
            jobs = jobs_for_group(
                args.group, opt_levels=tuple(args.opt or [3]),
                names=args.workload or None, fence_opt=args.fence_opt,
                seed=args.seed, size=args.size)
        else:
            print("batch: need a manifest file or --group", file=sys.stderr)
            return 2
        if args.profile_in:
            for job in jobs:
                job.profile = args.profile_in
        cache = None
        if not args.no_cache:
            cache = ArtifactCache(args.cache_dir or default_cache_dir())
        result = run_batch(jobs, jobs_n=args.jobs, cache=cache,
                           verify=args.verify)
    except BatchError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 2
    print(result.format_summary())
    for job in result.results:
        if job.error:
            print(f"[{job.name}] {job.error}", file=sys.stderr)
    if args.trace_out:
        result.save_trace(args.trace_out)
        print(f"wrote {args.trace_out}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.as_dict(), handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="polynima",
        description="Practical hybrid recompilation for multithreaded "
                    "binaries (EuroSys 2024 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MiniC source to a VXE binary")
    p.add_argument("source")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-O", "--opt", type=int, default=0, choices=OPT_LEVELS)
    p.set_defaults(func=cmd_compile)

    def common_run_args(p):
        """Attach the shared --seed/--params/--max-cycles options."""
        p.add_argument("--param", action="append",
                       help="integer parameter (repeatable)")
        p.add_argument("--input", help="input blob file")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="execute a VXE binary")
    p.add_argument("binary")
    common_run_args(p)
    p.add_argument("--engine", choices=Machine.ENGINES, default="fast",
                   help="interpreter loop: the plan-cache/superblock "
                        "engine or the seed reference loop "
                        "(bit-identical)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("disasm", help="static control-flow recovery")
    p.add_argument("binary")
    p.add_argument("--json", help="write the CFG JSON here")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("trace", help="run the ICFT tracer")
    p.add_argument("binary")
    p.add_argument("--cfg", help="CFG JSON to augment")
    common_run_args(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("lift", help="print the lifted IR")
    p.add_argument("binary")
    p.add_argument("--cfg")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("recompile", help="produce a recompiled binary")
    p.add_argument("binary")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--additive", action="store_true",
                   help="run the additive-lifting loop against the input")
    p.add_argument("--fence-opt", action="store_true",
                   help="run the §3.4 fence-removal analysis")
    p.add_argument("--trace-out", metavar="TRACE.json",
                   help="write a Chrome-trace JSON of the pipeline "
                        "stages (open in chrome://tracing or Perfetto)")
    p.add_argument("--profile-in", metavar="PROF.json",
                   help="guide the recompilation with this execution "
                        "profile (see 'polynima profile collect')")
    common_run_args(p)
    p.set_defaults(func=cmd_recompile)

    p = sub.add_parser("stats", help="run a binary and print emulator "
                                     "perf counters")
    p.add_argument("binary")
    p.add_argument("--json", help="also dump the counters as JSON here")
    p.add_argument("--profile-regs", action="store_true",
                   help="count per-thread register-file traffic "
                        "(slower emulation)")
    p.add_argument("--tsan", action="store_true",
                   help="attach the race detector; adds sanitizer.* "
                        "counters and fails on reported races")
    common_run_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("tsan", help="run a binary under the happens-"
                                    "before race detector")
    p.add_argument("binary")
    p.add_argument("--strict", action="store_true",
                   help="instruction-level happens-before only (the "
                        "differential fence-oracle mode)")
    p.add_argument("--max-reports", type=int, default=100,
                   help="cap on stored race reports (default 100)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON on stdout")
    common_run_args(p)
    p.set_defaults(func=cmd_tsan)

    p = sub.add_parser("workloads", help="list benchmark workloads")
    p.add_argument("--group")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("profile", help="collect, merge and inspect "
                                       "execution profiles (PGO)")
    psub = p.add_subparsers(dest="profile_command", required=True)

    pc = psub.add_parser("collect", help="profile a binary's execution")
    pc.add_argument("binary")
    pc.add_argument("-o", "--output", required=True,
                    help="write the profile JSON here")
    pc.add_argument("--runs", type=int, default=1,
                    help="executions to merge (run i uses seed+i; "
                         "default 1)")
    pc.add_argument("--engine", choices=Machine.ENGINES, default="fast",
                    help="emulator engine to profile under (profiles "
                         "from both engines are digest-identical)")
    common_run_args(pc)
    pc.set_defaults(func=cmd_profile_collect)

    pm = psub.add_parser("merge", help="combine profiles of one binary")
    pm.add_argument("profiles", nargs="+",
                    help="profile JSON files (same image)")
    pm.add_argument("-o", "--output", required=True)
    pm.set_defaults(func=cmd_profile_merge)

    ps = psub.add_parser("show", help="print a profile summary")
    ps.add_argument("profile")
    ps.add_argument("--json", action="store_true",
                    help="emit the summary as JSON on stdout")
    ps.add_argument("--top", type=int, default=10, metavar="N",
                    help="hottest blocks to list (default 10)")
    ps.set_defaults(func=cmd_profile_show)

    p = sub.add_parser("batch", help="parallel batch recompilation "
                                     "through the artifact cache")
    p.add_argument("manifest", nargs="?",
                   help="JSON job manifest ({'jobs': [...]} or a bare "
                        "list); omit to use --group/--workload")
    p.add_argument("--group",
                   help="build jobs from a workload suite "
                        "(phoenix/gapbs/ckit/realworld/spec)")
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="restrict --group to these workloads (repeatable)")
    p.add_argument("--opt", action="append", type=int, metavar="N",
                   choices=OPT_LEVELS,
                   help="opt level(s) for --group jobs (repeatable; "
                        "default 3)")
    p.add_argument("--fence-opt", action="store_true",
                   help="run the §3.4 fence-removal analysis per job")
    p.add_argument("--size", help="workload input size tier")
    p.add_argument("--seed", type=int, default=21,
                   help="seed for the dynamic analyses (default 21)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default 1 = in-process)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="artifact cache directory (default "
                        "$POLYNIMA_CACHE_DIR or ~/.cache/polynima)")
    p.add_argument("--no-cache", action="store_true",
                   help="always recompile; do not read or write the cache")
    p.add_argument("--verify", action="store_true",
                   help="on every cache hit, recompile fresh and fail "
                        "unless the artifact is bit-identical")
    p.add_argument("--profile-in", metavar="PROF.json",
                   help="guide every job with this execution profile "
                        "(its digest joins each job's cache key)")
    p.add_argument("--trace-out", metavar="TRACE.json",
                   help="write a merged Chrome trace (one lane per job)")
    p.add_argument("--json", metavar="OUT.json",
                   help="write the batch summary as JSON")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status.

    An unreadable or malformed input file (image, profile) is a usage
    error: one ``polynima <cmd>: <message>`` line on stderr, exit 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ImageError, ProfileError, OSError) as exc:
        command = args.command
        if command == "profile":
            command = f"profile {args.profile_command}"
        print(f"polynima {command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
