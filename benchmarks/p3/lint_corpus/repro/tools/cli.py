"""Command-line utilities: papi_avail, papi_native_avail, papirun, lint.

The real PAPI distribution ships small command-line programs next to the
library; the paper's Section 5 explicitly plans "a papirun utility that
will allow users to execute a program and easily collect basic timing
and hardware counter data".  This module provides them over the
simulated platforms, plus the papi-lint static analyzers::

    python -m repro.tools.cli avail simPOWER
    python -m repro.tools.cli native-avail simX86
    python -m repro.tools.cli component-avail simX86
    python -m repro.tools.cli papirun simX86 dot \\
        --events uncore:::MEM_BW_RD,PAPI_TOT_INS
    python -m repro.tools.cli papirun simIA64 dot --n 2000 --multiplex
    python -m repro.tools.cli papirun simPOWER dot --inject 2718:loss
    python -m repro.tools.cli calibrate simALPHA --kernel dot --n 50000
    python -m repro.tools.cli platforms
    python -m repro.tools.cli lint examples/quickstart.py --platform simX86
    python -m repro.tools.cli check-events PAPI_L1_DCM PAPI_L1_ICM \\
        --platform simSPARC --matrix
    python -m repro.tools.cli check-presets --format json

Every subcommand returns 0 on success and prints a table to stdout, so
the utilities compose with shell pipelines like their C ancestors.
Lint exit codes follow linter convention: 0 clean (warnings/info do not
fail), 1 on error-severity findings; ``check-events`` additionally
returns 2 when the set needs multiplexing to run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.report import Table
from repro.core.calibrate import calibrate
from repro.core.library import Papi
from repro.core.presets import PRESETS
from repro.platforms import PLATFORM_NAMES, create
from repro.tools.papirun import DEFAULT_EVENTS, papirun
from repro.workloads import CALIBRATION_KERNELS


def cmd_platforms(_args) -> int:
    """List the simulated platforms."""
    table = Table(["platform", "description"])
    for name in PLATFORM_NAMES:
        sub = create(name)
        table.add_row(name, sub.describe())
    print(table.render())
    return 0


def cmd_avail(args) -> int:
    """papi_avail: preset availability on one platform."""
    papi = Papi(create(args.platform))
    table = Table(
        ["preset", "avail", "kind", "description"],
        title=f"papi_avail: {args.platform} "
              f"({papi.num_counters} hardware counters)",
    )
    available = 0
    for preset in PRESETS:
        info = papi.event_info(preset.code)
        if args.available_only and not info.available:
            continue
        available += info.available
        table.add_row(
            info.symbol,
            "yes" if info.available else "no",
            info.kind,
            info.description,
        )
    print(table.render())
    print(f"{available} of {len(PRESETS)} presets available")
    return 0


def cmd_native_avail(args) -> int:
    """papi_native_avail: the platform's native event table."""
    substrate = create(args.platform)
    table = Table(
        ["native event", "counters", "description"],
        title=f"papi_native_avail: {args.platform}",
    )
    for event in substrate.list_native():
        allowed = (
            "any"
            if event.allowed_counters is None
            else ",".join(map(str, event.allowed_counters))
        )
        table.add_row(event.name, allowed, event.description)
    print(table.render())
    if substrate.uses_groups:
        print(f"\ncounter groups ({len(substrate.groups)}):")
        for g in substrate.groups:
            print(f"  group {g.gid}: {', '.join(sorted(g.assignments))}")
    return 0


def cmd_component_avail(args) -> int:
    """papi_component_avail: registered components and their events."""
    papi = Papi(create(args.platform))
    print(
        f"component-avail: {args.platform} "
        f"({papi.num_components()} components)"
    )
    for comp in papi.components:
        info = comp.describe()
        print(
            f"\ncomponent {info['cid']}: {info['name']} -- "
            f"{info['description']}"
        )
        print(
            f"  counters: {info['n_counters']}, multiplex: "
            f"{'yes' if info['supports_multiplex'] else 'no'}"
        )
        if comp.name == "cpu":
            print(
                f"  events: {len(comp.event_names())} native "
                f"(see native-avail)"
            )
            continue
        table = Table(["event", "units", "description"])
        for short in comp.event_names():
            ev = comp.query(short)
            table.add_row(
                f"{comp.name}:::{short}", ev.units, ev.description
            )
        print(table.render())
    return 0


def cmd_papirun(args) -> int:
    """papirun: run a workload and print timing + counters."""
    try:
        factory = CALIBRATION_KERNELS[args.workload]
    except KeyError:
        print(
            f"unknown workload {args.workload!r}; "
            f"known: {', '.join(sorted(CALIBRATION_KERNELS))}",
            file=sys.stderr,
        )
        return 2
    substrate = create(args.platform)
    workload = factory(args.n, use_fma=substrate.HAS_FMA)
    try:
        result = papirun(
            substrate,
            workload,
            events=args.events.split(",") if args.events else None,
            multiplex=args.multiplex,
            inject=args.inject,
        )
    except ValueError as exc:      # a malformed --inject spec
        print(f"papirun: {exc}", file=sys.stderr)
        return 2
    print(result.to_text())
    return 0


def cmd_calibrate(args) -> int:
    """calibrate: measured vs expected FLOPs for a known kernel."""
    result = calibrate(
        create(args.platform),
        kernel=args.kernel,
        n=args.n,
        sampling_period=args.sampling_period,
    )
    table = Table(
        ["quantity", "value"],
        title=f"calibrate: {result.kernel}(n={result.n}) on {result.platform}",
    )
    table.add_row("expected FLOPs", result.expected_flops)
    table.add_row("measured PAPI_FP_OPS", result.measured_fp_ops)
    table.add_row("FP_OPS error %", round(result.fp_ops_error * 100, 3))
    table.add_row("expected fp instructions", result.expected_fp_ins)
    table.add_row("measured PAPI_FP_INS", result.measured_fp_ins)
    table.add_row("cycles", result.cycles)
    table.add_row("real usec", round(result.real_usec, 2))
    print(table.render())
    # nonzero exit when calibration is badly off: scriptable health check
    return 0 if result.fp_ops_error < 0.25 else 1


def cmd_validate(args) -> int:
    """validate: conformance & accuracy matrix over the simulated fleet."""
    from repro.validate import run_all

    try:
        matrix = run_all(
            platforms=args.platform or None,
            planes=args.planes.split(",") if args.planes else None,
            thorough=args.thorough,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"validate: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(matrix.to_json_str())
            fh.write("\n")
    if args.format == "json":
        print(matrix.to_json_str())
    else:
        print(matrix.to_text())
    return 0 if matrix.passed else 1


def cmd_refute(args) -> int:
    """refute: adversarial model/measurement disagreement hunt."""
    from repro.refute import RefuteConfig, run_refute
    from repro.validate.seeds import derive_seed

    # same derivation the validate matrix uses for its refute plane, so
    # `refute --seed N` and `validate --seed N --planes refute` exercise
    # the identical program corpus.
    seed = derive_seed(args.seed, "plane:refute")
    config = (RefuteConfig.thorough(seed=seed,
                                    platforms=args.platform or None)
              if args.thorough else
              RefuteConfig.quick(seed=seed, platforms=args.platform or None))
    report = run_refute(config)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json_str())
            fh.write("\n")
    if args.format == "json":
        print(report.to_json_str())
    else:
        print(report.to_markdown())
        tally = report.summary()
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"\nrefute: {verdict} ({tally['confirmed']} confirmed, "
            f"{tally['refuted']} refuted, "
            f"{tally['undecidable']} undecidable)"
        )
    return 0 if report.passed else 1


def expand_lint_targets(paths) -> list:
    """Files stay files; directories are walked for ``*.py`` files."""
    import os

    targets = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if not d.startswith(".")
                           and d != "__pycache__"]
                targets.extend(
                    os.path.join(root, name)
                    for name in sorted(names) if name.endswith(".py")
                )
        else:
            targets.append(path)
    return targets


def cmd_lint(args) -> int:
    """papi-lint: static analysis of instrumentation scripts."""
    from repro.lint import (
        Severity,
        lint_file,
        render_json,
        render_sarif,
        render_text,
        worst_severity,
    )

    flow = getattr(args, "flow", False)
    diagnostics = []
    for path in expand_lint_targets(args.files):
        diagnostics.extend(
            lint_file(path, default_platform=args.platform, flow=flow)
        )
    sarif_out = getattr(args, "sarif_out", None)
    if sarif_out:
        with open(sarif_out, "w") as fh:
            fh.write(render_sarif(diagnostics))
            fh.write("\n")
    if args.format == "json":
        print(render_json(diagnostics))
    elif args.format == "sarif":
        print(render_sarif(diagnostics))
    else:
        print(render_text(diagnostics))
    return 1 if worst_severity(diagnostics) == Severity.ERROR else 0


def cmd_check_events(args) -> int:
    """Static feasibility verdict for an event list on one platform."""
    from repro.lint import check_events, portability_matrix

    report = check_events(tuple(args.events), args.platform)

    if args.format == "json":
        import json

        payload = {
            "platform": report.platform,
            "events": list(report.events),
            "status": report.status,
            "resolutions": [
                {
                    "name": r.name,
                    "kind": r.kind,
                    "natives": list(r.natives),
                }
                for r in report.resolutions
            ],
            "feasible_direct": report.feasible_direct,
            "feasible_multiplexed": report.feasible_multiplexed,
            "assignment": report.assignment,
            "group": report.group,
            "conflict_witness": list(report.conflict_witness),
            "hall_witness": (
                None if report.hall_witness is None else {
                    "natives": list(report.hall_witness[0]),
                    "counters": list(report.hall_witness[1]),
                }
            ),
        }
        if args.matrix:
            payload["matrix"] = {
                name: rep.status
                for name, rep in portability_matrix(
                    tuple(args.events)
                ).items()
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        table = Table(
            ["event", "resolves to", "natives"],
            title=f"check-events: {args.platform} [{report.status}]",
        )
        for r in report.resolutions:
            table.add_row(
                r.name, r.kind, ", ".join(r.natives) or "-"
            )
        print(table.render())
        if report.unknown:
            print(f"unknown event name(s): {', '.join(report.unknown)}")
        if report.unavailable:
            print(
                f"not available on {args.platform}: "
                f"{', '.join(report.unavailable)}"
            )
        if report.unknown or report.unavailable:
            # no allocation verdict: it would only cover resolved events
            pass
        elif report.sampling and report.feasible_direct:
            print(
                "sampling platform: counts are derived from samples, "
                "no counter allocation"
            )
        elif report.feasible_direct:
            if report.group is not None:
                print(f"feasible: counter group {report.group}")
            elif report.assignment:
                placed = ", ".join(
                    f"{name}->c{counter}"
                    for name, counter in sorted(report.assignment.items())
                )
                print(f"feasible: {placed}")
            else:
                print("feasible")
        else:
            witness = ", ".join(report.conflict_witness)
            print(f"infeasible: minimal conflicting subset {{{witness}}}")
            if report.hall_witness is not None:
                natives, counters = report.hall_witness
                print(
                    f"Hall violation: natives {list(natives)} share "
                    f"only counters {list(counters)}"
                )
            if report.feasible_multiplexed:
                print("set_multiplex() would make this set runnable")
        if args.matrix:
            matrix = portability_matrix(tuple(args.events))
            mtable = Table(
                ["platform", "status"], title="portability matrix (E8)"
            )
            for name in PLATFORM_NAMES:
                mtable.add_row(name, matrix[name].status)
            print()
            print(mtable.render())

    if report.unknown or report.unavailable:
        return 1
    if report.feasible_direct:
        return 0
    return 2 if report.feasible_multiplexed else 1


def cmd_papid(args) -> int:
    """papid: run a monitored session fleet under the daemon.

    Serves a fleet of --sessions monitoring sessions across --shards
    supervised workers, drives --rounds batched read sweeps through a
    PapidClient, then drains.  With --inject SEED:daemon-chaos the
    saboteur kills/wedges workers mid-run and the exit code asserts the
    robustness contract: every session recovered (with an explicit
    lost-interval ledger) or reported unrecovered, counts monotone,
    journal and registry consistent, drain clean.
    """
    import json as _json
    import signal

    from repro.daemon import (
        DaemonConfig,
        PapidClient,
        PapidServer,
        SessionSpec,
    )

    platforms = args.platform or ["simX86"]
    config = DaemonConfig(
        nshards=args.shards,
        transport=args.transport,
        inject=args.inject,
        journal_path=args.journal,
        batch_timeout=args.batch_timeout,
        heartbeat_interval=args.heartbeat,
        wedge_timeout=args.wedge_timeout,
    )
    server = PapidServer(config)
    signal.signal(signal.SIGTERM, lambda *_: server.drain())
    specs = [
        SessionSpec(
            sid=f"papid-{i:05d}",
            platform=platforms[i % len(platforms)],
            seed=args.seed + i,
            priority=i % 3,
        )
        for i in range(args.sessions)
    ]
    sids = [s.sid for s in specs]
    monotone = True
    prev: dict = {}
    try:
        with PapidClient(server, seed=args.seed) as client:
            created = client.create_fleet(specs)
            failed = [r for r in created if not r.ok]
            client.start_many(sids)
            for _round in range(args.rounds):
                for res in client.read_many(sids):
                    if not res.ok:
                        continue
                    old = prev.get(res.sid, {})
                    if any(res.values[k] < old.get(k, 0)
                           for k in res.values):
                        monotone = False
                    prev[res.sid] = res.values
            client.stop_many(sids)
            problems = server.check_consistency()
            digest = server.fleet_digest()
            health = server.health()
    finally:
        health_final = server.drain()
    summary = health.summary()
    summary["drained"] = health_final.drained
    summary["fleet_digest"] = digest
    summary["monotone"] = monotone
    summary["consistency_problems"] = problems
    summary["create_failures"] = len(failed)
    if args.format == "json":
        print(_json.dumps(summary, indent=2, sort_keys=True))
    else:
        table = Table(
            ["quantity", "value"],
            title=f"papid: {args.sessions} sessions / {args.shards} shards"
                  f" ({args.transport})"
                  + (f", inject {args.inject}" if args.inject else ""),
        )
        for key in (
            "sessions", "running", "stopped", "crashes_detected",
            "wedges_detected", "recoveries", "sessions_recovered",
            "sessions_unrecovered", "shed_reads", "stale_reads",
            "deadline_expiries", "transient_returns", "journal_records",
        ):
            table.add_row(key, summary[key])
        table.add_row("monotone", monotone)
        table.add_row("consistent", not problems)
        table.add_row("drained", health_final.drained)
        table.add_row("fleet digest", digest[:16])
        print(table.render())
    healthy = (
        monotone
        and not problems
        and not failed
        and summary["sessions_unrecovered"] == 0
        and health_final.drained
    )
    return 0 if healthy else 1


def cmd_check_presets(args) -> int:
    """Cross-validate the shipped preset->native tables."""
    from repro.lint import (
        Severity,
        lint_preset_tables,
        render_json,
        render_text,
        worst_severity,
    )

    platforms = args.platform or None
    diagnostics = lint_preset_tables(platforms)
    if args.format == "json":
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
    return 1 if worst_severity(diagnostics) == Severity.ERROR else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.cli",
        description="PAPI-reproduction command line utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list simulated platforms")

    p = sub.add_parser("avail", help="preset availability (papi_avail)")
    p.add_argument("platform", choices=PLATFORM_NAMES)
    p.add_argument("--available-only", action="store_true")

    p = sub.add_parser(
        "native-avail", help="native event table (papi_native_avail)"
    )
    p.add_argument("platform", choices=PLATFORM_NAMES)

    p = sub.add_parser(
        "component-avail",
        help="registered components and their event namespaces "
             "(papi_component_avail)",
    )
    p.add_argument("platform", choices=PLATFORM_NAMES)

    p = sub.add_parser("papirun", help="run a workload with counters")
    p.add_argument("platform", choices=PLATFORM_NAMES)
    p.add_argument("workload", help="kernel name (dot, axpy, triad, ...)")
    p.add_argument("--n", type=int, default=2000, help="problem size")
    p.add_argument(
        "--events",
        help=f"comma-separated preset list "
             f"(default: {','.join(DEFAULT_EVENTS)})",
    )
    p.add_argument("--multiplex", action="store_true")
    p.add_argument(
        "--inject", metavar="SEED:PROFILE", default=None,
        help="run under deterministic fault injection, e.g. 2718:chaos "
             "(profiles: none, transient, loss, irq, corrupt, jitter, "
             "chaos); the same spec reproduces the same fault schedule",
    )

    p = sub.add_parser("calibrate", help="check counts against ground truth")
    p.add_argument("platform", choices=PLATFORM_NAMES)
    p.add_argument("--kernel", default="dot",
                   choices=sorted(CALIBRATION_KERNELS))
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--sampling-period", type=int, default=None)

    p = sub.add_parser(
        "validate",
        help="conformance & accuracy matrix (oracle, components, cost, "
             "convergence, skid, refute planes)",
    )
    p.add_argument(
        "--platform", choices=PLATFORM_NAMES, action="append",
        help="restrict to one platform (repeatable; default: all six)",
    )
    p.add_argument(
        "--planes", default=None,
        help="comma-separated subset of oracle,virtual,components,cost,"
             "convergence,skid,refute (default: all)",
    )
    p.add_argument(
        "--thorough", action="store_true",
        help="nightly-scale matrix: longer sweeps, denser sampling",
    )
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="also write the JSON report to PATH (the CI artifact)",
    )

    p = sub.add_parser(
        "refute",
        help="hunt for model/measurement disagreements with generated "
             "adversarial micro-programs",
    )
    p.add_argument(
        "--platform", choices=PLATFORM_NAMES, action="append",
        help="restrict to one platform (repeatable; default: all six)",
    )
    p.add_argument(
        "--thorough", action="store_true",
        help="nightly-scale sweep: more/bigger programs, full "
             "tier x ncpus cross per program",
    )
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="also write the repro.refute/1 JSON report to PATH",
    )

    p = sub.add_parser(
        "lint", help="papi-lint: static analysis of counter scripts"
    )
    p.add_argument(
        "files", nargs="+",
        help="Python scripts to lint (directories are walked for *.py)",
    )
    p.add_argument(
        "--platform", choices=PLATFORM_NAMES, default=None,
        help="platform for feasibility checks when the script does not "
             "pin one statically",
    )
    p.add_argument(
        "--flow", action="store_true",
        help="also run the CFG-based typestate pass (PL3xx/PL4xx: "
             "path-sensitive lifecycle, leak-on-exception and SMP "
             "misuse rules)",
    )
    p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text"
    )
    p.add_argument(
        "--sarif-out", metavar="PATH", default=None,
        help="also write a SARIF 2.1.0 log to PATH (the CI artifact), "
             "independent of --format",
    )

    p = sub.add_parser(
        "check-events",
        help="static allocability of an event list on one platform",
    )
    p.add_argument("events", nargs="+", help="preset or native names")
    p.add_argument("--platform", choices=PLATFORM_NAMES, required=True)
    p.add_argument(
        "--matrix", action="store_true",
        help="also print the cross-platform portability matrix",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser(
        "papid",
        help="run a monitored session fleet under the supervised daemon",
    )
    p.add_argument("--sessions", type=int, default=64,
                   help="fleet size (default 64)")
    p.add_argument("--shards", type=int, default=4,
                   help="supervised worker count (default 4)")
    p.add_argument("--rounds", type=int, default=5,
                   help="batched read sweeps over the fleet (default 5)")
    p.add_argument(
        "--platform", choices=PLATFORM_NAMES, action="append",
        help="platform(s) for the sessions, round-robin (repeatable; "
             "default simX86)",
    )
    p.add_argument(
        "--transport", choices=["process", "inline"], default="process",
        help="worker transport (inline = in-process, for quick checks)",
    )
    p.add_argument(
        "--inject", metavar="SEED:PROFILE", default=None,
        help="chaos spec, e.g. 42:daemon-chaos (kills/wedges workers "
             "mid-run; the run must still satisfy the recovery contract)",
    )
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="write the append-only session journal to PATH")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--batch-timeout", type=float, default=10.0)
    p.add_argument("--heartbeat", type=float, default=0.25)
    p.add_argument("--wedge-timeout", type=float, default=2.0)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser(
        "check-presets",
        help="cross-validate the shipped preset->native tables",
    )
    p.add_argument(
        "--platform", choices=PLATFORM_NAMES, action="append",
        help="restrict to one platform (repeatable; default: all)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser


_COMMANDS = {
    "platforms": cmd_platforms,
    "avail": cmd_avail,
    "native-avail": cmd_native_avail,
    "component-avail": cmd_component_avail,
    "papirun": cmd_papirun,
    "calibrate": cmd_calibrate,
    "validate": cmd_validate,
    "refute": cmd_refute,
    "lint": cmd_lint,
    "check-events": cmd_check_events,
    "check-presets": cmd_check_presets,
    "papid": cmd_papid,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
