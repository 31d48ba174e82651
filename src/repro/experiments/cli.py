"""Command-line entry point: regenerate the paper's tables and figures.

Usage (after installing the package)::

    python -m repro.experiments.cli table5.1
    python -m repro.experiments.cli fig5.2
    python -m repro.experiments.cli fig5.4 --processes 2 3 4 --events 6
    python -m repro.experiments.cli fig5.9
    python -m repro.experiments.cli list-scenarios
    python -m repro.experiments.cli list-scenarios --format json
    python -m repro.experiments.cli run --scenario lossy-retransmit --workers 4
    python -m repro.experiments.cli run --scenario paper-default --backend asyncio
    python -m repro.experiments.cli run --scenario paper-default --backend cluster
    python -m repro.experiments.cli run --backend cluster --manifest cluster.toml
    python -m repro.experiments.cli run --scenario crash-restart-rejoin
    python -m repro.experiments.cli run --scenario paper-default --fault-plan 1@3+2:rejoin
    python -m repro.experiments.cli fuzz --seed 7 --points 1000 --out fuzz-out
    python -m repro.experiments.cli fleet --tenants 200 --shards 2 --verify 5
    python -m repro.experiments.cli fleet --tenants 50 --backpressure drop-newest --inbox-limit 8
    python -m repro.experiments.cli all

Each sub-command prints the corresponding rows/series as an aligned text
table; the heavier sweeps accept ``--processes``, ``--events``,
``--replications`` and ``--workers`` to control the workload scale (with
``--workers`` the engine shards the full sweep-point × replication product
across a process pool).  ``list-scenarios`` shows the registered scenario
catalogue (with each scenario's fault condition and recovery policy; add
``--format json`` for tooling) and ``run --scenario NAME`` executes one of
them — ``--backend {sim,asyncio,cluster}`` selects the discrete-event
simulator (default), the asyncio streaming runtime (monitors as concurrent
tasks; add ``--stream-transport tcp`` for real loopback sockets), or the
multi-process cluster runtime of :mod:`repro.cluster` (one OS process per
monitor; add ``--manifest FILE`` to pin worker addresses instead of
auto-allocating loopback ports), and ``--fault-plan SPEC`` injects monitor
crash/restart faults on top of the scenario's own fault model (see
:mod:`repro.faults`).  ``--stream-transport`` requires the asyncio backend
and ``--manifest`` the cluster backend; mismatched combinations fail fast
with a clear error.  The scale flags default to
:data:`~repro.experiments.harness.FIGURE_SCALE`.  The ``fuzz`` sub-command
runs the deterministic property fuzzer of :mod:`repro.fuzz` —
``--seed``/``--points`` pick the point stream, every
divergent or crashing point is shrunk to a minimal repro, ``--out DIR``
writes the report plus each shrunk repro as a replayable ``RunSpec`` JSON
document, and the exit status is non-zero iff the run produced an
*unexpected* finding (a divergence outside the deliberately
soundness-breaking attack plans, or any crash).  The ``fleet`` sub-command
runs a synthetic multi-tenant monitoring fleet (:mod:`repro.fleet`):
``--tenants``/``--shards`` size it, ``--backpressure``/``--inbox-limit``
pick the per-tenant inbox policy, ``--verify K`` spot-checks K tenants for
byte-identical equivalence against standalone asyncio runs (non-zero exit
on mismatch), and ``--json OUT`` writes, once the run is over, the fleet
throughput and saturation counters plus one record per tenant in tenant-id
order (:meth:`repro.fleet.FleetReport.as_dict`) as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from ..faults import format_fault_plan, parse_fault_plan
from ..scenarios import get_scenario, list_scenarios
from .engine import ExecutionConfig
from .harness import (
    FIGURE_SCALE,
    ExperimentScale,
    format_table,
    run_fig_5_1,
    run_fig_5_2_5_3,
    run_fig_5_4_5_5,
    run_fig_5_9,
    run_scenario,
    run_table_5_1,
)

__all__ = ["main"]

#: result columns shared by every simulated sweep; scenario-specific network
#: counters (retransmissions, held_messages, ...) are appended dynamically
_SWEEP_COLUMNS = [
    "property",
    "processes",
    "events",
    "messages",
    "global_views",
    "delayed_events",
    "delay_time_pct_per_view",
    "monitor_extra_time",
]


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        process_counts=tuple(args.processes),
        events_per_process=args.events,
        replications=args.replications,
        max_views_per_state=args.view_budget,
        workers=args.workers,
    )


def _emit_table_5_1(args: argparse.Namespace) -> None:
    print("Table 5.1 — transitions per automaton")
    print(format_table(run_table_5_1(process_counts=tuple(args.processes))))


def _emit_fig_5_1(args: argparse.Namespace) -> None:
    series = run_fig_5_1(process_counts=tuple(args.processes))
    print("Fig 5.1a — all transitions per property")
    for name, values in series["all_transitions"].items():
        print(f"  {name}: {values}")
    print("Fig 5.1b — outgoing transitions per property")
    for name, values in series["outgoing_transitions"].items():
        print(f"  {name}: {values}")


def _emit_fig_5_2_5_3(args: argparse.Namespace) -> None:
    for name, text in run_fig_5_2_5_3(min(args.processes)).items():
        print(f"--- property {name} ---")
        print(text)
        print()


def _emit_fig_5_4_5_8(args: argparse.Namespace) -> None:
    rows = run_fig_5_4_5_5(scale=_scale_from_args(args))
    print("Figures 5.4–5.8 — monitored workload sweep")
    print(format_table(rows, columns=_SWEEP_COLUMNS))


def _emit_fig_5_9(args: argparse.Namespace) -> None:
    rows = run_fig_5_9(
        num_processes=min(4, max(args.processes)),
        scale=_scale_from_args(args),
    )
    print("Fig 5.9 — varying the communication frequency (property C)")
    print(
        format_table(
            rows,
            columns=["comm_mu", "events", "messages", "delayed_events", "global_views"],
        )
    )


def _execution_config(args: argparse.Namespace) -> ExecutionConfig:
    """Validate the backend flag matrix and build the execution config.

    The error matrix is deliberately strict so a silently-ignored flag can
    never mislead a measurement:

    =====================  =======  =========  =========
    flag                   sim      asyncio    cluster
    =====================  =======  =========  =========
    ``--stream-transport``  error    used       error
    ``--manifest``          error    error      used
    =====================  =======  =========  =========
    """
    if args.stream_transport is not None and args.backend != "asyncio":
        raise SystemExit(
            f"error: --stream-transport only applies to --backend asyncio "
            f"(got --backend {args.backend})"
        )
    if args.manifest is not None and args.backend != "cluster":
        raise SystemExit(
            f"error: --manifest only applies to --backend cluster "
            f"(got --backend {args.backend})"
        )
    if args.manifest is not None and not Path(args.manifest).exists():
        raise SystemExit(f"error: cluster manifest not found: {args.manifest}")
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = parse_fault_plan(args.fault_plan)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    return ExecutionConfig(
        backend=args.backend,
        stream_transport=args.stream_transport or "memory",
        fault_plan=fault_plan,
        manifest=args.manifest,
    )


def _emit_list_scenarios(args: argparse.Namespace) -> None:
    if args.format == "json":
        catalogue = [scenario.describe() for scenario in list_scenarios()]
        print(json.dumps(catalogue, indent=2, sort_keys=True))
        return
    rows = []
    for scenario in list_scenarios():
        description = scenario.describe()
        faults = description["faults"]
        rows.append(
            {
                "name": scenario.name,
                "workload": description["workload"]["kind"],
                "network": description["network"]["kind"],
                "faults": faults["kind"] if faults is not None else "-",
                "recovery": faults.get("recovery", "-") if faults is not None else "-",
                "tags": ",".join(scenario.tags),
                "description": scenario.description,
            }
        )
    print(f"{len(rows)} registered scenarios")
    print(
        format_table(
            rows,
            columns=[
                "name",
                "workload",
                "network",
                "faults",
                "recovery",
                "tags",
                "description",
            ],
        )
    )


def _emit_run_scenario(args: argparse.Namespace) -> None:
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}") from None
    config = _execution_config(args)
    scale = _scale_from_args(args)
    rows = run_scenario(scenario, scale, config=config)
    columns = list(_SWEEP_COLUMNS)
    for row in rows:
        for key in row:
            if key not in columns and key not in (
                "token_messages", "entries_created", "log_events", "log_messages"
            ):
                columns.append(key)
    backend = config.backend
    if backend == "asyncio":
        backend = f"asyncio/{config.stream_transport}"
    print(f"scenario {scenario.name} [backend {backend}] — {scenario.description}")
    if config.fault_plan is not None:
        print(
            f"fault plan override: {format_fault_plan(config.fault_plan) or '(empty)'}"
        )
    print(format_table(rows, columns=columns))


def _emit_fuzz(args: argparse.Namespace) -> None:
    from ..fuzz import CLASS_SOUND, FuzzOutcome, run_fuzz

    def progress(outcome: FuzzOutcome) -> None:
        if outcome.classification == CLASS_SOUND:
            return
        if outcome.is_finding:
            tag = "UNEXPECTED FINDING"
        elif outcome.attack:
            tag = "attack point"
        else:
            tag = "expected storm"
        detail = outcome.error or ", ".join(outcome.soundness_violations) or (
            "backend divergence" if outcome.backend_divergence else ""
        )
        print(
            f"point {outcome.index}: {outcome.classification} ({tag}) "
            f"[{outcome.spec.scenario} n={outcome.spec.num_processes} "
            f"plan={outcome.spec.fault_plan}] {detail}",
            flush=True,
        )

    seed = 0 if args.seed is None else args.seed
    start = time.perf_counter()
    report = run_fuzz(seed, args.points, shrink=not args.no_shrink, progress=progress)
    total = time.perf_counter() - start
    counts = report.counts
    print(
        f"fuzzed {args.points} points (seed {seed}) in {total:.1f}s: "
        f"{counts['sound']} sound, {counts['divergent']} divergent, "
        f"{counts['crash']} crashed, {counts['storm']} storms; "
        f"{len(report.findings)} unexpected finding(s)"
    )
    worst = report.worst_overhead()
    if worst is not None:
        print(
            f"worst monitoring overhead: point {worst.index} "
            f"({worst.spec.scenario}, property {worst.spec.property_name}) — "
            f"{worst.overhead['messages_per_event']:.2f} messages/event, "
            f"{worst.overhead['global_views']:.0f} global views"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "fuzz-report.json").write_text(
            json.dumps(report.as_dict(), indent=2) + "\n"
        )
        for index, spec in sorted(report.shrunk.items()):
            spec.save(out / f"repro-{index:04d}.json")
        print(f"wrote {out}/fuzz-report.json and {len(report.shrunk)} shrunk repro(s)")
    if report.findings:
        raise SystemExit(1)


def _emit_fleet(args: argparse.Namespace) -> None:
    from ..fleet import (
        FleetConfig,
        run_fleet,
        standalone_tenant_result,
        synthetic_fleet,
    )

    tenants = synthetic_fleet(
        args.tenants,
        num_processes=min(args.processes),
        events_per_process=args.events,
        base_seed=2015 if args.seed is None else args.seed,
    )
    config = FleetConfig(
        tenants=tenants,
        shards=args.shards,
        inbox_limit=args.inbox_limit,
        backpressure=args.backpressure,
    )
    report = run_fleet(config)
    document = report.as_dict()
    print(
        f"fleet: {report.tenants_admitted} tenants on {report.shards} shard(s), "
        f"backpressure {report.backpressure} (inbox limit {report.inbox_limit})"
    )
    rows = [
        {"metric": name, "value": f"{value:g}"}
        for name, value in document.items()
        if name not in ("backpressure", "tenants")
    ]
    print(format_table(rows, columns=["metric", "value"]))
    if args.verify:
        stride = max(1, len(report.results) // args.verify)
        picked = report.results[::stride][: args.verify]
        mismatches = 0
        for result in picked:
            spec = next(t for t in tenants if t.tenant_id == result.tenant_id)
            reference = standalone_tenant_result(spec)
            ok = reference.equivalence_key() == result.equivalence_key()
            mismatches += 0 if ok else 1
            print(
                f"verify {result.tenant_id} (property {result.property_name}): "
                f"{'ok' if ok else 'MISMATCH'}"
            )
        if mismatches:
            raise SystemExit(
                f"error: {mismatches}/{len(picked)} spot-checked tenant(s) "
                f"diverged from their standalone asyncio runs"
            )
        print(f"verified {len(picked)} tenant(s) against standalone runs")
    if args.json:
        try:
            Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
        except OSError as error:
            raise SystemExit(f"error: cannot write {args.json}: {error}") from None
        print(f"wrote {args.json}")


_COMMANDS = {
    "table5.1": _emit_table_5_1,
    "fig5.1": _emit_fig_5_1,
    "fig5.2": _emit_fig_5_2_5_3,
    "fig5.3": _emit_fig_5_2_5_3,
    "fig5.4": _emit_fig_5_4_5_8,
    "fig5.5": _emit_fig_5_4_5_8,
    "fig5.6": _emit_fig_5_4_5_8,
    "fig5.7": _emit_fig_5_4_5_8,
    "fig5.8": _emit_fig_5_4_5_8,
    "fig5.9": _emit_fig_5_9,
    "list-scenarios": _emit_list_scenarios,
    "run": _emit_run_scenario,
    "fuzz": _emit_fuzz,
    "fleet": _emit_fleet,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the paper's evaluation.",
    )
    parser.add_argument(
        "artefact",
        choices=sorted(_COMMANDS) + ["all"],
        help="which table/figure to regenerate ('all' runs everything), "
        "'list-scenarios' to show the scenario catalogue, or 'run' to "
        "execute one scenario",
    )
    parser.add_argument(
        "--scenario",
        default="paper-default",
        help="scenario name for 'run' (see list-scenarios)",
    )
    parser.add_argument(
        "--backend",
        choices=["sim", "asyncio", "cluster"],
        default="sim",
        help="monitoring backend for 'run': the discrete-event simulator "
        "(default), the asyncio streaming runtime where monitors run as "
        "concurrent tasks, or the cluster runtime where every monitor is "
        "its own OS process",
    )
    parser.add_argument(
        "--stream-transport",
        choices=["memory", "tcp"],
        default=None,
        help="asyncio backend only: exchange monitor messages through "
        "in-process queues (the default) or real loopback TCP sockets",
    )
    parser.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="cluster backend only: TOML/JSON manifest pinning worker "
        "host:port addresses (default: auto-allocate loopback ports)",
    )
    parser.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="list-scenarios only: aligned table (default) or a JSON "
        "catalogue for tooling",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="SPEC",
        default=None,
        help="run only: inject monitor crashes, overriding the scenario's "
        "own fault model; comma-separated "
        "'<process>@<after_events>[+<down_events>][:<recovery>]' specs, "
        "e.g. '1@4+2:rejoin' (recovery: replay|rejoin)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        nargs="+",
        default=list(FIGURE_SCALE.process_counts),
        help="process counts to sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=FIGURE_SCALE.events_per_process,
        help="internal events per process",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=FIGURE_SCALE.replications,
        help="replications per data point",
    )
    parser.add_argument(
        "--view-budget",
        type=int,
        default=FIGURE_SCALE.max_views_per_state,
        help="per-state view budget of each monitor (0 disables the bound)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes sharding the sweep-point x replication product "
        "(default: 1, serial)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="fleet only: write the fleet's saturation counters and one "
        "record per tenant to OUT as JSON",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fuzz: master seed of the deterministic point stream (default 0); "
        "fleet: base seed of the synthetic tenants (default 2015)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=50,
        help="fuzz only: how many points to generate and execute",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="fuzz only: directory for the fuzz report and the shrunk repro "
        "RunSpec documents",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="fuzz only: skip shrinking divergent/crashing points",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=50,
        help="fleet only: how many synthetic tenants to admit (properties "
        "round-robin over A-F; seeds stride from --seed, default 2015)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="fleet only: worker processes the tenants are hash-partitioned "
        "across (default: 1, one shared event loop)",
    )
    parser.add_argument(
        "--inbox-limit",
        type=int,
        default=1024,
        help="fleet only: per-tenant bound on unprocessed inbox items before "
        "the backpressure policy applies",
    )
    parser.add_argument(
        "--backpressure",
        choices=["block", "drop-newest"],
        default="block",
        help="fleet only: what a saturated tenant inbox does — stall the "
        "feeder losslessly (block) or shed the newest events (drop-newest)",
    )
    parser.add_argument(
        "--verify",
        type=int,
        default=0,
        metavar="K",
        help="fleet only: spot-check K tenants for byte-identical "
        "equivalence against standalone asyncio runs (non-zero exit on "
        "mismatch)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the sub-command named on the command line; return the exit status."""
    args = build_parser().parse_args(argv)
    if args.view_budget < 0:
        raise SystemExit(
            f"error: --view-budget must be 0 (no bound) or positive (got {args.view_budget})"
        )
    if args.view_budget == 0:
        args.view_budget = None
    if args.artefact == "all":
        artefacts: list[str] = [
            "table5.1", "fig5.1", "fig5.2", "fig5.4", "fig5.9", "list-scenarios",
        ]
    else:
        artefacts = [args.artefact]
    for artefact in artefacts:
        _COMMANDS[artefact](args)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
