"""One fresh process of the benchmark: set up, then measure, trace or capture.

``perf/run.py`` starts this module with ``python -m perf.child``.  Every child
imports the program, synthesizes and compiles the monitors and generates the
workload's inputs, and reports how long that took since the parent spawned
it.  It then goes on to its share of the timed passes (no wrapper installed —
asserted) or to the traced pass.  The result is one JSON document on the last
line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time

from . import spec
from .hostclock import HostClock, Interval

__all__ = ["main"]

#: seconds the centralized oracle may spend on one session at ``--capture``
_ORACLE_LIMIT_S = 60


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perf.child", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--tenants", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--mode", choices=("timed", "traced", "capture"), required=True)
    parser.add_argument("--spans", default=None)
    return parser


def _interval_json(interval: Interval) -> dict[str, float]:
    return {
        "wall_s": interval.wall_s,
        "work_s": interval.work_s,
        "ref_s": interval.ref_s,
        "mean_burst_s": interval.mean_burst_s,
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _timed(prepared, expected, host: HostClock, seconds: float) -> dict:
    """Whole passes over the workload until *seconds* are used up."""
    from . import check, layers
    from .workloads import run_pass

    layers.assert_untraced()
    begun = host.now()
    reference = None
    if prepared.runner == "fleet":
        # the standalone results every tenant must equal; inside the budget
        reference, _ = run_pass(prepared, "standalone")
    passes, intervals = [], []
    while True:
        started = host.now()
        outcomes, _ = run_pass(prepared)
        ended = host.now()
        passes.append(outcomes)
        intervals.append(host.interval(started, ended))
        # whole passes only: one more if at least half of it fits the budget
        if (ended - begun) + (ended - started) / 2 > seconds:
            break
    failed, unchecked, failures = check.judge(
        prepared,
        passes,
        expected,
        reference=reference,
        repeatable=prepared.runner != "tcp",
    )
    executions = [outcome for outcomes in passes for outcome in outcomes]
    return {
        "attempted": len(executions),
        "failed": failed,
        "unchecked": unchecked,
        "failures": failures,
        "passes": [_interval_json(interval) for interval in intervals],
        "totals": {
            "events": sum(outcome.events for outcome in executions),
            "messages": sum(outcome.messages for outcome in executions),
            "views": sum(outcome.views for outcome in executions),
            "ref_s": sum(interval.ref_s for interval in intervals),
            "work_s": sum(interval.work_s for interval in intervals),
        },
        "peak_rss_mb": _peak_rss_mb(),
    }


def _traced(prepared, expected, host: HostClock, setup: Interval, spans: str | None) -> dict:
    """One untraced pass, then one pass with every wrapper installed."""
    from . import check, layers
    from .trace import Tracer
    from .workloads import run_pass

    def measured(runner: str | None = None):
        started = host.now()
        outcomes, extras = run_pass(prepared, runner)
        return outcomes, extras, host.interval(started, host.now())

    layers.assert_untraced()
    reference, serial = None, None
    if prepared.runner == "fleet":
        reference, _, serial = measured("standalone")
    plain = measured()
    tracer = Tracer(clock=host.work_now)
    seen = layers.Observations()
    layers.plan(tracer, seen)
    with tracer:
        traced = measured()
    layers.assert_untraced()
    failed, unchecked, failures = check.judge(
        prepared,
        [plain[0], traced[0]],
        expected,
        reference=reference,
        repeatable=prepared.runner != "tcp",
    )
    if spans:
        tracer.write(spans)
    return {
        "attempted": len(plain[0]) + len(traced[0]),
        "failed": failed,
        "unchecked": unchecked,
        "failures": failures,
        "missing_targets": tracer.missing,
        "metrics": layers.metrics(
            prepared,
            setup.ref_s / setup.wall_s if setup.wall_s else 1.0,
            plain,
            traced,
            tracer,
            seen,
            serial,
            unchecked,
        ),
    }


class _OracleTimeout(Exception):
    pass


def _capture(prepared) -> dict:
    """The ``perf/expected.json`` entries of this workload's sessions."""
    from repro.core.centralized import CentralizedMonitor
    from repro.experiments.properties import case_study_monitor, case_study_registry

    from .workloads import run_pass

    def give_up(signum, frame):
        raise _OracleTimeout

    outcomes, _ = run_pass(prepared)
    broken = [f"{o.session_id}: {o.error}" for o in outcomes if o.error]
    if broken:
        raise RuntimeError(f"cannot pin a failing run: {broken}")
    entries = {}
    previous = signal.signal(signal.SIGALRM, give_up)
    try:
        for session, outcome in zip(prepared.sessions, outcomes):
            oracle = None
            signal.alarm(_ORACLE_LIMIT_S)
            try:
                oracle = sorted(
                    str(verdict)
                    for verdict in CentralizedMonitor.monitor_computation_declared(
                        session.computation,
                        case_study_monitor(session.property_name, session.num_processes),
                        case_study_registry(session.num_processes),
                    )
                )
            except _OracleTimeout:
                print(f"oracle gave up on {session.session_id}", file=sys.stderr)
            finally:
                signal.alarm(0)
            entries[session.session_id] = {
                "fingerprint": session.fingerprint,
                # tenants have no seeded randomness of their own: pinned for every seed
                "seed": None if session.tenant is not None else prepared.seed,
                "declared": list(outcome.declared),
                "oracle": oracle,
            }
    finally:
        signal.signal(signal.SIGALRM, previous)
    return entries


def main(argv: list[str] | None = None) -> int:
    """Run one child of the benchmark; the result is the last stdout line."""
    args = _parser().parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.perf_counter()
    host = HostClock()
    if args.mode != "capture":
        host.start()
    try:
        # the program under test is imported here, inside the set-up interval
        from . import check, workloads

        tenants = args.tenants if args.tenants is not None else workloads.TENANTS
        prepared = workloads.prepare(args.workload, args.seed, tenants)
        # a capture replaces the pins instead of obeying them
        expected = {} if args.mode == "capture" else check.load_expected()
        try:
            check.verify_inputs(prepared, expected)
        except check.BenchmarkInvalid as error:
            print(error, file=sys.stderr)
            return 3
        setup = host.interval(spawned_at, host.now())
        result: dict = {"setup": _interval_json(setup)}
        if args.mode == "timed":
            result.update(_timed(prepared, expected, host, args.seconds))
        elif args.mode == "traced":
            result.update(_traced(prepared, expected, host, setup, args.spans))
        elif args.mode == "capture":
            result["sessions"] = _capture(prepared)
    finally:
        host.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
