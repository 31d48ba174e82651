"""Tests of the benchmark harness itself (collected by a bare ``pytest``).

They check the measuring instruments, not the program: wrappers come off
again, self times add up, inputs are reproducible, every declared metric is
reported under a well-formed name, ``BENCHMARK.json`` mirrors the registry,
and a run leaves the checkout as it found it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from . import check, child, compare, layers, spec, workloads
from .hostclock import REFERENCE_BURST_S, HostClock
from .trace import Tracer, resolve

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- perf.trace ---------------------------------------------------------------
def test_wrappers_restore_the_identical_objects():
    """Installing and removing every wrapper leaves each target the same object."""
    targets = [resolve(path) for path in (*layers.TARGETS, *layers._HOOKED)]
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = Tracer()
    layers.plan(tracer, layers.Observations())
    with tracer:
        assert not tracer.missing
        assert all(vars(owner)[attr] is not raw for (owner, attr), raw in zip(targets, before))
        with pytest.raises(AssertionError):
            layers.assert_untraced()
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in zip(targets, before))
    layers.assert_untraced()


def test_an_inherited_target_is_shadowed_and_unshadowed():
    """Wrapping an inherited method adds a class attribute and deletes it again."""
    from repro.runtime.transport import InMemoryStreamTransport

    tracer = Tracer()
    tracer.add("repro.runtime.transport:InMemoryStreamTransport.send", "send")
    assert "send" not in vars(InMemoryStreamTransport)
    with tracer:
        assert "send" in vars(InMemoryStreamTransport)
    assert "send" not in vars(InMemoryStreamTransport)


def test_a_vanished_target_is_a_warning_not_a_crash():
    """A target that no longer exists is skipped, warned about and listed."""
    tracer = Tracer()
    tracer.add("repro.core.monitor:DecentralizedMonitor.no_such_method", "gone")
    tracer.add("repro.no_such_module:thing", "gone")
    with pytest.warns(UserWarning, match="trace target skipped"), tracer:
        pass
    assert len(tracer.missing) == 2


def test_self_time_is_duration_minus_direct_children():
    """Self time subtracts direct children only, on a hand-driven clock."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.open("outer")  # 0 .. 10
    clock.now = 1.0
    middle = tracer.open("middle")  # 1 .. 7
    clock.now = 2.0
    inner = tracer.open("inner")  # 2 .. 5
    clock.now = 5.0
    tracer.close(inner)
    clock.now = 7.0
    tracer.close(middle)
    sibling = tracer.open("sibling")  # 7 .. 8
    clock.now = 8.0
    tracer.close(sibling)
    clock.now = 10.0
    tracer.close(outer)
    assert [span.parent for span in tracer.spans()] == [None, 0, 1, 0]
    assert tracer.self_times() == [10.0 - 6.0 - 1.0, 6.0 - 3.0, 3.0, 1.0]


def test_wrapped_calls_nest_and_name_from_arguments():
    """Wrapped calls nest as parent and child; names and hooks see the arguments."""
    class Thing:
        def outer(self, value):
            return self.inner(value) + 1

        def inner(self, value):
            return value * 2

    module = type(sys)("perf_fake_module")
    module.Thing = Thing
    sys.modules["perf_fake_module"] = module
    try:
        seen = []
        tracer = Tracer(clock=FakeClock())
        tracer.add("perf_fake_module:Thing.outer", lambda thing, value: f"outer-{value}")
        tracer.add("perf_fake_module:Thing.inner", "inner", before=lambda t, v: seen.append(v))
        with tracer:
            assert Thing().outer(4) == 9
        assert Thing().outer(1) == 3  # unwrapped again: no new spans
    finally:
        del sys.modules["perf_fake_module"]
    recorded = [(span.name, span.parent) for span in tracer.spans()]
    assert recorded == [("outer-4", None), ("inner", 0)]
    assert seen == [4]


# -- perf.hostclock -----------------------------------------------------------
def test_interval_excludes_bursts_and_scales_by_their_mean():
    """An interval drops burst time and rescales by the mean burst duration."""
    clock = FakeClock()

    def slow_burst():
        clock.now += 2 * REFERENCE_BURST_S  # a host at half the reference speed

    host = HostClock(clock=clock, run_burst=slow_burst)
    clock.now = 1.0
    host.sample()
    clock.now = 2.0
    host.sample()
    end = clock.now = 3.0
    interval = host.interval(0.5, end)
    assert interval.bursts == 2
    assert interval.work_s == pytest.approx(2.5 - 4 * REFERENCE_BURST_S)
    assert interval.ref_s == pytest.approx(interval.work_s / 2)
    assert host.work_now() == pytest.approx(3.0 - 4 * REFERENCE_BURST_S)
    # too short to contain a burst: scaled by the mean of all bursts so far
    assert host.interval(2.5, 2.6).ref_s == pytest.approx(0.1 / 2)


# -- inputs -------------------------------------------------------------------
def test_inputs_are_a_function_of_workload_and_seed():
    """Same seed, same inputs; the seed draws tenant order, the trace seed the trace."""
    def prints(prepared):
        return [(session.session_id, session.fingerprint) for session in prepared.sessions]

    first = workloads.prepare("short-sessions", 7, tenants=6)
    assert prints(first) == prints(workloads.prepare("short-sessions", 7, tenants=6))
    other = workloads.prepare("short-sessions", 8, tenants=6)
    assert prints(other) != prints(first)  # the seed draws the admission order
    assert sorted(prints(other)) == sorted(prints(first))  # of the same tenants
    cell = workloads.Cell("C", 3, 4, trace_seed=2015)
    assert workloads.fingerprint(workloads._generate(cell)) != workloads.fingerprint(
        workloads._generate(workloads.Cell("C", 3, 4, trace_seed=2016))
    )


def test_a_changed_input_invalidates_the_benchmark():
    """A fingerprint that differs from the pinned one aborts the run."""
    prepared = workloads.prepare("short-sessions", 7, tenants=2)
    session = prepared.sessions[0]
    pins = {session.session_id: {"fingerprint": session.fingerprint}}
    check.verify_inputs(prepared, pins)
    pins[session.session_id]["fingerprint"] = "0" * 64
    with pytest.raises(check.BenchmarkInvalid, match="benchmark invalid"):
        check.verify_inputs(prepared, pins)


# -- names and BENCHMARK.json -------------------------------------------------
def test_every_name_and_unit_is_well_formed_and_unique():
    """Names, units, bounds and counts stay inside the benchmark contract."""
    names = [*spec.WORKLOADS, *(m.name for m in spec.END_TO_END), *(m.name for m in spec.PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in (*spec.END_TO_END, *spec.PER_LAYER):
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    assert all(0 < metric.bound <= 0.25 for metric in spec.END_TO_END)
    assert all("\n" not in why and len(why) <= 200 for why in spec.WORKLOADS.values())
    assert 2 <= len(spec.WORKLOADS) <= 8 and len(spec.PER_LAYER) <= 128
    assert set(spec.WORKLOADS) == set(workloads.CELLS)


def test_benchmark_json_mirrors_the_registry():
    """BENCHMARK.json lists exactly what perf.spec declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(declared) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]  # fmt: skip
    assert declared["command"] == ["python3", "perf/run.py"]
    assert declared["paths"] == ["perf"]
    assert declared["run_seconds"] == spec.RUN_SECONDS
    assert declared["workloads"] == [
        {"name": name, "why": why} for name, why in spec.WORKLOADS.items()
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    setup = declared["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


# -- whole runs ---------------------------------------------------------------
def test_a_traced_run_reports_every_per_layer_metric(capsys):
    """A traced 6-tenant run yields every per-layer metric, or an explicit null."""
    assert child.main(
        ["--workload", "short-sessions", "--mode", "traced", "--tenants", "6", "--seed", "7"]
    ) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] == 12
    assert not result["missing_targets"]
    assert set(result["metrics"]) == {metric.name for metric in spec.PER_LAYER}
    values = result["metrics"]
    assert values["sim.callbacks"] is None  # an explicit null: no simulator here
    assert values["core.monitor.serve_calls"] > 0
    assert 0 < values["core.monitor.busy_share"] < 1
    assert values["cluster.codec.frames"] == values["runtime.sends"]
    layers.assert_untraced()


def test_a_timed_run_prints_the_contract_line_and_leaves_the_checkout_clean():
    """A timed 4-tenant run ends with the contract line and writes nothing."""
    def status():
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        return done.stdout if done.returncode == 0 else None

    before = status()
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "short-sessions", "--trace", "0"]
        + ["--seconds", "0.5", "--tenants", "4"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 4
    assert list(line["metrics"]) == [metric.name for metric in spec.END_TO_END]
    for metric in spec.END_TO_END:
        assert line["metrics"][metric.name]["unit"] == metric.unit
        assert line["metrics"][metric.name]["value"] > 0
    assert status() == before


# -- perf.compare -------------------------------------------------------------
def test_compare_applies_each_metrics_own_bound():
    """compare.py classifies rows by bound and spread, and flags new failures."""
    rate = next(m for m in spec.END_TO_END if m.name == "events_per_s")
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.judge(rate, steady, [100.2, 99.5, 100.9, 100.0])[0] == "same"
    assert compare.judge(rate, steady, [70.0, 71.0, 69.5, 70.2])[0] == "regressed"
    assert compare.judge(rate, steady, [120.0, 121.0, 119.0, 120.5])[0] == "improved"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert compare.judge(rate, noisy, [95.0, 130.0, 75.0, 110.0])[0] == "unresolved"
    assert compare.judge(rate, noisy, [150.0, 190.0, 145.0, 160.0])[0] == "improved"
    document = {
        "workloads": {
            "token-heavy": {
                "attempted": 3,
                "failed": 0,
                "end_to_end": {m.name: [1.0, 1.0, 1.0] for m in spec.END_TO_END},
            }
        }
    }
    rows, bad = compare.compare(document, document)
    assert not bad and {row[2] for row in rows} == {"same"}
    failing = json.loads(json.dumps(document))
    failing["workloads"]["token-heavy"]["failed"] = 1
    assert compare.compare(document, failing)[1]
