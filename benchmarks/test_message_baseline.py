"""The message baseline: decentralized monitors vs one central monitor.

Per property, the paper-default workload is monitored once by the
decentralized monitors on the simulator and once by the centralized
baseline (one observation message per program event plus its verdict
broadcast).  ``docs/results.md`` prints the same rows at four processes.
"""

import pytest

from conftest import BENCH_SCALE
from repro.experiments import format_table
from repro.experiments.harness import run_message_baseline

_PROPERTIES = ("B", "C")
_NUM_PROCESSES = 3

#: one sweep per session, shared by every test in the file
_BASELINE_CACHE: list = []


def _baseline():
    if _BASELINE_CACHE:
        return _BASELINE_CACHE[0]
    rows = run_message_baseline(_PROPERTIES, _NUM_PROCESSES, BENCH_SCALE)
    _BASELINE_CACHE.append(rows)
    return rows


def _by_monitor(rows, property_name):
    return {row["monitor"]: row for row in rows if row["property"] == property_name}


def test_decentralized_messages_are_tokens_and_terminations():
    rows = _baseline()
    print("\nmessage baseline\n")
    print(format_table(rows))
    for property_name in _PROPERTIES:
        row = _by_monitor(rows, property_name)["decentralized"]
        assert row["messages"] == pytest.approx(
            row["token_messages"] + row["termination_messages"]
        ), row


def test_decentralized_verdicts_are_among_the_centralized_ones():
    rows = _baseline()
    for property_name in _PROPERTIES:
        per = _by_monitor(rows, property_name)
        declared = per["decentralized"]["declared"].strip("-")
        assert set(declared) <= set(per["centralized"]["declared"]), per
