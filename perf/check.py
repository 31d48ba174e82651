"""Correctness of a run: pinned inputs, pinned verdicts, repeatability.

``perf/expected.json`` (written by ``perf/run.py --capture``) holds, per
session, the SHA-256 of its generated events, the verdicts the monitors
declared at the captured commit and — where it is tractable — the set of
verdicts the centralized oracle declares anywhere on the lattice.

* An input whose fingerprint differs from the file makes the benchmark
  **invalid** (:class:`BenchmarkInvalid`): the numbers would describe another
  workload.  It is not a session failure.
* A session **fails** when it raised, timed out, was evicted, ended
  non-quiescent or broke message accounting (reported by the runner), when it
  declares a verdict outside the oracle set, when it loses a verdict pinned
  for this very seed, when a repetition of it disagrees with the first, or —
  on ``fleet-mux`` — when its result differs from the standalone run's.
* A session execution whose verdicts nothing could judge — no entry in the
  file, or no oracle set and pins taken with another seed — is **unchecked**:
  only the structural invariants applied.
"""

from __future__ import annotations

import json
from pathlib import Path

from .workloads import Outcome, Prepared

__all__ = ["EXPECTED_PATH", "BenchmarkInvalid", "load_expected", "verify_inputs", "judge"]

EXPECTED_PATH = Path(__file__).with_name("expected.json")


class BenchmarkInvalid(RuntimeError):
    """The generated inputs are not the ones the benchmark was defined on."""


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """The pinned sessions by id (empty when the file does not exist yet)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["sessions"]


def verify_inputs(prepared: Prepared, expected: dict) -> None:
    """Raise :class:`BenchmarkInvalid` if a pinned input's hash changed."""
    for session in prepared.sessions:
        pinned = expected.get(session.session_id)
        if pinned is not None and pinned["fingerprint"] != session.fingerprint:
            raise BenchmarkInvalid(
                f"benchmark invalid: input of {session.session_id} has fingerprint "
                f"{session.fingerprint[:16]}, perf/expected.json pins "
                f"{pinned['fingerprint'][:16]}"
            )


def judge(
    prepared: Prepared,
    passes: list[list[Outcome]],
    expected: dict,
    *,
    reference: list[Outcome] | None = None,
    repeatable: bool = True,
) -> tuple[int, int, list[str]]:
    """Count failed and unchecked session executions; explain each failure.

    *reference*, when given, is the standalone pass every ``fleet-mux``
    tenant must equal.  *repeatable* says whether a repetition must match
    the first pass exactly (false on real sockets).
    """
    failures: list[str] = []
    unchecked = 0
    first = {outcome.session_id: outcome for outcome in passes[0]}
    standalone = {o.session_id: o for o in reference} if reference is not None else {}
    for number, outcomes in enumerate(passes):
        for outcome in outcomes:
            pinned = expected.get(outcome.session_id, {})
            oracle = pinned.get("oracle")
            same_seed = bool(pinned) and pinned["seed"] in (None, prepared.seed)
            if oracle is None and not same_seed:
                unchecked += 1
            problem = outcome.error
            if not problem and outcome.session_id in standalone:
                if outcome.key != standalone[outcome.session_id].key:
                    problem = "differs from the standalone run"
            if not problem and repeatable and outcome.key != first[outcome.session_id].key:
                problem = f"pass {number + 1} differs from pass 1"
            if not problem and oracle is not None and not set(outcome.declared) <= set(oracle):
                problem = f"declared {outcome.declared} outside oracle set {oracle}"
            if not problem and same_seed and not set(pinned["declared"]) <= set(outcome.declared):
                problem = f"lost a pinned verdict: {pinned['declared']} -> {outcome.declared}"
            if problem:
                failures.append(f"{outcome.session_id}: {problem}")
    return len(failures), unchecked, failures
