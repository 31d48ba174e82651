"""The cluster coordinator: launch workers, drive a run, collect verdicts.

The coordinator is the cluster counterpart of the in-process runners: given
a :class:`~repro.cluster.spec.RunSpec` and a manifest it (optionally)
spawns one :mod:`repro.cluster.worker` OS process per monitor, performs the
version-checked hello handshake over the control channel, broadcasts
``start``, and then decides **global quiescence** with a double-count
termination check — the cluster analogue of the streaming transport's
conservative ``in_flight`` counter:

    every worker has fed its schedule
    ∧ Σ sent == Σ processed  (frames cannot be counted processed early)
    ∧ every inbox is empty
    ∧ the counter totals are unchanged since the previous poll

A frame not yet written to its socket counts as sent but not processed,
so the balance already covers it.  Two consecutive stable polls are
required because a frame can be on the wire — sent but not yet enqueued
anywhere — while a single poll looks balanced.  Once quiescent, the
coordinator collects per-worker verdicts and counter records, folds them
into the same :class:`repro.session.RunReport` the in-process backends
return, and shuts the workers down.

With ``spawn_workers=False`` the coordinator only *joins* workers that were
started by hand (``python -m repro.cluster.worker``) on the manifest's
hosts — the multi-host deployment mode; the spec and manifest files must
then be distributed out of band.
"""

from __future__ import annotations

import asyncio
import errno
import os
import sys
import tempfile
import time
from pathlib import Path

from ..core.monitor import MonitorMetrics
from ..ltl.verdict import Verdict
from ..session import RunReport
from . import codec
from .manifest import ClusterManifest, load_manifest, loopback_manifest
from .spec import RunSpec
from .transport import read_control_async

__all__ = ["ClusterError", "cluster_monitored_run", "coordinate"]

#: seconds between two status polls of the termination check
_POLL_INTERVAL = 0.02


class ClusterError(RuntimeError):
    """A cluster run failed (handshake, worker death, or lost quiescence)."""


class _WorkerHandle:
    """One connected worker's control channel."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    async def call(self, command: dict[str, object]) -> dict[str, object]:
        """Send one command and await its reply (the channel is lockstep)."""
        self.writer.write(codec.encode_control(command))
        await self.writer.drain()
        reply = await read_control_async(self.reader)
        if reply is None:
            raise ClusterError(
                f"worker closed its control channel during {command.get('kind')!r}"
            )
        return reply


async def _spawn_worker(
    process: int, manifest_path: Path, spec_path: Path
) -> asyncio.subprocess.Process:
    """Launch one worker subprocess with the repro package importable."""
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else os.pathsep.join([src_dir, existing])
    return await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "repro.cluster.worker",
        "--manifest",
        str(manifest_path),
        "--process",
        str(process),
        "--spec",
        str(spec_path),
        env=env,
        stdout=asyncio.subprocess.DEVNULL,
        stderr=asyncio.subprocess.PIPE,
    )


async def coordinate(
    spec: RunSpec,
    manifest: ClusterManifest,
    *,
    spawn_workers: bool = True,
    quiesce_timeout: float = 120.0,
) -> RunReport:
    """Drive one cluster run end to end and return its aggregated report."""
    started = time.perf_counter()
    n = spec.num_processes
    if manifest.num_workers < n:
        raise ClusterError(
            f"manifest has {manifest.num_workers} workers but the run needs "
            f"{n} monitor processes"
        )

    connected: dict[int, _WorkerHandle] = {}
    all_joined = asyncio.Event()
    handshake_error: list[Exception] = []

    async def accept(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await read_control_async(reader)
        except (codec.CodecError, ConnectionError) as error:
            handshake_error.append(error)
            all_joined.set()
            writer.close()
            return
        if hello is None or hello.get("kind") != "hello":
            writer.close()
            return
        version = hello.get("version")
        if version != codec.PROTOCOL_VERSION:
            peer = version if isinstance(version, int) else -1
            handshake_error.append(codec.ProtocolVersionError(peer))
            all_joined.set()
            writer.close()
            return
        process = hello.get("process")
        if isinstance(process, int) and 0 <= process < n and process not in connected:
            connected[process] = _WorkerHandle(reader, writer)
            if len(connected) == n:
                all_joined.set()
        else:
            writer.close()

    server = await asyncio.start_server(
        accept, manifest.coordinator.host, manifest.coordinator.port
    )
    procs: list[asyncio.subprocess.Process] = []
    stderr_tasks: list[asyncio.Task] = []
    tmp_dir: tempfile.TemporaryDirectory | None = None
    try:
        if spawn_workers:
            tmp_dir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            manifest_path = manifest.save(Path(tmp_dir.name) / "manifest.json")
            spec_path = spec.save(Path(tmp_dir.name) / "spec.json")
            for process in range(n):
                proc = await _spawn_worker(process, manifest_path, spec_path)
                procs.append(proc)
                stderr_tasks.append(asyncio.ensure_future(proc.stderr.read()))

        join_deadline = asyncio.get_running_loop().time() + quiesce_timeout
        while not all_joined.is_set():
            # fail fast instead of sitting out the whole join timeout when a
            # spawned worker already died (e.g. lost the loopback-port race)
            if any(proc.returncode is not None for proc in procs):
                raise ClusterError(
                    "a worker died before joining the coordinator"
                    + await _dead_worker_details(procs, stderr_tasks)
                )
            if asyncio.get_running_loop().time() > join_deadline:
                missing = sorted(set(range(n)) - set(connected))
                raise ClusterError(
                    f"workers {missing} never joined the coordinator at "
                    f"{manifest.coordinator} within {quiesce_timeout}s"
                    + await _dead_worker_details(procs, stderr_tasks)
                )
            try:
                await asyncio.wait_for(all_joined.wait(), timeout=_POLL_INTERVAL)
            except asyncio.TimeoutError:
                pass
        if handshake_error:
            raise handshake_error[0]

        for process in range(n):
            reply = await connected[process].call({"kind": "start"})
            if reply.get("kind") != "started":
                raise ClusterError(f"worker {process} failed to start: {reply}")

        await _await_quiescence(connected, procs, stderr_tasks, quiesce_timeout)

        results = []
        for process in range(n):
            reply = await connected[process].call({"kind": "collect"})
            if reply.get("kind") != "result" or "metrics" not in reply:
                raise ClusterError(f"worker {process} failed to collect: {reply}")
            results.append(reply)

        for process in range(n):
            handle = connected[process]
            handle.writer.write(codec.encode_control({"kind": "shutdown"}))
            await handle.writer.drain()
            handle.writer.close()
        for proc in procs:
            try:
                await asyncio.wait_for(proc.wait(), timeout=10.0)
            except asyncio.TimeoutError:
                proc.kill()
    finally:
        server.close()
        await server.wait_closed()
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                await proc.wait()
        for task in stderr_tasks:
            if not task.done():
                task.cancel()
        if tmp_dir is not None:
            tmp_dir.cleanup()

    return _aggregate(results, time.perf_counter() - started)


async def _dead_worker_details(
    procs: list[asyncio.subprocess.Process], stderr_tasks: list[asyncio.Task]
) -> str:
    """Describe any spawned worker that already exited, with its stderr."""
    details = []
    for process, proc in enumerate(procs):
        if proc.returncode is not None:
            tail = ""
            task = stderr_tasks[process]
            if task.done() and not task.cancelled() and task.exception() is None:
                tail = task.result().decode("utf-8", "replace").strip()
            details.append(
                f"worker {process} exited with code {proc.returncode}"
                + (f":\n{tail}" if tail else "")
            )
    return ("\n" + "\n".join(details)) if details else ""


async def _await_quiescence(
    connected: dict[int, _WorkerHandle],
    procs: list[asyncio.subprocess.Process],
    stderr_tasks: list[asyncio.Task],
    timeout: float,
) -> None:
    """Poll worker counters until the double-count check holds twice."""
    deadline = asyncio.get_running_loop().time() + timeout
    previous: tuple[int, int] | None = None
    stable = 0
    while True:
        for proc in procs:
            if proc.returncode is not None:
                raise ClusterError(
                    "a worker died mid-run"
                    + await _dead_worker_details(procs, stderr_tasks)
                )
        statuses = []
        for process in sorted(connected):
            status = await connected[process].call({"kind": "status"})
            if status.get("error"):
                raise ClusterError(
                    f"worker {process} reported a failure: {status['error']}"
                )
            statuses.append(status)
        totals = (
            sum(int(s["sent"]) for s in statuses),
            sum(int(s["processed"]) for s in statuses),
        )
        idle = (
            all(s["fed"] for s in statuses)
            and all(int(s["inbox"]) == 0 for s in statuses)
            and totals[0] == totals[1]
        )
        if idle and totals == previous:
            stable += 1
            if stable >= 2:
                return
        else:
            stable = 0
        previous = totals if idle else None
        if asyncio.get_running_loop().time() > deadline:
            raise ClusterError(
                f"cluster run did not quiesce within {timeout}s "
                f"(sent={totals[0]}, processed={totals[1]})"
            )
        await asyncio.sleep(_POLL_INTERVAL)


def _aggregate(results: list[dict[str, object]], wall_seconds: float) -> RunReport:
    """Fold per-worker collect replies into one run report.

    The cluster has no shared virtual clock, so the end times (and with
    them the virtual-time delay metric) stay zero; wall-clock duration is
    in ``wall_seconds``.
    """
    fault_stats: dict[str, float] = {}
    for result in results:
        for key, value in dict(result["fault_stats"]).items():
            fault_stats[key] = fault_stats.get(key, 0.0) + float(value)
    return RunReport.fold(
        [MonitorMetrics(**result["metrics"]) for result in results],
        (Verdict(v) for r in results for v in r["reported"]),
        (Verdict(v) for r in results for v in r["declared"]),
        total_events=int(results[0]["total_events"]),
        monitor_messages=sum(int(r["sent"]) for r in results),
        fault_stats=fault_stats,
        wall_seconds=wall_seconds,
        wire_bytes=sum(int(r["wire_bytes"]) for r in results),
        worker_results=results,
    )


#: fresh loopback manifests tried before giving up on a port-bind race
_BIND_RACE_ATTEMPTS = 3


def _is_bind_race(error: Exception) -> bool:
    """Whether *error* means an auto-allocated loopback port was taken."""
    if isinstance(error, OSError):
        return error.errno == errno.EADDRINUSE
    return "address already in use" in str(error).lower()


def cluster_monitored_run(
    spec: RunSpec,
    manifest: ClusterManifest | str | Path | None = None,
    *,
    spawn_workers: bool = True,
    quiesce_timeout: float = 120.0,
) -> RunReport:
    """Run one spec on a cluster and return its report (sync wrapper).

    *manifest* may be a :class:`ClusterManifest`, a manifest file path, or
    ``None`` — in which case a loopback manifest with freshly allocated
    ports is generated, which is the ``run --backend cluster`` default.
    Because those ports are allocated by probe-and-release, another process
    can grab one in the window before a node binds it; auto-allocated runs
    therefore retry with a fresh manifest when they lose that race.  Pinned
    manifests never retry — a busy port there is a deployment error.
    """
    if manifest is not None and not isinstance(manifest, ClusterManifest):
        manifest = load_manifest(manifest)
    attempts = _BIND_RACE_ATTEMPTS if manifest is None else 1
    for attempt in range(attempts):
        chosen = (
            loopback_manifest(spec.num_processes) if manifest is None else manifest
        )
        try:
            return asyncio.run(
                coordinate(
                    spec,
                    chosen,
                    spawn_workers=spawn_workers,
                    quiesce_timeout=quiesce_timeout,
                )
            )
        except (ClusterError, OSError) as error:
            if attempt + 1 < attempts and _is_bind_race(error):
                continue
            raise
    raise AssertionError("unreachable")  # pragma: no cover
