"""Cluster manifests: the static directory of a multi-host deployment.

A manifest maps every monitor id to the ``host:port`` its worker process
listens on, plus the coordinator's control address — the multi-host
replacement for the in-process port map the loopback TCP transport keeps.
Manifests are plain TOML or JSON files (chosen by extension) so they can be
written by hand for a real deployment or generated by the coordinator for a
loopback run::

    # cluster.toml
    [coordinator]
    host = "10.0.0.1"
    port = 7000

    [workers.0]
    host = "10.0.0.2"
    port = 7100

    [workers.1]
    host = "10.0.0.3"
    port = 7100

The JSON spelling is the same shape with string worker keys.  Worker ids
must be the contiguous range ``0..n-1`` — monitor ids double as process
indices everywhere in the runtime.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Endpoint", "ClusterManifest", "load_manifest", "loopback_manifest"]


@dataclass(frozen=True)
class Endpoint:
    """One addressable node of the cluster: a host name and a TCP port."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class ClusterManifest:
    """The static directory of one cluster: coordinator + worker addresses.

    Frozen and value-like: the coordinator serialises the manifest to a file
    for the worker processes, and every node resolves peers exclusively
    through its copy — there is no dynamic discovery.
    """

    coordinator: Endpoint
    workers: tuple[Endpoint, ...]

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("a cluster manifest needs at least one worker")

    @property
    def num_workers(self) -> int:
        """Number of worker (monitor) processes in the deployment."""
        return len(self.workers)

    def worker(self, process: int) -> Endpoint:
        """The address of the worker hosting monitor *process*."""
        try:
            return self.workers[process]
        except IndexError:
            raise KeyError(
                f"manifest has no worker for monitor {process} "
                f"(workers 0..{self.num_workers - 1})"
            ) from None

    def as_dict(self) -> dict[str, object]:
        """The JSON/TOML-shaped mapping of this manifest."""
        return {
            "coordinator": {
                "host": self.coordinator.host,
                "port": self.coordinator.port,
            },
            "workers": {
                str(i): {"host": endpoint.host, "port": endpoint.port}
                for i, endpoint in enumerate(self.workers)
            },
        }

    def save(self, path: str | Path) -> Path:
        """Write the manifest as JSON (``.json``) or TOML (anything else)."""
        path = Path(path)
        if path.suffix == ".json":
            path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        else:
            lines = [
                "[coordinator]",
                f'host = "{self.coordinator.host}"',
                f"port = {self.coordinator.port}",
            ]
            for i, endpoint in enumerate(self.workers):
                lines += [
                    "",
                    f"[workers.{i}]",
                    f'host = "{endpoint.host}"',
                    f"port = {endpoint.port}",
                ]
            path.write_text("\n".join(lines) + "\n")
        return path


def _parse_endpoint(raw: object, what: str) -> Endpoint:
    if not isinstance(raw, dict) or "host" not in raw or "port" not in raw:
        raise ValueError(f"manifest {what} needs 'host' and 'port' fields")
    host, port = raw["host"], raw["port"]
    if not isinstance(host, str) or not isinstance(port, int):
        raise ValueError(f"manifest {what}: host must be a string, port an integer")
    return Endpoint(host, port)


def manifest_from_dict(data: dict[str, object]) -> ClusterManifest:
    """Build a manifest from its TOML/JSON mapping shape."""
    if "workers" not in data:
        raise ValueError("manifest needs a 'workers' table")
    coordinator = _parse_endpoint(data.get("coordinator"), "coordinator")
    raw_workers = data["workers"]
    if not isinstance(raw_workers, dict) or not raw_workers:
        raise ValueError("manifest 'workers' must be a non-empty table")
    try:
        ids = sorted(int(key) for key in raw_workers)
    except ValueError:
        raise ValueError("manifest worker keys must be integer monitor ids") from None
    if ids != list(range(len(ids))):
        raise ValueError(
            f"manifest worker ids must be the contiguous range 0..{len(ids) - 1}, "
            f"got {ids}"
        )
    workers = tuple(
        _parse_endpoint(raw_workers[str(i)], f"worker {i}") for i in ids
    )
    return ClusterManifest(coordinator=coordinator, workers=workers)


def load_manifest(path: str | Path) -> ClusterManifest:
    """Load a manifest file, parsing JSON for ``.json`` and TOML otherwise."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"cluster manifest not found: {path}")
    if path.suffix == ".json":
        data = json.loads(path.read_text())
    else:
        import tomllib  # here, not at the top: every TCP run imports this module

        with path.open("rb") as handle:
            data = tomllib.load(handle)
    try:
        return manifest_from_dict(data)
    except ValueError as error:
        raise ValueError(f"invalid cluster manifest {path}: {error}") from None


def _free_port(host: str) -> int:
    """Ask the OS for one currently-free TCP port on *host*."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def loopback_manifest(num_workers: int, host: str = "127.0.0.1") -> ClusterManifest:
    """Allocate a manifest with *num_workers* workers on loopback ports.

    Ports are obtained by briefly binding ephemeral sockets, so collisions
    are possible but vanishingly rare in the window before the workers bind;
    real deployments pin ports in a hand-written manifest instead.
    """
    return ClusterManifest(
        coordinator=Endpoint(host, _free_port(host)),
        workers=tuple(Endpoint(host, _free_port(host)) for _ in range(num_workers)),
    )
