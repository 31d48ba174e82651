"""The deployable multi-host runtime: wire protocol v8 + cluster of workers.

This package promotes the streaming runtime from loopback sockets inside
one process to a real multi-process (and, via hand-written manifests,
multi-host) deployment of the paper's decentralized monitors:

* :mod:`repro.cluster.codec` — wire protocol v8, the versioned binary
  framing every runtime wire path uses (it replaced the length-prefixed
  pickle of protocol v1).
* :mod:`repro.cluster.manifest` — the static TOML/JSON directory mapping
  monitor ids to ``host:port``.
* :mod:`repro.cluster.spec` — the JSON run spec workers regenerate their
  cell from; no events travel on the wire.
* :mod:`repro.cluster.transport` / :mod:`repro.cluster.worker` — backoff
  dialing and control reads, and the ``python -m repro.cluster.worker``
  entrypoint hosting one monitor each on the runtime's TCP transport.
* :mod:`repro.cluster.coordinator` — launches/joins workers, drives the
  run, decides global quiescence and collects verdicts.

Only the codec is imported eagerly (the runtime transport needs it on every
path); the heavier coordinator/worker machinery loads on first attribute
access.
"""

from __future__ import annotations

from . import codec

__all__ = [
    "codec",
    "ClusterManifest",
    "Endpoint",
    "load_manifest",
    "loopback_manifest",
    "RunSpec",
    "ClusterError",
    "cluster_monitored_run",
]

_LAZY = {
    "ClusterManifest": "manifest",
    "Endpoint": "manifest",
    "load_manifest": "manifest",
    "loopback_manifest": "manifest",
    "RunSpec": "spec",
    "ClusterError": "coordinator",
    "cluster_monitored_run": "coordinator",
}


def __getattr__(name: str) -> object:
    """Resolve the lazily-exported cluster names on first access."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
