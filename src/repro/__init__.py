"""repro — decentralized runtime verification of LTL3 specifications.

A from-scratch reproduction of *Decentralized Runtime Verification of LTL
Specifications in Distributed Systems* (IPDPS 2015 / MSc thesis 2016).

The supported programmatic surface is :mod:`repro.api` — one curated
module whose ``__all__`` is the compatibility contract::

    import repro

    repro.api.run_scenario("paper-default", repro.api.ExperimentScale())

Subpackages remain importable directly for exploratory work, but only the
names re-exported by ``repro.api`` are stable across releases.

Subpackages
-----------
``repro.api``
    The curated public API: monitor synthesis, scenario execution on every
    backend, fault plans and cluster deployment.
``repro.ltl``
    LTL parsing, semantics, Büchi translation and LTL3 monitor synthesis.
``repro.distributed``
    Vector clocks, events, distributed computations and computation lattices.
``repro.core``
    The decentralized monitoring algorithm (the paper's contribution), plus
    the lattice oracle and a centralized baseline.
``repro.session``
    One monitored session (``MonitorSession``) with its three drivers —
    sim, asyncio, the cluster worker — and the one ``RunReport`` they all
    return.
``repro.sim``
    Discrete-event simulation of asynchronous programs, networks and monitors.
``repro.coordination``
    The monitors' token routing rule (``RoundRobinToken``).
``repro.runtime``
    The asyncio streaming backend: monitor nodes over real sockets.
``repro.fleet``
    The multi-tenant fleet: thousands of live monitored sessions per
    process, sharded across a pool, with pluggable event sources.
``repro.cluster``
    The multi-host runtime: wire protocol v8 codec, cluster manifests,
    worker processes and the coordinating control plane.
``repro.faults``
    Fault plans and the crash/restart injection seam shared by all backends.
``repro.fuzz``
    The property fuzzer of the soundness claims, with its shrinker.
``repro.scenarios``
    The registered scenario catalogue (network, workload and fault models).
``repro.experiments``
    Properties A–F of the case study and the harness regenerating every table
    and figure of the evaluation chapter.
"""

from importlib import import_module

__version__ = "1.0.0"

#: subpackages (plus ``api``) importable as ``repro.<name>``; kept lazy so
#: ``import repro`` stays cheap and never drags in asyncio or hypothesis
__all__ = [
    "api",
    "ltl",
    "distributed",
    "core",
    "coordination",
    "session",
    "sim",
    "runtime",
    "fleet",
    "cluster",
    "faults",
    "fuzz",
    "scenarios",
    "experiments",
]


def __getattr__(name: str) -> object:
    """Import subpackages on first attribute access (PEP 562).

    Lets ``import repro; repro.api.run_scenario(...)`` work without eagerly
    importing every subpackage at ``import repro`` time.
    """
    if name in __all__:
        module = import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """Advertise the lazy subpackages to ``dir()`` and tab completion."""
    return sorted(set(globals()) | set(__all__))
