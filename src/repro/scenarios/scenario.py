"""Scenarios and sweep grids: declarative experiment descriptions.

A :class:`Scenario` bundles a :class:`~repro.scenarios.workload.Workload`
(the trace shape) with a :class:`~repro.core.delays.NetworkModel` (the
monitor-network conditions) and a default :class:`SweepGrid` (which
(property, process-count, Commμ) points to run).  It contains *no* execution
logic — the generic engine in :mod:`repro.experiments.engine` expands the
grid into (point × replication) cells, derives one seed per cell and shards
the whole product across a process pool.

Everything here is a frozen dataclass of plain values, so scenarios pickle
cleanly into worker processes and render themselves into JSON metadata via
:meth:`Scenario.describe`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..core.delays import NetworkModel
from ..faults import FaultModel
from .workload import Workload

__all__ = ["GridPoint", "SweepGrid", "Scenario", "DEFAULT_COMM_SEED_STRIDE"]

#: Seed offset between consecutive values of a ``comm_mus`` axis, preserved
#: from the original ``run_fig_5_9`` so sweep outputs stay byte-identical.
DEFAULT_COMM_SEED_STRIDE = 1000


@dataclass(frozen=True)
class GridPoint:
    """One cell coordinate of a sweep: a property at a system size.

    ``comm_mu`` is either the literal communication-frequency override for
    this point (``None`` meaning "no communication") or the string
    ``"default"``, which resolves to the sweep scale's ``comm_mu`` at run
    time.  ``seed_offset`` separates the RNG streams of points that would
    otherwise coincide (the Commμ axis of Fig. 5.9).
    """

    property_name: str
    num_processes: int
    comm_mu: float | None | str = "default"
    seed_offset: int = 0


@dataclass(frozen=True)
class SweepGrid:
    """The axes of a sweep; ``None`` axes fall back to scale defaults.

    ``properties`` defaults to the six case-study properties A–F,
    ``process_counts`` to ``scale.process_counts``, and ``comm_mus`` (when
    given) adds a communication-frequency axis whose points get staggered
    seed offsets, as in Fig. 5.9.
    """

    properties: tuple[str, ...] | None = None
    process_counts: tuple[int, ...] | None = None
    comm_mus: tuple[float | None, ...] | None = None

    def points(
        self,
        default_properties: Sequence[str],
        default_process_counts: Sequence[int],
    ) -> list[GridPoint]:
        """Expand the grid into an ordered list of sweep points."""
        properties = self.properties or tuple(default_properties)
        counts = self.process_counts or tuple(default_process_counts)
        points: list[GridPoint] = []
        for name in properties:
            for n in counts:
                if self.comm_mus is None:
                    points.append(GridPoint(name, n))
                else:
                    for index, comm_mu in enumerate(self.comm_mus):
                        points.append(
                            GridPoint(
                                name,
                                n,
                                comm_mu,
                                seed_offset=DEFAULT_COMM_SEED_STRIDE * index,
                            )
                        )
        return points

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (axes, with ``"default"`` placeholders)."""
        return {
            "properties": list(self.properties) if self.properties else "default",
            "process_counts": (
                list(self.process_counts) if self.process_counts else "default"
            ),
            "comm_mus": list(self.comm_mus) if self.comm_mus is not None else None,
        }


@dataclass(frozen=True)
class Scenario:
    """A named, self-contained experiment condition.

    Purely declarative: the workload model shapes the traces, the network
    model shapes monitor communication, and the grid names the sweep points.
    Execution belongs to :func:`repro.experiments.engine.execute_sweep`.
    """

    name: str
    description: str
    workload: Workload
    network: NetworkModel
    grid: SweepGrid = field(default_factory=SweepGrid)
    #: optional monitor-fault condition (a :class:`repro.faults.FaultModel`);
    #: the engine builds one concrete per-seed plan per sweep cell from it
    faults: FaultModel | None = None
    tags: tuple[str, ...] = ()
    #: which paper artefact this condition reproduces, or which extension it
    #: is — rendered into ``docs/scenarios.md`` by :mod:`repro.scenarios.docgen`
    corresponds_to: str = "extension beyond the paper's evaluation"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")

    def describe(self) -> dict[str, object]:
        """Self-describing metadata for JSON documents and the CLI."""
        return {
            "name": self.name,
            "description": self.description,
            "workload": self.workload.describe(),
            "network": self.network.describe(),
            "faults": self.faults.describe() if self.faults is not None else None,
            "grid": self.grid.describe(),
            "tags": list(self.tags),
            "corresponds_to": self.corresponds_to,
        }
