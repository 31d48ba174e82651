"""Run specs: the JSON document the coordinator distributes to workers.

A cluster run never ships events over the control channel.  Every cell of
the experiment engine already derives its workload deterministically from
``(scenario, property, scale, seed)``, so the coordinator serialises just
those parameters as a :class:`RunSpec` and each worker regenerates the
*identical* computation locally — the same trick the sharded sweep engine
plays with its process pool, promoted to independent OS processes.  Fault
plans travel in the compact ``run --fault-plan`` grammar
(:func:`repro.faults.format_fault_plan`), so a crash schedule means exactly
the same thing on every backend and every host.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, get_args, get_type_hints

from ..core.monitor import check_view_budget
from ..faults import FaultPlan, parse_fault_plan

if TYPE_CHECKING:
    from ..distributed.computation import Computation
    from ..ltl.monitor import MonitorAutomaton
    from ..ltl.predicates import PropositionRegistry

__all__ = ["RunSpec", "build_cell_inputs"]

#: fields spec documents once carried and that no longer select anything;
#: :meth:`RunSpec.from_json` drops them so those documents keep loading
_RETIRED_FIELDS = ("compiled_kernel", "topology")


@dataclass(frozen=True)
class RunSpec:
    """Everything a worker needs to regenerate its share of one cell.

    All fields are JSON-scalar so the document round-trips losslessly; the
    fault plan is carried as its grammar string (``None`` for fault-free
    runs).  ``scenario`` is a registered scenario name — workers resolve it
    through the same registry the coordinator used.  A view budget below 1
    or a fault plan the grammar cannot parse is refused here, with
    ``ValueError``, not later inside every worker.
    """

    scenario: str
    property_name: str
    num_processes: int
    events_per_process: int
    evt_mu: float
    evt_sigma: float
    comm_mu: float | None
    comm_sigma: float
    seed: int
    max_views_per_state: int | None
    fault_plan: str | None = None

    def __post_init__(self) -> None:
        check_view_budget(self.max_views_per_state)
        self.faults()

    def to_json(self) -> str:
        """Serialise the spec as a JSON document."""
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> RunSpec:
        """Parse a spec document written by :meth:`to_json`.

        A non-object, a missing field, a mistyped one or a value the
        constructor refuses raises ``ValueError`` on load.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a run spec must be a JSON object, got {type(data).__name__}")
        for key in _RETIRED_FIELDS:
            data.pop(key, None)
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"run spec has unknown fields: {sorted(unknown)}")
        for name, kind in get_type_hints(cls).items():
            if name not in data:
                if fields[name].default is MISSING:
                    raise ValueError(f"run spec is missing field {name!r}")
                continue
            accepted = get_args(kind) or (kind,)
            if float in accepted:
                accepted += (int,)  # a hand-written 3 for 3.0
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, accepted):
                kind_name = getattr(kind, "__name__", kind)
                raise ValueError(f"run spec field {name!r} must be {kind_name}, got {value!r}")
        return cls(**data)

    def save(self, path: str | Path) -> Path:
        """Write the spec document to *path*."""
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> RunSpec:
        """Load a spec document from *path*."""
        return cls.from_json(Path(path).read_text())

    def faults(self) -> FaultPlan | None:
        """The fault plan the spec carries, parsed back from its grammar."""
        if self.fault_plan is None:
            return None
        return parse_fault_plan(self.fault_plan)


def build_cell_inputs(
    spec: RunSpec,
) -> tuple[Computation, MonitorAutomaton, PropositionRegistry]:
    """Regenerate the computation and monitor inputs a spec describes.

    Returns ``(computation, automaton, registry)`` — byte-identical on
    every worker and on the coordinator, because everything is a pure
    function of the spec: the scenario is resolved by name and handed to
    the same :func:`repro.experiments.engine.cell_inputs` in-process cells
    use.  Imported lazily from the experiments package to keep
    :mod:`repro.cluster` importable from the runtime transport without a
    cycle.
    """
    from ..experiments.engine import cell_inputs
    from ..scenarios import get_scenario

    return cell_inputs(
        get_scenario(spec.scenario),
        spec.property_name,
        spec.num_processes,
        events_per_process=spec.events_per_process,
        evt_mu=spec.evt_mu,
        evt_sigma=spec.evt_sigma,
        comm_mu=spec.comm_mu,
        comm_sigma=spec.comm_sigma,
        seed=spec.seed,
    )
