"""Property fuzzing of the monitoring stack's soundness claims.

The fuzzer samples random but fully deterministic (formula × workload ×
network × fault-plan) points — each one a replayable
:class:`repro.cluster.spec.RunSpec` — runs them through the sim-vs-lattice
oracle (soundness, and completeness on fault-free runs that evicted no
view) and the sim-vs-asyncio backend oracle,
classifies the outcome (``sound`` / ``divergent`` / ``crash``), and shrinks
every failure to a minimal repro document.  ``python -m repro.experiments
fuzz --seed N --points K`` is the command-line front end.
"""

from .engine import (
    CLASS_CRASH,
    CLASS_DIVERGENT,
    CLASS_SOUND,
    CLASS_STORM,
    can_storm,
    FuzzOutcome,
    FuzzReport,
    execute_point,
    generate_point,
    generate_points,
    is_attack_plan,
    run_fuzz,
)
from .shrink import shrink_candidates, shrink_point

__all__ = [
    "CLASS_SOUND",
    "CLASS_DIVERGENT",
    "CLASS_CRASH",
    "CLASS_STORM",
    "can_storm",
    "FuzzOutcome",
    "FuzzReport",
    "execute_point",
    "generate_point",
    "generate_points",
    "is_attack_plan",
    "run_fuzz",
    "shrink_candidates",
    "shrink_point",
]
