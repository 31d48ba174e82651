"""The decentralized LTL3 monitoring algorithm and its reference baselines.

Public API
----------
* :class:`DecentralizedMonitor` — monitor process ``M_i`` (the contribution).
* :class:`LatticeOracle` / :class:`OracleResult` — the Chapter 3 oracle used
  as ground truth for soundness and completeness.
* :class:`CentralizedMonitor` — the centralized baseline (the oracle's verdicts).
* :class:`LoopbackNetwork` — in-process transport between monitors.
* :class:`MonitorNode` / :class:`Transport` / :class:`MonitorNetwork` — the
  backend-agnostic protocols every monitoring backend programs against.
* :class:`DelayModel` and friends — backend-agnostic message-delay models
  shared by the simulated and streaming networks.
* Message types: :class:`Token`, :class:`TokenEntry`, :class:`TerminationNotice`.

Running a full set of monitors is one layer up: :mod:`repro.session` builds
them (``monitor_factory``) and has four drivers — the in-memory
``run_decentralized``, the simulator, the asyncio runtime and the cluster
worker — which all return one ``RunReport``.
"""

from .centralized import CentralizedMonitor, CentralizedResult
from .delays import (
    BurstyDelay,
    DelayModel,
    GaussianDelay,
    LossyRetransmitDelay,
    PartitionDelay,
)
from .global_view import GlobalView, ViewStatus
from .messages import TerminationNotice, Token, TokenEntry
from .monitor import DecentralizedMonitor, MonitorMetrics
from .oracle import LatticeOracle, OracleResult
from .transport import LoopbackNetwork, MonitorNetwork, MonitorNode, Transport

__all__ = [
    "CentralizedMonitor",
    "CentralizedResult",
    "GlobalView",
    "ViewStatus",
    "TerminationNotice",
    "Token",
    "TokenEntry",
    "DecentralizedMonitor",
    "MonitorMetrics",
    "LatticeOracle",
    "OracleResult",
    "LoopbackNetwork",
    "Transport",
    "MonitorNode",
    "MonitorNetwork",
    "DelayModel",
    "GaussianDelay",
    "LossyRetransmitDelay",
    "PartitionDelay",
    "BurstyDelay",
]
