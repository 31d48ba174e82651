"""The decentralized LTL3 monitoring algorithm and its reference baselines.

Public API
----------
* :class:`DecentralizedMonitor` — monitor process ``M_i`` (the contribution).
* :class:`LatticeOracle` / :class:`OracleResult` — the Chapter 3 oracle used
  as ground truth for soundness and completeness.
* :class:`CentralizedMonitor` — the centralized baseline (the oracle's verdicts).
* :class:`MonitorNode` / :class:`Transport` — the backend-agnostic
  protocols every monitoring backend programs against.
* :class:`DelayModel` — what one run of a network condition offers a timed
  backend; the conditions themselves (:mod:`repro.core.delays`, exported by
  :mod:`repro.scenarios`) are one frozen class each.
* Message types: :class:`Token`, :class:`TokenEntry`, :class:`TerminationNotice`.

Running a full set of monitors is one layer up: :mod:`repro.session` builds
them (``monitor_factory``) and has three drivers — the simulator (over a
zero-latency network, the untimed in-process run), the asyncio runtime and
the cluster worker — which all return one ``RunReport``.
"""

from .centralized import CentralizedMonitor, CentralizedResult
from .delays import DelayModel
from .global_view import GlobalView, ViewStatus
from .messages import TerminationNotice, Token, TokenEntry
from .monitor import DecentralizedMonitor, MonitorMetrics
from .oracle import LatticeOracle, OracleResult
from .transport import MonitorNode, Transport

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
    "Transport",
    "MonitorNode",
    "DelayModel",
]
