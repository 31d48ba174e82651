"""The routing rule of the decentralized monitors (:mod:`.topology`)."""

from __future__ import annotations

from .topology import RoundRobinToken

__all__ = ["RoundRobinToken"]
