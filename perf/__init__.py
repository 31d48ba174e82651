"""The whole-run benchmark of the decentralized LTL3 monitor (see perf/README.md)."""
