"""End-to-end benchmark over the real ``repro serve`` (see perf/README.md)."""
