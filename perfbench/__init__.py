"""perfbench — the repository's one benchmark.

Five workloads, six bounded end-to-end metrics plus a failure count, and
a traced pass that attributes time to the modules under ``src/repro``.
``perfbench/README.md`` is the glossary; ``BENCHMARK.json`` at the
repository root is the machine-readable contract.
"""
