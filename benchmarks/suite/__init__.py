"""One benchmark suite for served quotes, population studies, re-pricing and grids.

See ``benchmarks/suite/README.md`` and ``BENCHMARK.json`` at the root.
"""
