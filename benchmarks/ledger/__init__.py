"""Perf ledger: the repo's benchmark (see README.md in this directory).

``BENCHMARK.json`` at the repo root names ``benchmarks/ledger/run.py`` as the
command; ``python -m benchmarks.ledger`` runs every workload in one go.
"""
