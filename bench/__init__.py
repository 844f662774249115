"""End-to-end serving benchmark over the real cluster topology.

``python3 bench/run.py`` (or ``PYTHONPATH=src python -m bench.run``) is
the one command: it generates a seeded catalog, boots coordinator + 2
shard servers + 1 replica as real processes, drives four named
workloads through the ordinary remote client, checks every answer
against an in-process oracle and prints every metric named in the
root ``BENCHMARK.json``.  See ``bench/README.md``.
"""
