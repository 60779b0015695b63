"""Benchmark of the nearcommute library; run it with ``python3 bench/run.py``."""
