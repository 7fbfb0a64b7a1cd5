"""Benchmark of the telefitts analysis pipeline.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root. See ``perfbench/run.py`` for what it measures.
"""
