"""Benchmark harness configuration.

Every bench regenerates one of the paper's tables or figures at
``BENCH_EFFORT`` scale (reduced runs/messages/horizon so the suite
finishes in minutes) and prints the paper-comparable rendering, so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
harness.  The paper-vs-measured record for each artifact is not
produced yet (ROADMAP.md, "Make the paper's evaluation one spec").

Benches run their artefact exactly once inside the benchmark wrapper
(rounds=1): the quantity of interest is the experiment output, and each
"iteration" is itself an average over replicate simulations.  They run
serially, so their timings measure the simulator;
``repro experiment NAME --workers N`` runs any artefact over N
processes instead (bit-identical results, only the wall clock changes).
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run a function exactly once under pytest-benchmark and return it."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run
