"""Benchmark harness configuration.

Every bench regenerates one of the paper's tables or figures at
``BENCH_EFFORT`` scale (reduced runs/messages/horizon so the suite
finishes in minutes) and prints the paper-comparable rendering, so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
harness.  The paper-vs-measured record for each artifact is not
produced yet (ROADMAP.md item 5).

Benches run their driver exactly once inside the benchmark wrapper
(rounds=1): the quantity of interest is the experiment output, and each
"iteration" is itself an average over replicate simulations.

Every simulation driver routes its replicate loop through the campaign
engine (:mod:`repro.experiments.campaign`); set ``REPRO_BENCH_WORKERS=N``
to fan the replicates out over N processes (results are bit-identical
to the default serial run, only the wall clock changes).
"""

from __future__ import annotations

import inspect

import pytest

from repro.experiments.common import bench_workers


@pytest.fixture
def run_once(benchmark):
    """Run a driver exactly once under pytest-benchmark and return it.

    Drivers that accept a ``workers`` argument get the
    ``REPRO_BENCH_WORKERS`` setting injected unless the bench pinned
    one explicitly.
    """

    def _run(fn, *args, **kwargs):
        if (
            "workers" not in kwargs
            and "workers" in inspect.signature(fn).parameters
        ):
            kwargs["workers"] = bench_workers()
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run
