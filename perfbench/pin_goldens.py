"""Regenerate ``goldens.json``: pinned payload digests per workload and seed.

Run from the repository root (takes a few minutes)::

    python3 perfbench/pin_goldens.py

Pins the default seed and the held-out seed of every workload and of
its tiny variant: the first ``PIN_TASKS`` tasks of a single-task
workload, every task of a sweep.  Re-pin only for a change that is
meant to alter simulation results; a speed-up must leave every digest
unchanged.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
PIN_TASKS = 32
PIN_TINY_TASKS = 8


def digests(workload: wl.Workload, seed: int, workdir: Path) -> list[str]:
    unit = wl.iter_units(workload, seed, workdir)
    if workload.sweep:
        return [t.digest for t in unit(0).tasks]
    count = PIN_TINY_TASKS if workload.name.endswith("~tiny") else PIN_TASKS
    return [unit(i).tasks[0].digest for i in range(count)]


def main() -> int:
    workdir = wl.work_dir(HERE.parent / ".perfbench")
    pinned: dict[str, dict[str, list[str]]] = {}
    try:
        for workload in wl.WORKLOADS.values():
            for variant in (workload.tiny, workload):
                pinned[variant.name] = {
                    str(seed): digests(variant, seed, workdir)
                    for seed in (DEFAULT_SEED, HELD_OUT_SEED)
                }
                print(f"pinned {variant.name}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "digests": pinned,
    }
    wl.GOLDENS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
