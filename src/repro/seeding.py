"""Deterministic RNG derivation.

Every stochastic component derives its own :class:`random.Random` from a
master seed plus a role label, so replicate runs are reproducible and
components never share (or fight over) one stream.  ``random.Random``
only seeds from scalars, so composite keys are flattened to a stable
string first.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable


def derive_seed(*parts: object) -> str:
    """A stable scalar seed string from heterogeneous key parts."""
    return "|".join(repr(p) for p in parts)


def derive_rng(*parts: object) -> random.Random:
    """A :class:`random.Random` seeded from the flattened key parts."""
    return random.Random(derive_seed(*parts))


#: Spacing between replicate master seeds.  Seeds within one scenario
#: stay < 1000 apart in practice, so strides of 1000 keep replicate
#: populations disjoint (paper: 10 independent topologies per point).
REPLICATE_SEED_STRIDE = 1000


def replicate_seed(master_seed: int, replicate: int) -> int:
    """The master seed of replicate ``replicate`` of a scenario.

    This is the single source of truth used by both the serial
    reference path (:func:`repro.experiments.runner.run_replicates`)
    and the parallel campaign engine
    (:mod:`repro.experiments.campaign`), so a parallel fan-out is
    bit-identical to a serial run of the same spec.
    """
    if replicate < 0:
        raise ValueError("replicate index must be non-negative")
    return master_seed + REPLICATE_SEED_STRIDE * replicate


def stable_shard(key: str, shard_count: int) -> int:
    """The shard (``0 .. shard_count-1``) a content key belongs to.

    Hash-based so the partition depends only on the key itself — not on
    enumeration order, process, or platform — which lets independently
    launched shard runs of one campaign split the task set consistently
    (``repro campaign --shard-index/--shard-count``) and lets a merge
    detect overlap by task key alone.
    """
    if shard_count < 1:
        raise ValueError("shard count must be >= 1")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


def shard_partition(
    keys: Iterable[str], shard_count: int
) -> list[list[str]]:
    """Partition ``keys`` into per-shard lists (index ``i`` -> its keys).

    The materialised form of :func:`stable_shard`: every key lands in
    exactly one shard's list, in input order.  This is the *initial*
    lease set the orchestrator's lease board starts every worker from,
    so an orchestrated campaign where no steal ever fires is, by
    construction, the partition hand-launched
    ``--shard-index/--shard-count`` runs execute.
    """
    if shard_count < 1:
        raise ValueError("shard count must be >= 1")
    parts: list[list[str]] = [[] for _ in range(shard_count)]
    for key in keys:
        parts[stable_shard(key, shard_count)].append(key)
    return parts

