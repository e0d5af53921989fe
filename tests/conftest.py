"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.geometry.primitives import Point
from repro.mobility.base import Region


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests that need randomness."""
    return random.Random(12345)


@pytest.fixture
def small_region() -> Region:
    """A 300 m square test region."""
    return Region(300.0, 300.0)


@pytest.fixture
def paper_region() -> Region:
    """The paper's 1500 m x 300 m topology."""
    return Region(1500.0, 300.0)


def random_points(n: int, seed: int, side: float = 1000.0) -> list[Point]:
    """n uniform points in a square of the given side."""
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)
    ]


def build_registry_mobility(name, node_ids, region, seed, tmp_path):
    """Build registered model ``name`` with its default parameters.

    ``"trace"`` replays a random-waypoint trajectory set exported to
    ``tmp_path`` up to 120 s, so its nodes park on their final waypoint
    afterwards.
    """
    from repro.mobility.registry import as_mobility_config, build_mobility
    from repro.mobility.traces import save_ns2_trace

    if name != "trace":
        return build_mobility(as_mobility_config(name), node_ids, region, seed)
    source = build_mobility(
        as_mobility_config("random_waypoint"), node_ids, region, seed
    )
    path = tmp_path / "replay.tcl"
    save_ns2_trace(source, path, until=120.0)
    config = as_mobility_config({"model": "trace", "params": {"path": str(path)}})
    return build_mobility(config, node_ids, region, seed)
