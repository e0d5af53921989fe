"""Computational-geometry substrate for the GLR reproduction.

The paper's routing graph is a localized Delaunay triangulation; this
package provides the geometric machinery it is built from:

- :mod:`repro.geometry.primitives` — points, distances, angles.
- :mod:`repro.geometry.predicates` — exact orientation, in-circle, turns.
- :mod:`repro.geometry.hull` — convex hulls (Andrew's monotone chain).
- :mod:`repro.geometry.triangulation` — triangulation data structure.
- :mod:`repro.geometry.delaunay` — Bowyer–Watson Delaunay triangulation,
  implemented from scratch (no scipy dependency at runtime; scipy is used
  only as a cross-check oracle in the test suite).
"""

from repro.geometry.delaunay import delaunay_triangulation
from repro.geometry.hull import convex_hull
from repro.geometry.predicates import (
    Orientation,
    circumcircle,
    in_circle,
    orientation,
    segments_intersect,
)
from repro.geometry.primitives import (
    Point,
    angle_between,
    distance,
    distance_sq,
    midpoint,
    polygon_area,
)
from repro.geometry.triangulation import Triangulation

__all__ = [
    "Orientation",
    "Point",
    "Triangulation",
    "angle_between",
    "circumcircle",
    "convex_hull",
    "delaunay_triangulation",
    "distance",
    "distance_sq",
    "in_circle",
    "midpoint",
    "orientation",
    "polygon_area",
    "segments_intersect",
]
