"""String-keyed mobility registry and declarative mobility configs.

The registry decouples *describing* a movement pattern from
*constructing* it.  A :class:`MobilityConfig` is a pure value — model
name plus scalar parameters, hashable and JSON-friendly — so scenarios
can carry it, the campaign cache can key on it, and sweep grids can
enumerate it.  :func:`build_mobility` turns a config into a live
:class:`~repro.mobility.base.MobilityModel` for a concrete node
population, region, and seed.

Built-in models (aliases in parentheses)::

    random_waypoint (rwp)   min_speed, max_speed, pause_time
    random_walk             min_speed, max_speed, epoch
    gauss_markov            mean_speed, alpha, speed_std, direction_std,
                            update_interval, max_speed, edge_margin
    rpgm (group)            n_groups, group_radius, min_speed, max_speed,
                            pause_time, member_speed
    manhattan (grid)        blocks_x, blocks_y, min_speed, max_speed,
                            turn_prob
    static                  (none)
    trace                   path  [ns-2 setdest scenario file]

Names are case-insensitive and hyphen/underscore-agnostic, so
``"gauss-markov"`` and ``"Gauss_Markov"`` resolve to the same model.
Parameters canonicalise as on every axis
(:func:`repro.params.canonicalise_params`), the bool rule reading the
builder's signature.  Third-party models register with
:func:`register_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.graphs.udg import NodeId
from repro.mobility.base import MobilityModel, Region
from repro.params import (
    Params,
    ParamValue,
    Registry,
    canonicalise_params,
    check_builder_params,
    config_label,
    normalize_name,
    split_config_mapping,
)
from repro.mobility.gauss_markov import GaussMarkovMobility
from repro.mobility.manhattan import ManhattanGridMobility
from repro.mobility.random_walk import RandomWalkMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.rpgm import ReferencePointGroupMobility
from repro.mobility.static import StaticMobility
from repro.mobility.traces import TraceMobility, parse_ns2_trace

#: A builder maps (node_ids, region, seed, **params) to a live model.
MobilityBuilder = Callable[..., MobilityModel]

_MODELS: Registry[MobilityBuilder] = Registry("mobility model")


@dataclass(frozen=True)
class MobilityConfig:
    """A declarative movement pattern: model name plus parameters.

    ``params`` is stored in the canonical form of :mod:`repro.params`
    (a sorted tuple of ``(name, value)`` pairs), so equal configs hash
    equal regardless of construction order, and the campaign cache key
    (which canonicalises dataclasses field-by-field) is stable.  Model
    and parameter names are checked by :func:`as_mobility_config`, not
    here; a registered model's builder only says which parameters are
    ``bool``.  Use :meth:`of` for keyword construction.
    """

    model: str
    params: Params = ()

    def __post_init__(self) -> None:
        if not self.model or not isinstance(self.model, str):
            raise ValueError("mobility model name must be a non-empty string")
        object.__setattr__(self, "model", normalize_name(self.model))
        canonical = _MODELS.find(self.model)
        flags = (
            frozenset()
            if canonical is None
            else check_builder_params(
                _MODELS.kind, canonical, _MODELS.entries[canonical]
            )
        )
        object.__setattr__(
            self,
            "params",
            canonicalise_params(dict(self.params), flags, self.model),
        )

    @classmethod
    def of(cls, model: str, **params: ParamValue) -> "MobilityConfig":
        """Keyword-style constructor: ``MobilityConfig.of("rpgm", n_groups=5)``."""
        return cls(model=model, params=tuple(params.items()))

    def params_dict(self) -> dict[str, ParamValue]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def to_json(self) -> dict:
        """JSON-ready form (inverse of :func:`as_mobility_config`)."""
        return {"model": self.model, "params": self.params_dict()}

    def __str__(self) -> str:
        return config_label(self.model, self.params)


def register_model(
    name: str, builder: MobilityBuilder, aliases: Sequence[str] = ()
) -> None:
    """Register ``builder`` under ``name`` (and optional aliases), by the
    :class:`repro.params.Registry` contract: registering ``"grid"``
    hides the Manhattan alias of that name."""
    _MODELS.register(name, builder, aliases)


#: Canonical names of every registered mobility model.
available_models = _MODELS.names
#: Canonical registry name for a model name; raises for unknown models.
resolve_model = _MODELS.resolve


def as_mobility_config(
    value: "MobilityConfig | str | Mapping | None",
) -> MobilityConfig | None:
    """Coerce user input into a validated :class:`MobilityConfig`.

    Accepts ``None`` (passed through: "use the scenario's paper-default
    RWP"), a model name string, a mapping of the form
    ``{"model": name, "params": {...}}`` (or with parameters inline
    next to ``"model"``), or an existing config.
    """
    if value is None:
        return None
    if isinstance(value, MobilityConfig):
        config = value
    elif isinstance(value, str):
        config = MobilityConfig(model=value)
    elif isinstance(value, Mapping):
        (model,), params = split_config_mapping(value, "mobility", "model")
        config = MobilityConfig.of(str(model), **params)
    else:
        raise ValueError(
            f"cannot interpret {type(value).__name__} as a mobility config"
        )
    model = _MODELS.resolve(config.model)
    check_builder_params(
        _MODELS.kind, model, _MODELS.entries[model], config.params_dict()
    )
    return MobilityConfig(model=model, params=config.params)


def build_mobility(
    config: MobilityConfig,
    node_ids: Sequence[NodeId],
    region: Region,
    seed: int,
) -> MobilityModel:
    """Construct the model a config describes for a concrete population."""
    canonical = _MODELS.resolve(config.model)
    try:
        return _MODELS.entries[canonical](
            node_ids, region, seed, **config.params_dict()
        )
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for mobility model {canonical!r}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Built-in builders
# ---------------------------------------------------------------------------

def _build_static(
    node_ids: Sequence[NodeId], region: Region, seed: int
) -> StaticMobility:
    return StaticMobility.uniform(node_ids, region, seed)


def _build_trace(
    node_ids: Sequence[NodeId], region: Region, seed: int, path: str
) -> TraceMobility:
    """Replay an ns-2 scenario file, restricted to the scenario's nodes.

    The file may describe more nodes than the scenario uses (the extra
    trajectories are dropped) but must cover every scenario node.  The
    campaign cache keys on the file's *content hash*
    (:func:`repro.mobility.traces.trace_file_digest`), so editing a
    trace in place invalidates cached simulations and renaming or
    copying an identical file still hits.
    """
    if not path:
        raise ValueError("trace mobility needs a 'path' parameter")
    traces = parse_ns2_trace(path)
    missing = [node for node in node_ids if node not in traces]
    if missing:
        raise ValueError(
            f"trace {path!r} has no trajectory for nodes {missing[:5]} "
            f"({len(missing)} missing; trace covers {len(traces)} nodes)"
        )
    return TraceMobility(region, {node: traces[node] for node in node_ids})


register_model("random_waypoint", RandomWaypointMobility, aliases=("rwp",))
register_model("random_walk", RandomWalkMobility)
register_model("gauss_markov", GaussMarkovMobility)
register_model(
    "rpgm", ReferencePointGroupMobility, aliases=("group", "group_mobility")
)
register_model("manhattan", ManhattanGridMobility, aliases=("grid",))
register_model("static", _build_static)
register_model("trace", _build_trace)
