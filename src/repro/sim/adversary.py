"""Byzantine adversary injection: configs, node selection, wrappers.

BeRGeR-style robustness experiments (arXiv 2403.12256) ask how much of
a protocol's delivery ratio survives when a fraction of nodes
misbehave.  This module makes that a first-class, sweepable scenario
axis:

- :class:`AdversaryConfig` is a pure value — mode name, compromised
  fraction, scalar parameters — hashable and JSON-friendly, so
  scenarios carry it, campaign grids sweep it, and the result cache
  keys on it.
- **Node selection is seed-derived** (:func:`adversary_node_set`,
  via :func:`repro.seeding.derive_rng`): which nodes are compromised is
  a pure function of the scenario seed, so parallel, sharded, and
  work-stealing campaign runs agree bit-for-bit with serial ones.
- **Wrappers** decorate the selected nodes' protocol instances inside
  :class:`repro.sim.world.World`; honest nodes run the unmodified
  protocol, so one simulation mixes honest and Byzantine behaviour.

Built-in modes (aliases in parentheses)::

    blackhole                 participates, then silently swallows
                              every received frame (data, acks,
                              summaries) — the strongest sink.
    selective_drop (greyhole) drops received DATA frames with
                              probability ``drop_rate`` (default 0.5);
                              control frames pass, keeping the node
                              attractive to its neighbours.
    location_lying (liar)     forwards normally but rewrites the
                              destination location carried in outgoing
                              DATA headers by a uniform offset up to
                              ``offset_m`` (default 300 m), stamped
                              fresh — poisoning the location diffusion
                              geographic protocols steer by.

Parameters canonicalise as on every axis
(:func:`repro.params.canonicalise_params`), the bool rule reading the
builder's signature.  Third-party modes register with
:func:`register_adversary_mode`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId
from repro.params import (
    Params,
    ParamValue,
    Registry,
    canonicalise_params,
    check_builder_params,
    normalize_name,
    params_text,
    split_config_mapping,
)
from repro.seeding import derive_rng
from repro.sim.messages import Frame, FrameKind, Message, MessageCopy
from repro.sim.world import Protocol

#: A mode builder maps (inner protocol, node_id, rng, **params) to the
#: wrapped protocol instance for one compromised node.
AdversaryBuilder = Callable[..., Protocol]

_MODES: Registry[AdversaryBuilder] = Registry("adversary mode")


@dataclass(frozen=True)
class AdversaryConfig:
    """A declarative adversary: mode, compromised fraction, parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    equal configs hash equal regardless of construction order, and the
    campaign cache key (which canonicalises dataclasses field-by-field)
    is stable.  ``fraction`` must be in ``(0, 1]`` — a zero fraction is
    *no adversary* and coerces to ``None`` (see
    :func:`as_adversary_config`), keeping its cache keys identical to
    runs that never had the axis.
    """

    mode: str
    fraction: float
    params: Params = ()

    def __post_init__(self) -> None:
        if not self.mode or not isinstance(self.mode, str):
            raise ValueError("adversary mode must be a non-empty string")
        object.__setattr__(self, "mode", _MODES.resolve(self.mode))
        if isinstance(self.fraction, bool) or not isinstance(
            self.fraction, (int, float)
        ):
            raise ValueError("adversary fraction must be a number")
        if not 0.0 < float(self.fraction) <= 1.0:
            raise ValueError(
                f"adversary fraction must be in (0, 1], got {self.fraction}"
            )
        # Integral floats collapse to ints (shared canonicalisation
        # rule): 1 and 1.0 must produce one cache key, not two.
        fraction = float(self.fraction)
        object.__setattr__(
            self,
            "fraction",
            int(fraction) if fraction.is_integer() else fraction,
        )
        params = dict(self.params)
        flags = check_builder_params(
            _MODES.kind, self.mode, _MODES.entries[self.mode], params
        )
        object.__setattr__(
            self, "params", canonicalise_params(params, flags, self.mode)
        )

    @classmethod
    def of(
        cls, mode: str, fraction: float, **params: ParamValue
    ) -> "AdversaryConfig":
        """Keyword constructor: ``AdversaryConfig.of("blackhole", 0.2)``."""
        return cls(mode=mode, fraction=fraction, params=tuple(params.items()))

    def params_dict(self) -> dict[str, ParamValue]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def to_json(self) -> dict:
        """JSON-ready form (inverse of :func:`as_adversary_config`)."""
        return {
            "mode": self.mode,
            "fraction": self.fraction,
            "params": self.params_dict(),
        }

    def __str__(self) -> str:
        # Round-trips through as_adversary_config, so grid cell labels
        # ("adversary=blackhole:0.2") are themselves valid axis values.
        text = f"{self.mode}:{self.fraction}"
        if self.params:
            text += ":" + params_text(self.params)
        return text


def register_adversary_mode(
    name: str, builder: AdversaryBuilder, aliases: Sequence[str] = ()
) -> None:
    """Register an adversary mode under ``name`` (and optional aliases),
    by the :class:`repro.params.Registry` contract."""
    _MODES.register(name, builder, aliases)


#: Canonical names of every registered adversary mode.
available_adversary_modes = _MODES.names
#: Canonical mode name for a mode name; raises for unknown modes.
resolve_adversary_mode = _MODES.resolve


def as_adversary_config(
    value: "AdversaryConfig | str | Mapping | None",
) -> AdversaryConfig | None:
    """Coerce user input into a validated :class:`AdversaryConfig`.

    Accepts ``None`` / ``"none"`` / ``"off"`` (no adversary), a string
    of the form ``"mode:fraction"`` (optionally
    ``"mode:fraction:key=value,key=value"``, each value ``true`` or
    ``false`` in any letter case, or a number), a mapping with ``mode``
    and ``fraction`` keys (parameters inline or under ``"params"``), or
    an existing config.  A fraction of zero — however spelled — returns
    ``None``: zero compromised nodes *is* the honest run, and must key
    identically in the cache and the campaign spec hash.
    """
    if value is None:
        return None
    if isinstance(value, AdversaryConfig):
        return value
    if isinstance(value, str):
        text = value.strip()
        if normalize_name(text) in ("", "none", "off"):
            return None
        parts = text.split(":", 2)
        if len(parts) < 2:
            raise ValueError(
                f"adversary {value!r} needs a fraction: 'mode:fraction'"
            )
        mode, fraction_text = parts[0], parts[1]
        try:
            fraction = float(fraction_text)
        except ValueError as exc:
            raise ValueError(
                f"bad adversary fraction {fraction_text!r} in {value!r}"
            ) from exc
        params: dict[str, ParamValue] = {}
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                key, sep, raw = item.partition("=")
                if not sep or not key:
                    raise ValueError(
                        f"bad adversary parameter {item!r} in {value!r} "
                        "(expected key=value)"
                    )
                flag = raw.strip().lower()
                try:
                    params[key] = (
                        flag == "true" if flag in ("true", "false") else float(raw)
                    )
                except ValueError as exc:
                    raise ValueError(
                        f"bad adversary parameter value {raw!r} in {value!r}"
                    ) from exc
        if fraction == 0.0:
            return None
        return AdversaryConfig.of(mode, fraction, **params)
    if isinstance(value, Mapping):
        (mode, fraction), params = split_config_mapping(
            value, "adversary", "mode", "fraction"
        )
        if fraction == 0:
            return None
        return AdversaryConfig.of(str(mode), fraction, **params)
    raise ValueError(
        f"cannot interpret {type(value).__name__} as an adversary config"
    )


# ---------------------------------------------------------------------------
# Seed-derived node selection and the per-world plan
# ---------------------------------------------------------------------------

def adversary_node_set(
    config: AdversaryConfig,
    node_ids: Sequence[NodeId],
    seed: int,
) -> frozenset:
    """Which nodes ``config`` compromises in a world seeded ``seed``.

    A pure function of ``(seed, fraction)``: the population is sorted
    deterministically and sampled with an RNG derived from the scenario
    seed, so every execution strategy (serial, process pool, shards,
    stealing, remote hosts) selects the same nodes.  The count rounds
    half-up, so ``fraction=0.2`` of 50 nodes is exactly 10.
    """
    ordered = sorted(node_ids, key=repr)
    count = int(float(config.fraction) * len(ordered) + 0.5)
    if count == 0:
        return frozenset()
    rng = derive_rng(seed, "adversary", "selection")
    return frozenset(rng.sample(ordered, count))


@dataclass(frozen=True)
class AdversaryPlan:
    """A resolved adversary for one world: node set + wrapper factory."""

    config: AdversaryConfig
    nodes: frozenset
    seed: int

    def wrap(self, node_id: NodeId, protocol: Protocol) -> Protocol:
        """The wrapped (Byzantine) protocol instance for ``node_id``."""
        builder = _MODES.entries[self.config.mode]
        rng = derive_rng(
            self.seed, "adversary", self.config.mode, repr(node_id)
        )
        return builder(protocol, node_id, rng, **self.config.params_dict())


def build_adversary_plan(
    config: "AdversaryConfig | None",
    node_ids: Sequence[NodeId],
    seed: int,
) -> AdversaryPlan | None:
    """Resolve a scenario's adversary config into a world plan."""
    if config is None:
        return None
    return AdversaryPlan(
        config=config,
        nodes=adversary_node_set(config, node_ids, seed),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

class AdversaryWrapper(Protocol):
    """Base wrapper: behaves exactly like the wrapped protocol.

    Subclasses override single hooks to misbehave; everything else —
    timers, storage metrics, traffic origination — delegates, so a
    compromised node is indistinguishable until the attack fires.
    ``frames_dropped``/``frames_poisoned`` count the damage for
    diagnostics and tests.
    """

    def __init__(self, inner: Protocol, node_id: NodeId, rng):
        super().__init__()
        self.inner = inner
        self.node_id = node_id
        self.rng = rng
        self.name = inner.name
        self.frames_dropped = 0
        self.frames_poisoned = 0

    def attach(self, api) -> None:
        self.api = api
        self.inner.attach(api)

    def detach(self) -> None:
        super().detach()
        self.inner.detach()

    def start(self) -> None:
        self.inner.start()

    def on_message_created(self, message: Message) -> None:
        self.inner.on_message_created(message)

    def on_frame(self, frame: Frame) -> None:
        self.inner.on_frame(frame)

    def storage_occupancy(self) -> int:
        return self.inner.storage_occupancy()

    def storage_peak(self) -> int:
        return self.inner.storage_peak()

    def sample_storage(self, now: float) -> None:
        self.inner.sample_storage(now)

    def storage_time_average(self, horizon: float) -> float:
        return self.inner.storage_time_average(horizon)


class BlackholeWrapper(AdversaryWrapper):
    """Swallows every received frame; never stores, relays, or acks.

    The node still beacons (the beacon layer is below the protocol), so
    geographic neighbours keep routing traffic into it — a sink.  Its
    own originated traffic still leaves via the inner protocol.
    """

    def on_frame(self, frame: Frame) -> None:
        self.frames_dropped += 1


class SelectiveDropWrapper(AdversaryWrapper):
    """Drops received DATA frames with probability ``drop_rate``.

    Control traffic (acks, summaries, requests) passes, so the node
    keeps looking cooperative — the classic greyhole.
    """

    def __init__(
        self, inner: Protocol, node_id: NodeId, rng, drop_rate: float = 0.5
    ):
        if not 0.0 < drop_rate <= 1.0:
            raise ValueError(
                f"drop_rate must be in (0, 1], got {drop_rate}"
            )
        super().__init__(inner, node_id, rng)
        self.drop_rate = drop_rate

    def on_frame(self, frame: Frame) -> None:
        if frame.kind is FrameKind.DATA and self.rng.random() < self.drop_rate:
            self.frames_dropped += 1
            return
        self.inner.on_frame(frame)


class LocationLyingWrapper(AdversaryWrapper):
    """Poisons the destination location in outgoing DATA headers.

    Every forwarded copy's believed destination location is displaced
    by a uniform offset up to ``offset_m`` per axis and stamped with the
    current time, so downstream relays adopt the lie as *fresher* than
    the truth (location diffusion works against itself).  Receiving
    and relaying otherwise proceed normally — the damage is epistemic.
    """

    def __init__(
        self, inner: Protocol, node_id: NodeId, rng, offset_m: float = 300.0
    ):
        if offset_m <= 0:
            raise ValueError(f"offset_m must be positive, got {offset_m}")
        super().__init__(inner, node_id, rng)
        self.offset_m = offset_m

    def attach(self, api) -> None:
        self.api = api
        self.inner.attach(_LyingApi(api, self))

    def poison(self, frame: Frame) -> Frame:
        if frame.kind is not FrameKind.DATA:
            return frame
        copy = frame.payload
        if not isinstance(copy, MessageCopy) or copy.dest_location is None:
            return frame
        self.frames_poisoned += 1
        lie = Point(
            copy.dest_location.x
            + self.rng.uniform(-self.offset_m, self.offset_m),
            copy.dest_location.y
            + self.rng.uniform(-self.offset_m, self.offset_m),
        )
        poisoned = replace(
            copy, dest_location=lie, dest_location_time=self.api.now()
        )
        return dataclasses.replace(frame, payload=poisoned)


class _LyingApi:
    """NodeApi proxy that routes sends through the liar's poisoner."""

    def __init__(self, api, wrapper: LocationLyingWrapper):
        self._api = api
        self._wrapper = wrapper

    def __getattr__(self, name):
        return getattr(self._api, name)

    def send(self, frame: Frame) -> bool:
        return self._api.send(self._wrapper.poison(frame))


register_adversary_mode("blackhole", BlackholeWrapper, aliases=("sink",))
register_adversary_mode(
    "selective_drop", SelectiveDropWrapper, aliases=("greyhole", "grayhole")
)
register_adversary_mode(
    "location_lying", LocationLyingWrapper, aliases=("liar", "location_lie")
)
