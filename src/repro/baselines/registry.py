"""String-keyed protocol registry: one build path for every protocol.

The mobility registry (:mod:`repro.mobility.registry`) decoupled
*describing* a movement pattern from *constructing* it; this module
does the same for routing protocols.  A registry entry names:

- the **builder** turning a config (plus the campaign-level
  ``buffer_limit`` fallback) into a per-node protocol instance;
- the **config dataclass** the protocol is parameterised by (``None``
  for parameterless protocols such as ``direct``);
- which config field the shared ``buffer_limit`` falls back into
  (GLR calls it ``storage_limit``; the contact protocols call it
  ``buffer_limit``) — hoisted here so the fallback is implemented
  exactly once instead of per ``if protocol ==`` branch.

Built-in protocols (aliases in parentheses)::

    glr                     GLRConfig        (the paper's protocol)
    epidemic                EpidemicConfig
    epidemic_receipts       ReceiptEpidemicConfig
    spray_and_wait (snw)    SprayAndWaitConfig
    one_hop (onehop)        OneHopConfig     (arXiv 1602.08461)
    direct                  —
    first_contact           —

Names are case-insensitive and hyphen/underscore-agnostic.  Third-party
protocols register with :func:`register_protocol`; everything downstream
— ``available_protocols()``, the declarative sweep axis, the CLI
``--protocols`` choices, the runner's factory — derives from the
registry, so a registered protocol is immediately sweepable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.direct import DirectDeliveryProtocol
from repro.baselines.epidemic import EpidemicConfig, EpidemicProtocol
from repro.baselines.first_contact import FirstContactProtocol
from repro.baselines.one_hop import OneHopConfig, OneHopProtocol
from repro.baselines.receipts import (
    ReceiptEpidemicConfig,
    ReceiptEpidemicProtocol,
)
from repro.baselines.spray_and_wait import (
    SprayAndWaitConfig,
    SprayAndWaitProtocol,
)
from repro.core.protocol import GLRConfig, GLRProtocol
from repro.params import Registry, normalize_name
from repro.sim.world import Protocol

#: A builder maps (config, buffer_limit) to one node's protocol
#: instance.  ``config`` is the entry's resolved config dataclass (with
#: the buffer fallback already applied) or ``None`` for parameterless
#: protocols, which receive ``buffer_limit`` directly instead.
ProtocolBuilder = Callable[[object, "int | None"], Protocol]


@dataclass(frozen=True)
class ProtocolEntry:
    """How one registered protocol is validated and constructed."""

    name: str
    builder: ProtocolBuilder
    config_class: type | None = None
    #: Config field the shared ``buffer_limit`` falls back into when the
    #: config leaves it unset (None = the builder takes ``buffer_limit``
    #: directly, as the parameterless contact protocols do).
    buffer_field: str | None = None


_PROTOCOLS: Registry[ProtocolEntry] = Registry("protocol")


def register_protocol(
    name: str,
    builder: ProtocolBuilder,
    config_class: type | None = None,
    buffer_field: str | None = None,
    aliases: Sequence[str] = (),
) -> None:
    """Register a protocol under ``name`` (and optional aliases), by the
    :class:`repro.params.Registry` contract."""
    if config_class is None and buffer_field is not None:
        raise ValueError("buffer_field requires a config_class")
    if buffer_field is not None and buffer_field not in {
        f.name for f in dataclasses.fields(config_class)
    }:
        raise ValueError(
            f"config class {config_class.__name__} has no field "
            f"{buffer_field!r}"
        )
    canonical = normalize_name(name)
    entry = ProtocolEntry(
        name=canonical,
        builder=builder,
        config_class=config_class,
        buffer_field=buffer_field,
    )
    _PROTOCOLS.register(canonical, entry, aliases)


#: Canonical names of every registered protocol.
available_protocols = _PROTOCOLS.names
#: Aliases resolving to a protocol name, sorted; raises for unknown ones.
protocol_aliases = _PROTOCOLS.aliases_of
#: Canonical registry name for a protocol name; raises for unknown ones.
resolve_protocol = _PROTOCOLS.resolve
#: The registry entry for a protocol name (resolving aliases).
protocol_entry = _PROTOCOLS.__getitem__


def resolve_config(
    protocol: str,
    config: object | None = None,
    buffer_limit: int | None = None,
) -> object | None:
    """The concrete config instance a run of ``protocol`` will use.

    ``None`` config means the protocol's defaults.  The shared
    ``buffer_limit`` fallback lives here — once, for every protocol:
    when the config's buffer field is unset, the campaign-level limit
    fills it in; an explicit config value always wins.  Returns ``None``
    for parameterless protocols (whose builders take ``buffer_limit``
    directly).
    """
    entry = protocol_entry(protocol)
    if entry.config_class is None:
        if config is not None:
            raise ValueError(
                f"protocol {entry.name!r} takes no config, got "
                f"{type(config).__name__}"
            )
        return None
    if config is None:
        config = entry.config_class()
    elif not isinstance(config, entry.config_class):
        raise ValueError(
            f"protocol {entry.name!r} expects a "
            f"{entry.config_class.__name__}, got {type(config).__name__}"
        )
    if (
        entry.buffer_field is not None
        and buffer_limit is not None
        and getattr(config, entry.buffer_field) is None
    ):
        config = dataclasses.replace(
            config, **{entry.buffer_field: buffer_limit}
        )
    return config


def protocol_factory(
    protocol: str,
    config: object | None = None,
    buffer_limit: int | None = None,
) -> Callable[[object], Protocol]:
    """A per-node factory constructing ``protocol`` instances.

    The config is resolved (defaults, type check, buffer fallback) once
    up front; the returned factory then builds one instance per node, as
    :class:`repro.sim.world.World` requires.
    """
    entry = protocol_entry(protocol)
    resolved = resolve_config(protocol, config, buffer_limit)
    return lambda node: entry.builder(resolved, buffer_limit)


# ---------------------------------------------------------------------------
# Built-in protocols
# ---------------------------------------------------------------------------

register_protocol(
    "glr",
    lambda config, buffer_limit: GLRProtocol(config),
    config_class=GLRConfig,
    buffer_field="storage_limit",
)
register_protocol(
    "epidemic",
    lambda config, buffer_limit: EpidemicProtocol(config),
    config_class=EpidemicConfig,
    buffer_field="buffer_limit",
)
register_protocol(
    "epidemic_receipts",
    lambda config, buffer_limit: ReceiptEpidemicProtocol(config),
    config_class=ReceiptEpidemicConfig,
    buffer_field="buffer_limit",
)
register_protocol(
    "spray_and_wait",
    lambda config, buffer_limit: SprayAndWaitProtocol(config),
    config_class=SprayAndWaitConfig,
    buffer_field="buffer_limit",
    aliases=("snw", "spray"),
)
register_protocol(
    "one_hop",
    lambda config, buffer_limit: OneHopProtocol(config),
    config_class=OneHopConfig,
    buffer_field="buffer_limit",
    aliases=("onehop", "one_hop_information"),
)
register_protocol(
    "direct",
    lambda config, buffer_limit: DirectDeliveryProtocol(
        buffer_limit=buffer_limit
    ),
)
register_protocol(
    "first_contact",
    lambda config, buffer_limit: FirstContactProtocol(
        buffer_limit=buffer_limit
    ),
)
