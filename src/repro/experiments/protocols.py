"""Declarative protocol configs: the one way to spell a protocol variant.

The mobility registry made *movement patterns* sweepable values
(:class:`~repro.mobility.registry.MobilityConfig`); this module does
the same for *protocol configurations*.  A :class:`ProtocolConfig` is a
pure value — protocol name plus scalar parameters, hashable and
JSON-friendly — so campaign grids can enumerate protocol variants
(hello/check intervals, custody on/off, copy budgets, who knows the
destination's location) and the result cache can key on the resolved
configuration.  It is the only form a run's ``protocol_config`` takes
(:func:`run_config`): a concrete config dataclass is refused.

Validation happens at coercion time: parameter names are checked
against the protocol's config dataclass and parameter values run
through its ``__post_init__`` checks, so a bad campaign spec fails at
spec load, not mid-campaign inside a worker process.  Values
canonicalise as on every axis (:func:`repro.params.canonicalise_params`),
the bool and enum rules reading the dataclass's field types:
``custody=1`` reads ``custody=True``, and ``location_mode`` takes
``LocationMode.ORACLE`` or ``"oracle"`` and stores ``"oracle"``.

Every protocol's parameters are listed in ``docs/protocols.md``, which
:mod:`repro.docgen` generates from the registry.  Which protocols exist
and their config dataclasses come from the protocol registry
(:mod:`repro.baselines.registry`) — registering a protocol there makes
it sweepable here with no further wiring.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

from repro.baselines.registry import (
    available_protocols,
    protocol_entry,
    resolve_protocol,
)
from repro.params import (
    Params,
    ParamValue,
    canonicalise_params,
    config_label,
    split_config_mapping,
    typed_fields,
)


#: Protocol names accepted by :class:`ProtocolConfig`: every registered one.
sweepable_protocols = available_protocols


def sweepable_params(protocol: str) -> list[str]:
    """Parameter names a protocol accepts in a :class:`ProtocolConfig`."""
    entry = protocol_entry(protocol)
    if entry.config_class is None:
        return []
    return sorted(f.name for f in dataclasses.fields(entry.config_class))


@dataclass(frozen=True)
class ProtocolConfig:
    """A declarative protocol variant: protocol name plus parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    equal configs hash equal regardless of construction order, and the
    campaign cache key (which canonicalises dataclasses field-by-field)
    is stable.  Use :meth:`of` for keyword construction.
    """

    protocol: str
    params: Params = ()

    def __post_init__(self) -> None:
        if not self.protocol or not isinstance(self.protocol, str):
            raise ValueError("protocol name must be a non-empty string")
        object.__setattr__(self, "protocol", resolve_protocol(self.protocol))
        # The one canonical form (repro.params), with the bool and enum
        # rules driven by the config dataclass's declared field types.
        config_class = protocol_entry(self.protocol).config_class
        flags, enums = typed_fields(config_class) if config_class else ((), {})
        object.__setattr__(
            self,
            "params",
            canonicalise_params(
                dict(self.params), flags, self.protocol, enums
            ),
        )
        self.build()  # validate names and values at construction time

    @classmethod
    def of(cls, protocol: str, **params: ParamValue) -> "ProtocolConfig":
        """Keyword-style constructor: ``ProtocolConfig.of("glr", custody=False)``."""
        return cls(protocol=protocol, params=tuple(params.items()))

    def params_dict(self) -> dict[str, ParamValue]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def build(self) -> object | None:
        """The concrete config dataclass instance this value describes.

        ``None`` for protocols without a config class (``direct``,
        ``first_contact``), which therefore accept no parameters.  An
        enum field's stored value becomes its member again.  Raises
        :class:`ValueError` for unknown parameter names and for
        parameter values the config's own validation rejects.
        """
        entry = protocol_entry(self.protocol)
        params = self.params_dict()
        if entry.config_class is None:
            if params:
                raise ValueError(
                    f"protocol {self.protocol!r} takes no config "
                    f"parameters, got {sorted(params)}"
                )
            return None
        config_class = entry.config_class
        accepted = {f.name for f in dataclasses.fields(config_class)}
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise ValueError(
                f"protocol {self.protocol!r} does not accept parameters "
                f"{unknown}; choose from {sweepable_params(self.protocol)}"
            )
        for name, kind in typed_fields(config_class)[1].items():
            if name in params:
                params[name] = kind(params[name])
        try:
            return config_class(**params)
        except TypeError as exc:
            # Known names, so this is the config's own validation
            # tripping over a wrongly typed value (e.g. a string where
            # __post_init__ compares numbers).
            raise ValueError(
                f"bad parameter value for protocol {self.protocol!r}: "
                f"{exc}"
            ) from exc

    def to_json(self) -> dict:
        """JSON-ready form (inverse of :func:`as_protocol_config`)."""
        return {"protocol": self.protocol, "params": self.params_dict()}

    def __str__(self) -> str:
        return config_label(self.protocol, self.params)


def as_protocol_config(
    value: "ProtocolConfig | str | Mapping",
) -> ProtocolConfig:
    """Coerce user input into a validated :class:`ProtocolConfig`.

    Accepts a protocol name string, a mapping of the form
    ``{"protocol": name, "params": {...}}`` (or with parameters inline
    next to ``"protocol"``), or an existing config.
    """
    if isinstance(value, ProtocolConfig):
        return value
    if isinstance(value, str):
        return ProtocolConfig(protocol=value)
    if isinstance(value, Mapping):
        (protocol,), params = split_config_mapping(value, "protocol", "protocol")
        return ProtocolConfig.of(str(protocol), **params)
    raise ValueError(
        f"cannot interpret {type(value).__name__} as a protocol config; "
        f"pass a ProtocolConfig, a protocol name or a mapping"
    )


def run_config(
    protocol: str, value: "ProtocolConfig | str | Mapping | None"
) -> ProtocolConfig | None:
    """``value`` (None or :func:`as_protocol_config`'s input) as the
    config of a run of ``protocol``: a mismatch is refused, and a
    config without parameters is the bare protocol, ``None``, so every
    spelling of a cell keys and labels alike."""
    if value is None:
        return None
    config = as_protocol_config(value)
    canonical = resolve_protocol(protocol)
    if config.protocol != canonical:
        raise ValueError(
            f"protocol config is for {config.protocol!r}, but the run "
            f"requests {canonical!r}"
        )
    return config if config.params else None
