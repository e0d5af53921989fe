"""Named configs: one way to resolve, check, parse and label them.

Every campaign axis value is "a registered name plus scalar
parameters": protocol variants, mobility models and adversary modes.
Their canonical forms feed campaign cache keys, cell labels and spec
hashes, so all three axes resolve, check, parse and label by the rules
here — a divergence would make equal configs key differently depending
on which axis they sit on.
"""

from __future__ import annotations

import functools
import inspect
import typing
from enum import Enum
from types import MappingProxyType
from typing import Callable, Collection, Generic, Iterable, Mapping, TypeVar

#: Parameter values a declarative config may carry: scalars only, so
#: configs stay hashable and canonicalise cleanly into cache keys.
ParamValue = bool | int | float | str

#: A config's parameters in canonical form: sorted ``(name, value)``.
Params = tuple[tuple[str, ParamValue], ...]

T = TypeVar("T")


def normalize_name(name: str) -> str:
    """Canonical spelling of a registry name: case-insensitive and
    hyphen/underscore-agnostic (``"Gauss-Markov"`` is ``gauss_markov``)."""
    return name.strip().lower().replace("-", "_")


class Registry(Generic[T]):
    """The named entries of one axis, with their aliases.

    Re-registering a name replaces its entry, and a directly registered
    name wins over an alias of the same spelling, so tests and user
    code can shadow built-ins.  Registrations are per-process: campaign
    workers inherit them on fork-based platforms (Linux), but under the
    ``spawn`` start method (macOS/Windows) they re-import with built-ins
    only, so register custom entries at import time of a module the
    workers also import, or run with ``workers=1``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.entries: dict[str, T] = {}
        self.aliases: dict[str, str] = {}

    def register(self, name: str, entry: T, aliases: Iterable[str] = ()) -> None:
        canonical = normalize_name(name)
        self.entries[canonical] = entry
        for alias in aliases:
            self.aliases[normalize_name(alias)] = canonical

    def names(self) -> list[str]:
        """Canonical names of every registered entry, sorted."""
        return sorted(self.entries)

    def find(self, name: str) -> str | None:
        """Canonical name for ``name``, or ``None`` when unregistered."""
        normalized = normalize_name(name)
        if normalized not in self.entries:
            normalized = self.aliases.get(normalized, normalized)
        return normalized if normalized in self.entries else None

    def resolve(self, name: str) -> str:
        """Canonical name for ``name``; raises for unregistered names."""
        canonical = self.find(name)
        if canonical is None:
            raise ValueError(
                f"unknown {self.kind} {name!r}; choose from {self.names()}"
            )
        return canonical

    def __getitem__(self, name: str) -> T:
        return self.entries[self.resolve(name)]

    def aliases_of(self, name: str) -> list[str]:
        """Aliases resolving to ``name``, sorted."""
        canonical = self.resolve(name)
        return sorted(
            alias for alias, target in self.aliases.items()
            if target == canonical
        )


def bool_params(declared: Iterable[tuple[str, object]]) -> frozenset[str]:
    """The names among ``(name, annotation)`` pairs declared ``bool``.

    Annotations are strings under ``from __future__ import
    annotations``, so both spellings count.
    """
    return frozenset(
        name for name, annotation in declared if annotation in (bool, "bool")
    )


@functools.cache  # configs are rebuilt for every scenario copy
def typed_fields(config_class: type) -> tuple[frozenset[str], Mapping]:
    """A config dataclass's ``bool`` fields, and its enum fields' types."""
    declared = typing.get_type_hints(config_class)
    enums = {
        name: kind
        for name, kind in declared.items()
        if isinstance(kind, type) and issubclass(kind, Enum)
    }
    return bool_params(declared.items()), MappingProxyType(enums)


#: Leading builder parameters the caller supplies positionally —
#: ``(node_ids, region, seed)`` for a mobility model, ``(inner, node_id,
#: rng)`` for an adversary mode — whatever their names.
BUILDER_POSITIONALS = 3


@functools.cache  # configs are rebuilt for every scenario copy
def _signature(builder: Callable) -> inspect.Signature | None:
    try:
        return inspect.signature(builder)
    except (TypeError, ValueError):
        return None


def check_builder_params(
    kind: str,
    name: str,
    builder: Callable,
    params: Collection[object] | None = None,
) -> frozenset[str]:
    """Check parameter names against ``builder``'s signature.

    Catching typos (``alhpa``, ``n_group``) and missing required
    parameters when a config is coerced means a bad campaign spec fails
    at load, not mid-campaign inside a worker process.  Builders taking
    ``*args``/``**kwargs``, and callables without a signature, accept
    any name; ``params=None`` checks nothing.  Returns the parameters
    ``builder`` declares ``bool``, for :func:`canonicalise_params`.
    """
    signature = _signature(builder)
    if signature is None:  # builtins/odd callables: trust them
        return frozenset()
    every = list(signature.parameters.values())
    declared = every[BUILDER_POSITIONALS:]
    flags = bool_params((p.name, p.annotation) for p in declared)
    if params is None or any(
        p.kind in (p.VAR_KEYWORD, p.VAR_POSITIONAL) for p in every
    ):
        return flags
    accepted = {p.name for p in declared}
    unknown = sorted(set(params) - accepted, key=str)
    if unknown:
        raise ValueError(
            f"{kind} {name!r} does not accept parameters {unknown}; "
            f"choose from {sorted(accepted)}"
        )
    missing = sorted(
        p.name for p in declared if p.default is p.empty and p.name not in params
    )
    if missing:
        raise ValueError(f"{kind} {name!r} requires parameters {missing}")
    return flags


def canonicalise_params(
    params: Mapping[object, object],
    flags: Collection[str] = frozenset(),
    owner: str = "",
    enums: Mapping[str, type[Enum]] = MappingProxyType({}),
) -> Params:
    """Validate a config's parameter mapping; return its canonical form.

    Names must be strings and values scalars.  Integral floats (``5.0``
    from a JSON spec or the CLI) collapse to ints.  Since ``True == 1``,
    equal configs must not encode as ``true`` and ``1`` (that would
    split cache keys, labels and spec hashes): a parameter in ``flags``
    (declared ``bool``) turns 0/1 into the bool and rejects anything
    else, such as 2 or ``"no"``, and any other parameter turns a bool
    into the int.  A parameter in ``enums`` takes a member of its enum
    or the member's value, and stores the value.
    """
    items: dict[str, ParamValue] = {}
    for key, value in params.items():
        if not isinstance(key, str):
            raise ValueError(f"parameter name {key!r} must be a string")
        if key in enums:
            try:
                items[key] = enums[key](value).value
                continue
            except ValueError:
                choices = ", ".join(str(m.value) for m in enums[key])
                raise ValueError(
                    f"parameter {key!r} of {owner!r} is one of {choices}; "
                    f"got {value!r}"
                ) from None
        if not isinstance(value, (bool, int, float, str)):
            raise ValueError(
                f"parameter {key!r} must be a scalar, got "
                f"{type(value).__name__}"
            )
        if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
            value = int(value)
        if key in flags:
            if isinstance(value, int) and value in (0, 1):
                value = bool(value)
            elif not isinstance(value, bool):
                raise ValueError(
                    f"parameter {key!r} of {owner!r} is boolean; "
                    f"got {value!r}"
                )
        elif isinstance(value, bool):
            value = int(value)
        items[key] = value
    return tuple(sorted(items.items()))


def split_config_mapping(
    value: Mapping, kind: str, *keys: str
) -> tuple[list[object], dict]:
    """Parse a config mapping into its ``keys``' values and its params.

    Parameters sit under ``"params"`` or inline next to the keys, never
    both: ``{"model": "rpgm", "params": {"n_groups": 5}}`` and
    ``{"model": "rpgm", "n_groups": 5}`` are the same config.
    """
    data = dict(value)
    heads = []
    for key in keys:
        head = data.pop(key, None)
        if head is None:
            raise ValueError(f"{kind} mapping needs a {key!r} key")
        heads.append(head)
    params = data.pop("params", None)
    if params is None:
        return heads, data
    if data:
        raise ValueError(
            f"unexpected {kind} keys {sorted(data)} next to 'params'"
        )
    if not isinstance(params, Mapping):
        raise ValueError(
            f"{kind} 'params' must be a mapping, got {type(params).__name__}"
        )
    return heads, dict(params)


def params_text(params: Iterable[tuple[str, object]]) -> str:
    """``k=v,k=v``: parameters as they appear in labels and cell names."""
    return ",".join(f"{key}={value}" for key, value in params)


def config_label(name: str, params: Params) -> str:
    """A config's reporting label: ``name`` or ``name(k=v,...)``."""
    return f"{name}({params_text(params)})" if params else name
