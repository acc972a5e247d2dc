"""Attack registry.

Attacks register under a stable name used by ``AttackConfig``.  Importing
:mod:`repro.attacks` registers the reference attacks (the paper's three,
plus the extensions)."""

from __future__ import annotations

from typing import Callable, Type, TypeVar

from ..core.config import AttackConfig
from ..core.errors import ConfigurationError
from .base import Attacker

_REGISTRY: dict[str, Type[Attacker]] = {}

A = TypeVar("A", bound=Type[Attacker])


def register_attack(name: str) -> Callable[[A], A]:
    """Class decorator: register an attacker under ``name``.

    A leading underscore in ``name`` registers the attacker as *unlisted*
    (same convention as the protocol registry): usable from configurations,
    invisible to :func:`available_attacks` — so scripted test doubles never
    leak into the CLI listing or error messages.
    """

    def decorator(cls: A) -> A:
        if name in _REGISTRY:
            raise ConfigurationError(f"attack {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def get_attack(name: str) -> Type[Attacker]:
    """Look up an attacker class by registry name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown attack {name!r}; available: {available_attacks()}"
        ) from None


def make_attacker(config: AttackConfig, where: str = "attack params") -> Attacker:
    """Instantiate the attacker described by ``config``.

    Attackers read their parameters when constructed, so a parameter of the
    wrong type fails here as a :class:`ConfigurationError` naming ``where``
    (the flag or clause it came from) and the attack.
    """
    cls = get_attack(config.name)
    try:
        return cls(config.params)
    except (ConfigurationError, TypeError, ValueError) as error:
        raise ConfigurationError(
            f"{where}: attack {config.name!r} cannot use {config.params}: {error}"
        ) from None


def is_attack(name: str) -> bool:
    """True when ``name`` resolves through :func:`get_attack`."""
    _ensure_builtins()
    return name in _REGISTRY


def available_attacks() -> list[str]:
    """Sorted names of every *listed* registered attack.

    Names starting with an underscore are registered but unlisted: they
    stay resolvable through :func:`get_attack` but are hidden from
    enumeration — and from the ``ConfigurationError`` raised on a typo'd
    attack name, which quotes this listing.
    """
    _ensure_builtins()
    return sorted(name for name in _REGISTRY if not name.startswith("_"))


def _ensure_builtins() -> None:
    from . import (  # noqa: F401
        adaptive,
        add_adaptive,
        add_static,
        equivocation,
        failstop,
        null,
        partition,
        targeted_delay,
    )
    from ..scenarios import composite  # noqa: F401
