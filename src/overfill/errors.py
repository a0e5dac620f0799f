"""Shared exception types, and the field checks every config class runs."""

import dataclasses
import functools
import sys
import typing


class ConfigError(ValueError):
    """A model or run configuration is invalid. When one field is at fault,
    `field` names it and the message starts with it."""

    def __init__(self, message: str, field: typing.Optional[str] = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class DataError(ValueError):
    """A file, schema, or serialized artifact is malformed."""


def check_types(config) -> None:
    """Raise ConfigError at the first field of the config dataclass `config`
    whose value does not have its annotated type: an int is not a bool, a
    float also accepts an int and must be finite, a bool must be a real
    bool, Optional also accepts None, and a tuple[T, ...] holds only Ts."""
    hints = _hints(type(config))
    for f in dataclasses.fields(config):
        value, hint = getattr(config, f.name), hints[f.name]
        if not _has_type(value, hint):
            want = "int or float" if hint is float else f.type
            got = repr(value) if isinstance(value, tuple) else type(value).__name__
            raise ConfigError(f"expected {want}, got {got}", f.name)
        if hint is float and not abs(value) <= sys.float_info.max:  # NaN, Inf, 10**400
            raise ConfigError(f"expected a finite number, got {value}", f.name)


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _has_type(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[T]
        return value is None or _has_type(value, args[0])
    if origin is tuple:
        return type(value) is tuple and all(_has_type(v, args[0]) for v in value)
    kind = (int, float) if hint is float else hint  # a float also accepts an int
    return isinstance(value, kind) and (hint is bool or not isinstance(value, bool))


def check_ranges(config, rules) -> None:
    """Raise ConfigError at the first (field, ok, want) rule whose `ok` is false."""
    for name, ok, want in rules:
        if not ok:
            raise ConfigError(f"expected {want}, got {getattr(config, name)}", name)
