"""Exception types shared across the package, and the config-key check."""
from collections.abc import Mapping
from dataclasses import MISSING, fields


class ReinitLabError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ReinitLabError):
    """Invalid or inconsistent configuration values."""


class ShapeError(ReinitLabError):
    """Array shapes or parameter layouts that do not line up."""


class DataError(ReinitLabError):
    """Bad values inside otherwise well-formed data (labels, probabilities)."""


class FormatError(ReinitLabError):
    """Malformed input file; the message carries the offending position."""


class NumericalError(ReinitLabError):
    """Non-finite values or degenerate numerical state."""


class HarnessError(ReinitLabError):
    """A study-level failure, e.g. every grid cell diverged."""


# the types a JSON value may have in an int or a float field; bool, a
# subclass of int, is rejected on its own
NUMBER_TYPES = {"int": (int,), "float": (int, float)}


def _numeric_kind(annotation) -> tuple[str | None, bool]:
    """("int" or "float", whether None is allowed) for a field annotated int,
    float or either ``| None``; (None, False) for any other field."""
    name = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
    base = name.removesuffix(" | None")
    return (base if base in NUMBER_TYPES else None), base != name


def checked_keys(cls, d, what: str) -> dict:
    """A copy of the JSON object d, after checking that every key names a
    field of the dataclass cls, that every field without a default is given,
    and that every int or float field holds a number of its kind: an int for
    an int, an int or a float for a float, never a bool or a string."""
    if not isinstance(d, Mapping):
        raise ConfigurationError(f"{what} must be a JSON object, got {type(d).__name__}")
    known = fields(cls)
    unknown = sorted(map(str, set(d) - {f.name for f in known}))
    required = [f.name for f in known if f.default is MISSING and f.default_factory is MISSING]
    missing = [name for name in required if name not in d]
    problems = []
    if unknown:
        problems.append(f"unknown {what} keys: {', '.join(unknown)}")
    if missing:
        problems.append(f"missing {what} keys: {', '.join(missing)}")
    for f in known:
        kind, optional = _numeric_kind(f.type)
        if kind is None or f.name not in d or (d[f.name] is None and optional):
            continue
        value = d[f.name]
        if isinstance(value, bool) or not isinstance(value, NUMBER_TYPES[kind]):
            wanted = "an integer" if kind == "int" else "a number"
            problems.append(f"{what} key {f.name} must be {wanted}, got {value!r}")
    if problems:
        raise ConfigurationError("; ".join(problems))
    return dict(d)
