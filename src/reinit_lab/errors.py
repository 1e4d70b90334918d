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


def checked_keys(cls, d, what: str) -> dict:
    """A copy of the JSON object d, after checking that every key names a
    field of the dataclass cls and that every field without a default is given."""
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
    if problems:
        raise ConfigurationError("; ".join(problems))
    return dict(d)
