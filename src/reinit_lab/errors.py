"""Exception types shared across the package, and the config-key check."""
import math
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


# what a JSON value must be in a field, by the field's annotation; fields of
# any other annotation (the nested configs) are checked on their own
WANTED = {
    "int": "an integer",
    "float": "a number",
    "str": "a string",
    "bool": "true or false",
    "tuple[int, ...]": "an array of integers",
    "tuple[int, int]": "an array of two integers",
}


def _fits(value, kind: str) -> bool:
    """Whether a JSON value fits a field of a WANTED kind; bool, a subclass
    of int, fits a bool field only."""
    if kind.startswith("tuple"):
        return (
            isinstance(value, (list, tuple))
            and (kind == "tuple[int, ...]" or len(value) == 2)
            and all(_fits(v, "int") for v in value)
        )
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "str": str, "bool": bool}[kind])


def checked_keys(cls, d, what: str) -> dict:
    """A copy of the JSON object d, after checking that every key names a
    field of the dataclass cls, that every field without a default is given,
    and that every field of a WANTED kind holds such a value: never a bool
    for a number, nor a float or a string for an int, nor NaN or an infinity."""
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
        # f.type is the annotation as written: every module defers annotations
        kind = f.type.removesuffix(" | None")
        if kind not in WANTED or f.name not in d or (d[f.name] is None and kind != f.type):
            continue
        if not _fits(d[f.name], kind):
            problems.append(f"{what} key {f.name} must be {WANTED[kind]}, got {d[f.name]!r}")
        elif isinstance(d[f.name], float) and not math.isfinite(d[f.name]):  # JSON reads NaN, Infinity
            problems.append(f"{what} key {f.name} must be a finite number, got {d[f.name]!r}")
    if problems:
        raise ConfigurationError("; ".join(problems))
    return dict(d)
