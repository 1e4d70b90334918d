"""Exception types shared across the package, and the config checks."""
import math
import operator
from collections.abc import Mapping
from dataclasses import MISSING, field, fields, is_dataclass
from typing import get_type_hints


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


# what a field must hold, by the field's annotation; fields of any other
# annotation (the nested configs) are checked on their own
WANTED = {
    "int": "an integer",
    "float": "a number",
    "str": "a string",
    "bool": "true or false",
    "tuple[int, ...]": "an array of integers",
    "tuple[int, int]": "an array of two integers",
}


def rule(default, must: str, ok):
    """A config field whose value, once it fits its WANTED kind, must pass ok;
    must completes the message "<field> must ..."."""
    return field(default=default, metadata={"must": must, "ok": ok})


def check_fields(config, what: str) -> None:
    """Check each field of the frozen dataclass config against its WANTED kind
    (never a bool for a number, nor a float or a string for an int, nor NaN or
    an infinity) and then its rule, raising "<what> key <field> must ...". An
    optional field may hold None. Stores integers (numpy ones too) as int and
    arrays as tuples; an int in a float field stays an int."""
    for f in fields(config):
        # f.type is the annotation as written: every module defers annotations
        kind = f.type.removesuffix(" | None")
        value = getattr(config, f.name)
        if kind not in WANTED or (value is None and kind != f.type):
            continue
        fitted = _fitted(value, kind)
        if fitted is None:
            raise ConfigurationError(f"{what} key {f.name} must be {WANTED[kind]}, got {value!r}")
        if isinstance(fitted, float) and not math.isfinite(fitted):
            raise ConfigurationError(f"{what} key {f.name} must be a finite number, got {value!r}")
        if "ok" in f.metadata and not f.metadata["ok"](fitted):
            raise ConfigurationError(f"{what} key {f.name} must {f.metadata['must']}, got {value!r}")
        object.__setattr__(config, f.name, fitted)


def check_gated(config, gate: str, readers: Mapping, what: str) -> None:
    """Under a value of config's attribute gate that readers does not list for a
    field, the field must hold its default ("<what> key <field> applies only to
    ..."), and it is stored as the default: an int 0 as 0.0, one run, one id."""
    value = getattr(config, gate)
    for f in fields(config):
        if f.name not in readers or value in readers[f.name]:
            continue
        if (given := getattr(config, f.name)) != f.default:
            raise ConfigurationError(
                f"{what} key {f.name} applies only to {gate} {' or '.join(map(str, readers[f.name]))}, "
                f"not to {gate} {value!r}; leave it at {f.default!r}, got {given!r}"
            )
        object.__setattr__(config, f.name, f.default)


def _fitted(value, kind: str):
    """value as a field of the WANTED kind stores it, or None when it does not fit."""
    if kind.startswith("tuple"):
        sequence = isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1  # 1-D numpy too
        items = tuple(map(_fitted_int, value)) if sequence else (None,)
        fits = None not in items and (kind == "tuple[int, ...]" or len(items) == 2)
        return items if fits else None
    if kind in ("str", "bool"):
        return value if isinstance(value, str if kind == "str" else bool) else None
    if kind == "float" and isinstance(value, float):
        return value
    return _fitted_int(value)


def _fitted_int(value):
    """value as an int when it is an integer other than a bool, else None."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def integer(value, what: str) -> int:
    """value when it is an integer; ConfigurationError for a bool, a float (2.0 too) or anything else."""
    if (fitted := _fitted_int(value)) is None:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return fitted


def from_json(cls, d, what: str):
    """The dataclass cls built from its JSON object d, the form
    dataclasses.asdict gives, after checking that every key names a field of
    cls and that every field without a default is given; each field whose
    annotation is a dataclass is built from its own object under its key's
    name, and cls checks the values itself."""
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
    d = dict(d)
    for name, kind in get_type_hints(cls).items():
        if is_dataclass(kind) and name in d:
            d[name] = from_json(kind, d[name], name)
    return cls(**d)
